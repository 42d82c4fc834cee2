"""Read Prechecking (Section 3.1).

Prevents transaction-carried corruption: every prescribed read first
verifies that the codeword of each protection region containing the data
matches the region's content.  The per-region protection latch is taken in
*exclusive* mode both by updaters (for the whole
``begin_update``/``end_update`` window) and by readers (for the duration
of the check), so a reader never sees a half-maintained codeword.

The scheme's cost scales with region size -- a read of a few bytes folds
the whole region -- which is the time/space tradeoff explored by the
64-byte/512-byte/8 KB rows of Table 2.

The *virtual* cost charged per check (``cw_check_word`` x words in the
region) is fixed by the cost model; the wall-clock work is one
:meth:`~repro.core.maintainer.CodewordMaintainer.precheck` pass per read,
which reads each unchecked region straight from its segment and folds it
as one integer.
"""

from __future__ import annotations

from repro.core.schemes import CodewordSchemeBase
from repro.txn.latches import EXCLUSIVE
from repro.txn.transaction import Transaction


class ReadPrecheckScheme(CodewordSchemeBase):
    """Check region-vs-codeword consistency on every read."""

    name = "precheck"
    indirect_protection = "prevent"
    # Small regions: the exclusive protection latch covers the codeword
    # update too, so no separate codeword latch is needed.
    update_latch_mode = EXCLUSIVE
    uses_codeword_latch = False
    # Reads compare against stored codewords, so maintenance must not be
    # deferred (a stacked deferred member would make every read fail).
    requires_fresh_codewords = True

    def __init__(self, region_size: int = 64) -> None:
        super().__init__(region_size)

    @property
    def precheck_count(self) -> int:
        """Regions folded by read prechecks."""
        return self.maintainer.precheck_count

    @property
    def precheck_failures(self) -> int:
        """Prechecks whose fold disagreed with the stored codeword."""
        return self.maintainer.precheck_failures

    def on_read(self, txn: Transaction, address: int, length: int) -> None:
        """Verify every region the read touches, in one maintainer pass.

        Within one operation a region is checked at most once: the
        operation's locks (and, for its own update windows, the exclusive
        protection latch) keep the region stable against foreign
        prescribed updates for the duration, so a second fold of the same
        region cannot learn anything new about *prescribed* writes -- it
        could only re-detect a wild write, which the next operation's
        check (or an audit) will catch anyway.  The cache is cleared at
        every operation boundary.  A quarantined region is refused without
        re-folding bytes the codeword already convicted.
        """
        state = txn.scheme_state
        checked = state.get("checked_regions")
        if checked is None:
            checked = state["checked_regions"] = set()
        self.maintainer.precheck(checked, address, length)

    def on_operation_end(self, txn: Transaction) -> None:
        txn.scheme_state.pop("checked_regions", None)
