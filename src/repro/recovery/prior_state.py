"""The prior-state model of corruption recovery (Section 4.1).

"In the prior-state model, the goal is to return the database to a
transaction consistent state prior to the first possible occurrence of
corruption by replaying logs which were generated prior to that point.
Most commercial systems support this model."

The paper does not evaluate it further because its cost is obvious: *all*
work after the corruption point is lost, and "it is up to the user to
deal with compensating for all transactions which have occurred after the
corruption, rather than just the ones determined to be possibly affected"
-- which is exactly the contrast the delete-transaction model improves on.
We implement it so that contrast can be measured (see the recovery-study
benchmark): the prior-state lost-transaction set is always a superset of
the delete-transaction deleted set.

Algorithm: prior-state recovery is a restart recovery that finishes
*early*.  :class:`~repro.recovery.restart.RestartRecovery` repeats history
from the anchored certified checkpoint up to (not including) the cutoff --
``Audit_SN``, the last point known corruption-free -- traverses the rest
of the log only to find its end and the commits being lost, and then runs
the shared undo phase and finishing checkpoint: exactly a crash at the
cutoff.  History is never replayed filtered by transaction (a kept
transaction's after-images of shared structures embed the effects of
lost ones).

Bound, as in the paper (Section 4.3: the finishing checkpoint
"invalidates all archives"): the lost tail stays on the log and no
amendment says "ignore LSNs [cutoff, here)", so
:func:`~repro.recovery.archive.recover_from_archive` from an archive taken
*before* a prior-state recovery replays the whole log and resurrects the
lost transactions.  Re-archive after a prior-state recovery.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import RecoveryError
from repro.storage.database import CORRUPTION_NOTE_FILE

if TYPE_CHECKING:  # pragma: no cover
    from repro.storage.database import Database


@dataclass
class PriorStateReport:
    """Outcome of a prior-state recovery."""

    cutoff_lsn: int
    ck_end: int
    redo_applied: int = 0
    #: committed transactions whose effects were discarded wholesale
    lost_committed: tuple[int, ...] = ()

    @property
    def lost_set(self) -> set[int]:
        return set(self.lost_committed)


def prior_state_recovery(db: "Database", cutoff_lsn: int) -> PriorStateReport:
    """Restore the database to the transaction-consistent state at ``cutoff_lsn``.

    ``cutoff_lsn`` is typically ``Audit_SN`` from the corruption note: the
    begin-LSN of the last clean audit, i.e. the last moment the database
    was known corruption-free.  History is repeated up to the cutoff and
    whatever was in flight there is rolled back, so only transactions
    whose COMMIT record lies strictly before the cutoff survive;
    everything else -- corrupt or not -- is lost.

    The database shell must be freshly built (as in
    :meth:`Database.recover`); on return it is checkpointed and usable.
    """
    ck_end = db.checkpointer.anchored_ck_end()
    if cutoff_lsn < ck_end:
        raise RecoveryError(
            f"cutoff LSN {cutoff_lsn} precedes the checkpoint's CK_end "
            f"{ck_end}; no certified starting point exists before it"
        )
    report = db._run_recovery(None, until_lsn=cutoff_lsn)
    return PriorStateReport(
        cutoff_lsn=cutoff_lsn,
        ck_end=report.ck_end,
        redo_applied=report.redo_applied,
        lost_committed=report.lost_committed,
    )


def recover_prior_state(
    config, crashpoints=None
) -> tuple["Database", PriorStateReport]:
    """Recover a crashed database under the prior-state model.

    The cutoff is taken from the corruption note's ``Audit_SN`` (a failed
    audit must have crashed the system; without a note there is no
    corruption point to cut at).  ``crashpoints`` arms recovery crash
    points exactly as for :meth:`Database.recover`.
    """
    from repro.storage.database import Database

    note_path = os.path.join(config.dir, CORRUPTION_NOTE_FILE)
    if not os.path.exists(note_path):
        raise RecoveryError(
            "prior-state recovery needs a corruption note (a failed audit); "
            "use Database.recover for plain crashes"
        )
    with open(note_path) as handle:
        note = json.load(handle)
    db = Database._open_shell(config, crashpoints)
    return db, prior_state_recovery(db, int(note["audit_sn"]))
