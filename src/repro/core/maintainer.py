"""Shared codeword maintenance: one table, one latch set, many schemes.

Every codeword scheme (Sections 3.1/3.2 and the deferred-maintenance
extension) needs the same machinery: a :class:`CodewordTable`, per-region
protection latches, optionally a codeword latch, window bookkeeping,
incremental maintenance at ``end_update``, codeword-aware physical undo
and the audit fold.  Before the pipeline refactor each
:class:`~repro.core.schemes.CodewordSchemeBase` subclass owned a private
copy of all of it; stacking two such schemes would have maintained two
divergent tables over the same bytes.

:class:`CodewordMaintainer` is that machinery extracted into one object.
A bare scheme owns a private maintainer; a
:class:`~repro.core.pipeline.ProtectionPipeline` builds a single shared
maintainer from the folded policy of its codeword members (smallest
region size, strictest latch mode) and makes every member adopt it, so a
stack audits and maintains exactly one table.

There is one window API, over lists: ``open_window(txn, ranges)`` latches
every protection region the window's ranges span, ``maintain(txn, items)``
folds the ``(address, old_image, new_image)`` items into the table with
the Section 3.2 codeword latches held *across* the table update (Data
Codeword updaters hold the protection latch only shared, so nothing else
serializes the codeword's read-modify-write), and ``apply_maintenance``
is the unlatched table update itself, for callers that already exclude
everyone else (physical undo under the exclusive protection latch,
single-threaded restart redo).  The scalar scheme hooks pass one-element
lists.

Read prechecking is one call per read, ``precheck(checked, address,
length)``: one latched pass over the regions the read spans.

Every meter event in this module is the seed scheme code's; read
prechecks and audits sum a read's or a run's charges into one call per
event, which :meth:`~repro.sim.clock.Meter.charge`'s linearity makes
identical.  The refactor is observably pure for Table 2 (property-tested
by ``tests/test_pipeline_equivalence.py`` and
``tests/test_fused_precheck.py``).
"""

from __future__ import annotations

from repro.core.codeword import fold_words, word_count
from repro.core.regions import CodewordTable
from repro.errors import CorruptionDetected, QuarantinedRegionError
from repro.mem.memory import MemoryImage
from repro.sim.clock import Meter
from repro.txn.latches import LatchTable, EXCLUSIVE, SHARED
from repro.txn.transaction import Transaction
from repro.wal.local_log import PhysicalUndo


def _contiguous_runs(ids, region_count: int):
    """Group region ids into maximal ``[start, stop)`` runs.

    Accepts a step-1 :class:`range` or a strictly ascending list/tuple of
    in-bounds ids (what dirty-region audits pass); returns ``None`` for
    anything else, sending the caller to the scalar per-region loop.
    """
    if isinstance(ids, range):
        if ids.step != 1:
            return None
        if not len(ids):
            return []
        if ids.start < 0 or ids.stop > region_count:
            return None
        return [(ids.start, ids.stop)]
    if not isinstance(ids, (list, tuple)):
        return None
    runs: list[tuple[int, int]] = []
    previous = None
    for region_id in ids:
        if not isinstance(region_id, int) or not 0 <= region_id < region_count:
            return None
        if previous is not None and region_id <= previous:
            return None
        if runs and region_id == previous + 1:
            runs[-1] = (runs[-1][0], region_id + 1)
        else:
            runs.append((region_id, region_id + 1))
        previous = region_id
    return runs


class CodewordMaintainer:
    """Owns a codeword table plus its latches and cost accounting.

    Parameters
    ----------
    region_size:
        Bytes per protection region.
    update_latch_mode:
        Mode updaters hold the protection latch in for the whole update
        window (``SHARED`` for audit-based schemes, ``EXCLUSIVE`` for
        read prechecking, Section 3.1/3.2).
    uses_codeword_latch:
        Whether a separate codeword latch serializes the table update
        (Section 3.2's large-region optimisation).
    deferred:
        Accumulate per-region XOR deltas instead of applying them inside
        the window; :meth:`flush_pending` (called by every audit) applies
        the batch under the protection latch.
    """

    def __init__(
        self,
        region_size: int,
        *,
        update_latch_mode: str = SHARED,
        uses_codeword_latch: bool = True,
        deferred: bool = False,
    ) -> None:
        self.region_size = region_size
        self.update_latch_mode = update_latch_mode
        self.uses_codeword_latch = uses_codeword_latch
        self.deferred = deferred
        self.memory: MemoryImage | None = None
        self.meter: Meter | None = None
        self.table: CodewordTable | None = None
        self.protection_latches = LatchTable("protection")
        self.codeword_latches = LatchTable("codeword")
        self._pending: dict[int, int] = {}
        self.flush_count = 0
        #: Regions touched through the prescribed interface since they
        #: were last verified by a clean audit.  Fed by maintenance and
        #: physical undo; consumed by dirty-region incremental audits.
        #: A wild write (``poke``) bypasses the hooks and so never lands
        #: here -- that asymmetry is exactly what makes periodic full
        #: sweeps a correctness requirement, not an optimisation.
        self.dirty_regions: set[int] = set()
        #: Regions a failed audit/precheck fenced off.  Quarantined
        #: regions are skipped by degraded audits and vetoed (or repaired
        #: first) on read; they leave the set via
        #: :meth:`unquarantine` (cache recovery) or :meth:`rebuild`
        #: (restart recovery recomputes every codeword from a repaired
        #: image, so prior quarantine verdicts are stale).
        self.quarantined: set[int] = set()
        #: When True, a precheck mismatch quarantines the failing regions
        #: as it raises (set by the storage layer under
        #: ``DBConfig(quarantine=True)``).
        self.quarantine_on_detect = False
        #: Regions :meth:`precheck` folded, and the mismatches among them.
        self.precheck_count = 0
        self.precheck_failures = 0
        #: While a background full sweep is folding memory in a worker
        #: thread, every region dirtied through the prescribed interface
        #: is also recorded here; the sweep's verdict re-checks exactly
        #: those regions synchronously at join (their folds may have
        #: raced the mutator).  ``None`` when no sweep is in flight.
        self._sweep_touched: set[int] | None = None

    def attach(self, memory: MemoryImage, meter: Meter) -> None:
        """Bind to an image/meter; idempotent so shared adopters can all call it."""
        if self.table is not None and self.memory is memory and self.meter is meter:
            return
        self.memory = memory
        self.meter = meter
        self.table = CodewordTable(memory, self.region_size)

    def rebuild(self) -> None:
        assert self.table is not None
        self.table.rebuild_all()
        # Freshly recomputed codewords match memory by construction;
        # nothing is awaiting verification, and quarantine verdicts
        # against the pre-rebuild image are stale.
        self.dirty_regions.clear()
        self.quarantined.clear()

    @property
    def space_overhead(self) -> float:
        return self.table.space_overhead if self.table else 4.0 / self.region_size

    # ---------------------------------------------------------- windows

    def _window_regions(self, spans: list[range]) -> tuple[range | list[int], int]:
        """Distinct region ids of a window's per-range spans, in first-seen
        order, and the range-and-region occurrence count ``latch_pair`` is
        charged by (what one window per range would charge).  A one-range
        window returns its span itself, building nothing."""
        if len(spans) == 1:
            span = spans[0]
            return span, len(span)
        regions: dict[int, None] = {}
        pairs = 0
        for span in spans:
            pairs += len(span)
            regions.update(dict.fromkeys(span))
        return list(regions), pairs

    def open_window(self, txn: Transaction, ranges: list[tuple[int, int]]) -> None:
        """Latch every region the update window's ranges touch, in one pass.

        Each latch is physically acquired once (they are reentrant, so
        this is purely a wall-clock saving) but ``latch_pair`` is charged
        once per range-and-region occurrence -- exactly what opening the
        ranges as separate windows would charge.
        """
        assert self.table is not None and self.meter is not None
        spanning = self.table.regions_spanning
        regions, pairs = self._window_regions(
            [spanning(address, length) for address, length in ranges]
        )
        latch_of = self.protection_latches.latch
        mode = self.update_latch_mode
        acquired = 0
        try:
            for region_id in regions:
                latch_of(region_id).acquire(mode)
                acquired += 1
        except BaseException:
            for region_id in regions[:acquired]:
                latch_of(region_id).release()
            raise
        txn.scheme_state["window_regions"] = regions
        self.meter.charge("latch_pair", pairs)

    def release_window(self, txn: Transaction) -> None:
        latch_of = self.protection_latches.latch
        for region_id in txn.scheme_state.pop("window_regions", ()):
            latch_of(region_id).release()

    def maintain(
        self, txn: Transaction, items: list[tuple[int, bytes, bytes]]
    ) -> None:
        """Fold a window's ``(address, old_image, new_image)`` updates into
        the codewords at ``end_update``.

        Section 3.2's codeword latch "guard[s] the update to the actual
        codewords": updaters hold the protection latch only in shared
        mode, so each distinct codeword latch is acquired once and held
        *across* the table update.  ``latch_pair`` is still charged per
        range-and-region occurrence, as one window per range would.

        A stack that also prechecks reads holds its window's protection
        latches *exclusively*, which already excludes every other writer
        of those regions' codewords (windows, physical undo, repairs);
        there the codeword latch is charged as the stacked scheme's cost
        but not physically taken.
        """
        assert self.table is not None and self.meter is not None
        if not self.uses_codeword_latch:
            self.apply_maintenance(items)
            return
        spanning = self.table.regions_spanning
        spans = [spanning(address, len(old_image)) for address, old_image, _new in items]
        regions, pairs = self._window_regions(spans)
        if self.update_latch_mode == EXCLUSIVE:
            self.meter.charge("latch_pair", pairs)
            self.apply_maintenance(items, spans)
            return
        latch_of = self.codeword_latches.latch
        for region_id in regions:
            latch_of(region_id).acquire(EXCLUSIVE)
        try:
            self.meter.charge("latch_pair", pairs)
            self.apply_maintenance(items, spans)
        finally:
            for region_id in regions:
                latch_of(region_id).release()

    def _note_dirty(self, regions) -> None:
        """Record prescribed-path dirtiness (and sweep interference)."""
        self.dirty_regions.update(regions)
        if self._sweep_touched is not None:
            self._sweep_touched.update(regions)

    def apply_maintenance(
        self,
        items: list[tuple[int, bytes, bytes]],
        spans: list[range] | None = None,
    ) -> None:
        """Immediate table update, or delta accumulation when deferred.

        ``spans`` lets the caller pass the per-item region spans it
        already computed (:meth:`maintain` needs them for latching), so
        the geometry is not re-derived here.
        """
        assert self.table is not None and self.meter is not None
        if spans is None:
            spans = [
                self.table.regions_spanning(address, len(old_image))
                for address, old_image, _new in items
            ]
        for span in spans:
            self._note_dirty(span)
        if self.deferred:
            for address, old_image, new_image in items:
                for region_id, delta, words in self.table.compute_deltas(
                    address, old_image, new_image
                ):
                    self._pending[region_id] = self._pending.get(region_id, 0) ^ delta
                    self.meter.charge("cw_maint_word", words)
                    self.meter.charge("deferred_update")
        else:
            words = self.table.apply_update_batch(items)
            self.meter.charge("cw_maint_fixed", len(items))
            self.meter.charge("cw_maint_word", words)

    # ------------------------------------------------------------- undo

    def apply_physical_undo(self, entry: PhysicalUndo) -> None:
        """Restore a before-image, fixing the codeword iff it was applied.

        If the update window never reached ``end_update``
        (``codeword_applied`` False), the stored codeword still matches
        the *old* content, so restoring it must leave the codeword alone
        (Section 3.1).
        """
        assert self.table is not None and self.memory is not None
        regions = self.table.regions_spanning(entry.address, len(entry.image))
        # The restore writes below the hooks; mark the regions for the
        # next dirty-region audit whether or not the codeword moves.
        self._note_dirty(regions)
        latches = [self.protection_latches.latch(r) for r in regions]
        for latch in latches:
            latch.acquire(EXCLUSIVE)
            self.meter.charge("latch_pair")
        try:
            if entry.codeword_applied:
                current = self.memory.read(entry.address, len(entry.image))
                self.apply_maintenance(
                    [(entry.address, current, entry.image)], [regions]
                )
            self.memory.write(entry.address, entry.image)
        finally:
            for latch in latches:
                latch.release()

    # --------------------------------------------------------- deferred

    def flush_pending(self) -> int:
        """Apply accumulated deltas to the codeword table."""
        assert self.table is not None and self.meter is not None
        applied = 0
        for region_id, delta in self._pending.items():
            latch = self.protection_latches.latch(region_id)
            with latch.exclusive():
                self.meter.charge("latch_pair")
                self.table.apply_delta(region_id, delta)
                applied += 1
        self._pending.clear()
        self.flush_count += 1
        return applied

    @property
    def pending_region_count(self) -> int:
        return len(self._pending)

    # ------------------------------------------------------- dirty set

    def dirty_region_list(self) -> list[int]:
        """Sorted snapshot of the dirty set (sorted so the audit path can
        fold contiguous runs through the vectorized kernel)."""
        return sorted(self.dirty_regions)

    def clear_dirty(self, region_ids=None) -> None:
        """Drop regions from the dirty set after a clean audit verified
        them (all regions when ``region_ids`` is None: a full sweep)."""
        if region_ids is None:
            self.dirty_regions.clear()
        else:
            self.dirty_regions.difference_update(region_ids)

    # -------------------------------------------------- sweep handshake

    def begin_sweep_tracking(self) -> None:
        """Start recording regions the mutator touches (background sweep).

        Called with the pending-delta set already flushed, so every
        stored-codeword change after this point is also a tracked touch.
        """
        self._sweep_touched = set()

    def end_sweep_tracking(self) -> set[int]:
        """Stop recording; returns the regions touched while the sweep ran."""
        touched = self._sweep_touched or set()
        self._sweep_touched = None
        return touched

    @property
    def sweep_tracking(self) -> bool:
        return self._sweep_touched is not None

    def note_repair(self, region_ids) -> None:
        """Record regions rewritten below the hooks (cache recovery).

        A repair restores bytes and recomputes the codeword outside the
        prescribed interface; an in-flight background sweep raced those
        writes, so the regions must be re-checked at join like any other
        mid-sweep touch.
        """
        self._note_dirty(region_ids)

    # ------------------------------------------------------- quarantine

    def quarantine(self, region_ids) -> None:
        """Fence off regions a failed audit/precheck identified."""
        self.quarantined.update(region_ids)

    def unquarantine(self, region_ids) -> None:
        """Release regions that were repaired (cache recovery)."""
        self.quarantined.difference_update(region_ids)

    def quarantined_overlapping(self, address: int, length: int) -> list[int]:
        """Quarantined regions overlapping ``[address, address+length)``."""
        if not self.quarantined or self.table is None:
            return []
        spanned = self.table.regions_spanning(address, length)
        return sorted(self.quarantined.intersection(spanned))

    # ------------------------------------------------------------ audit

    def precheck(self, checked: set[int], address: int, length: int) -> None:
        """Verify every region a read spans against its stored codeword.

        One pass over ``[address, address + length)`` in ascending region
        order.  A region already in ``checked`` (verified earlier in this
        operation) is skipped; a quarantined region refuses the read
        without being folded again; every other region is read straight
        from its segment and folded under its exclusive protection latch,
        and the first fold that differs from the stored word fails the
        read.  The
        latch is taken and released per region, so a reader never holds
        two and cannot deadlock against an update window.  Every region
        the pass reaches joins ``checked``.

        ``latch_pair`` / ``cw_check_fixed`` / ``cw_check_word`` are charged
        once per read for the regions folded, through the first failing
        one -- the totals a charge per region gave, since
        :meth:`~repro.sim.clock.Meter.charge` is linear.  Raises
        :class:`QuarantinedRegionError` for a quarantined region (or a
        mismatch under ``quarantine_on_detect``), else
        :class:`CorruptionDetected`.
        """
        table = self.table
        memory = self.memory
        assert table is not None and memory is not None and self.meter is not None
        region_size = self.region_size
        first = address // region_size
        stop = (address + max(length, 1) - 1) // region_size + 1
        image_size = memory.size
        read = memory.read
        latch_of = self.protection_latches.latch
        quarantined = self.quarantined
        stored = table.stored
        folded = words = 0
        mismatch = refused = None
        for region_id in range(first, stop):
            if region_id in checked:
                continue
            checked.add(region_id)
            if region_id in quarantined:
                refused = region_id
                break
            start = region_id * region_size
            # The image's last region may be ragged (region_bounds).
            region_len = min(region_size, image_size - start)
            latch = latch_of(region_id)
            latch.acquire(EXCLUSIVE)
            try:
                matches = fold_words(read(start, region_len)) == stored(region_id)
            finally:
                latch.release()
            folded += 1
            words += word_count(region_len)
            if not matches:
                mismatch = region_id
                break
        if folded:
            charge = self.meter.charge
            charge("latch_pair", folded)
            charge("cw_check_fixed", folded)
            charge("cw_check_word", words)
            self.precheck_count += folded
        if refused is not None:
            raise QuarantinedRegionError([refused])
        if mismatch is not None:
            self.precheck_failures += 1
            if self.quarantine_on_detect:
                self.quarantine([mismatch])
                raise QuarantinedRegionError([mismatch])
            raise CorruptionDetected([mismatch], context="read precheck")

    def audit_regions(self, region_ids=None) -> list[int]:
        """Check codewords against content; returns mismatching regions.

        The protection latch is taken in exclusive mode per region to get
        a consistent view of region and codeword (Section 3.2).  A
        deferred maintainer first flushes its pending deltas so the
        stored codewords are current.

        Fast path: when no protection latch is held (no update window or
        precheck in flight, so latching cannot block and nothing can slip
        between checks) and the regions form a contiguous range *or* a
        strictly ascending id list, each maximal contiguous run folds
        through the vectorized
        :meth:`~repro.core.regions.CodewordTable.scan_mismatches` kernel.
        Ascending lists are what dirty-region and round-robin incremental
        audits pass, so those ride the kernel too.  The meter is charged
        the *same* event counts as the per-region loop -- ``charge`` is
        linear, so bulk charging leaves every Table 2 words-folded number
        unchanged (property-tested in ``tests/test_dirty_audit.py``).
        """
        assert self.table is not None and self.meter is not None
        if self.deferred:
            self.flush_pending()
        table = self.table
        ids = region_ids if region_ids is not None else range(table.region_count)
        if not self.protection_latches.any_held():
            runs = _contiguous_runs(ids, table.region_count)
            if runs is not None:
                checked = 0
                words = 0
                corrupt: list[int] = []
                last = table.region_count - 1
                words_per_region = word_count(table.region_size)
                for start, stop in runs:
                    count = stop - start
                    checked += count
                    # Every region folds word_count(region_size) words
                    # except the possibly ragged final region of the image.
                    words += count * words_per_region
                    if start <= last < stop:
                        words += word_count(table.region_bounds(last)[1]) - (
                            words_per_region
                        )
                    corrupt.extend(table.scan_mismatches(range(start, stop)))
                if checked:
                    self.meter.charge("latch_pair", checked)
                    self.meter.charge("cw_check_fixed", checked)
                    self.meter.charge("cw_check_word", words)
                return corrupt
        corrupt = []
        for region_id in ids:
            latch = self.protection_latches.latch(region_id)
            with latch.exclusive():
                self.meter.charge("latch_pair")
                _start, length = table.region_bounds(region_id)
                self.meter.charge("cw_check_fixed")
                self.meter.charge("cw_check_word", word_count(length))
                if not table.matches(region_id):
                    corrupt.append(region_id)
        return corrupt

    def checksum_of(self, data: bytes, charge: bool = True) -> int:
        """Checksum a read value (used by read logging with codewords)."""
        assert self.meter is not None
        if charge:
            self.meter.charge("checksum_word", word_count(len(data)))
        return fold_words(data)

    def region_digests(self):
        """Per-region *computed* folds of the current content.

        The divergence primitive for replication: two nodes that applied
        the same record stream to the same starting image have identical
        digests, and a wild write on either side moves exactly the folds
        of the regions it hit.  Content folds, not the stored codewords --
        a wild write leaves the stored word untouched (that is the
        paper's detection premise), so stored words would never diverge.
        Deferred deltas are flushed first so a subsequent self-audit of a
        mismatched region is a pure stored-vs-computed comparison.
        """
        assert self.table is not None
        if self.deferred:
            self.flush_pending()
        return self.table.fold_all()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CodewordMaintainer(region_size={self.region_size}, "
            f"mode={self.update_latch_mode!r}, "
            f"codeword_latch={self.uses_codeword_latch}, "
            f"deferred={self.deferred})"
        )
