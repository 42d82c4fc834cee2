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

There is one window API, over lists: ``open_window(ranges)`` latches
every protection region the window's ranges span and returns the
window's geometry, ``close_window(window, items)`` folds the ``(address,
old_image, new_image)`` items into the table with the Section 3.2
codeword latches held *across* the table update (Data Codeword updaters
hold the protection latch only shared, so nothing else serializes the
codeword's read-modify-write) and then drops the protection latches,
``release_window(window)`` drops them without folding (a rollback), and
``apply_maintenance`` is the unlatched table update itself, for callers
that already exclude everyone else (physical undo under the exclusive
protection latch, single-threaded restart redo).  The scalar scheme
hooks pass one-element lists.

Read prechecking is one call per read, ``precheck(checked, address,
length)``: one pass over the regions the read spans, each folded with
every other thread excluded from it.

Every meter event in this module is the seed scheme code's; read
prechecks and audits sum a read's or a run's charges into one call per
event group, through counters compiled in
:meth:`CodewordMaintainer.attach`, which the meter's linearity makes
identical.  The refactor is observably pure for Table 2 (property-tested
by ``tests/test_pipeline_equivalence.py`` and
``tests/test_fused_precheck.py``).
"""

from __future__ import annotations

from collections import defaultdict

from repro.core.codeword import HALVINGS, INT_FOLD_LIMIT, fold_words, word_count
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


def _latch_all(latches: LatchTable, regions, mode: str) -> None:
    """Latch ``regions`` in order; if an acquire fails, release exactly
    the latches already taken and re-raise."""
    acquire = latches.acquire
    acquired = 0
    try:
        for region_id in regions:
            acquire(region_id, mode)
            acquired += 1
    except BaseException:
        _unlatch_all(latches, regions[:acquired])
        raise


def _unlatch_all(latches: LatchTable, regions) -> None:
    release = latches.release
    for region_id in regions:
        release(region_id)


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
        self._pending: defaultdict[int, int] = defaultdict(int)
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
        # Compiled counters for the fixed event groups charged per read,
        # per window and per audit (one per apply_maintenance composition).
        self._charge_latches = meter.counter("latch_pair")
        self._charge_checks = meter.counter("latch_pair", "cw_check_fixed", "cw_check_word")
        if self.deferred:
            maint = ("cw_maint_word", "deferred_update")
        else:
            maint = ("cw_maint_fixed", "cw_maint_word")
        self._charge_maint = meter.counter(*maint)
        self._charge_latched_maint = meter.counter("latch_pair", *maint)

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

    def open_window(self, ranges: list[tuple[int, int]]) -> tuple:
        """Latch every region the update window's ranges touch, in one pass.

        Returns the window, ``(regions, pairs)`` -- the distinct region
        ids ascending and the range-and-region occurrence count -- for
        :meth:`close_window` and :meth:`release_window`.  Each latch is
        physically acquired once (they are reentrant, so this is purely a
        wall-clock saving) but ``latch_pair`` is charged ``pairs`` times,
        exactly what opening the ranges as separate windows would charge.

        Every multi-latch path takes its latches in ascending region id
        (protection table before codeword table), so two windows over
        the same regions cannot deadlock whatever order their ranges
        come in.
        """
        region_size = self.region_size
        if len(ranges) == 1:
            ((address, length),) = ranges
            first = address // region_size
            regions = range(
                first, (address + length - 1) // region_size + 1 if length > 0 else first + 1
            )
            pairs = len(regions)
        else:
            distinct: set[int] = set()
            pairs = 0
            for address, length in ranges:
                first = address // region_size
                last = (address + length - 1) // region_size if length > 0 else first
                pairs += last - first + 1
                if last == first:
                    distinct.add(first)
                else:
                    distinct.update(range(first, last + 1))
            regions = sorted(distinct)
        _latch_all(self.protection_latches, regions, self.update_latch_mode)
        self._charge_latches(pairs)
        return regions, pairs

    def close_window(self, window: tuple, items: list[tuple[int, bytes, bytes]]) -> None:
        """Fold the window's ``(address, old_image, new_image)`` updates
        -- one per range it opened with, in order -- into the codewords,
        then release its protection latches.

        Section 3.2's codeword latch "guard[s] the update to the actual
        codewords": updaters hold the protection latch only in shared
        mode, so each distinct codeword latch is acquired once and held
        *across* the table update.  ``latch_pair`` is still charged per
        range-and-region occurrence, as one window per range would.

        A stack that also prechecks reads holds its window's protection
        latches *exclusively*, which already excludes every other writer
        of those regions' codewords (windows, physical undo, repairs);
        there the codeword latch is charged as the stacked scheme's cost
        but not physically taken.  If a codeword latch cannot be taken,
        the ones already taken are released, the codewords are untouched
        and the window stays open for its owner to release.
        """
        regions, pairs = window
        if not self.uses_codeword_latch:
            self.apply_maintenance(items, regions)
        elif self.update_latch_mode == EXCLUSIVE:
            self.apply_maintenance(items, regions, pairs)
        else:
            latches = self.codeword_latches
            _latch_all(latches, regions, EXCLUSIVE)
            try:
                self.apply_maintenance(items, regions, pairs)
            finally:
                _unlatch_all(latches, regions)
        _unlatch_all(self.protection_latches, regions)

    def release_window(self, window: tuple) -> None:
        """Release an open window's protection latches without folding
        (the window is being rolled back)."""
        _unlatch_all(self.protection_latches, window[0])

    def _note_dirty(self, regions) -> None:
        """Record prescribed-path dirtiness (and sweep interference)."""
        self.dirty_regions.update(regions)
        if self._sweep_touched is not None:
            self._sweep_touched.update(regions)

    def apply_maintenance(
        self, items: list[tuple[int, bytes, bytes]], regions=None, latch_pairs: int = 0
    ) -> None:
        """Immediate table update, or delta accumulation when deferred.

        ``regions`` are the regions the items span, when the caller has
        already worked them out (a window latched them); they join the
        dirty set.  ``latch_pairs`` codeword latch pairs are charged with
        the update.
        """
        assert self.table is not None and self.meter is not None
        if regions is None:
            spanning = self.table.regions_spanning
            regions = set()
            for address, old_image, _new in items:
                regions.update(spanning(address, len(old_image)))
        self._note_dirty(regions)
        if self.deferred:
            words, chunks = self.table.fold_updates(items, self._pending)
            if not chunks:  # only empty ranges: nothing to defer
                if latch_pairs:
                    self._charge_latches(latch_pairs)
                return
            first, second = words, chunks
        else:
            words, _chunks = self.table.fold_updates(items)
            first, second = len(items), words
        if latch_pairs:
            self._charge_latched_maint(latch_pairs, first, second)
        else:
            self._charge_maint(first, second)

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
        latches = self.protection_latches
        _latch_all(latches, regions, EXCLUSIVE)
        try:
            self._charge_latches(len(regions))
            if entry.codeword_applied:
                current = self.memory.read(entry.address, len(entry.image))
                self.apply_maintenance(
                    [(entry.address, current, entry.image)], regions
                )
            self.memory.write(entry.address, entry.image)
        finally:
            _unlatch_all(latches, regions)

    # --------------------------------------------------------- deferred

    def flush_pending(self) -> int:
        """Apply accumulated deltas to the codeword table."""
        assert self.table is not None and self.meter is not None
        applied = 0
        acquire = self.protection_latches.acquire
        release = self.protection_latches.release
        codewords = self.table.codewords
        for region_id, delta in self._pending.items():
            acquire(region_id, EXCLUSIVE)
            try:
                self._charge_latches(1)
                codewords[region_id] ^= delta
                applied += 1
            finally:
                release(region_id)
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
        from its segment and folded with nobody else able to latch it,
        and the first fold that differs from the stored word fails the
        read.  A region below ``INT_FOLD_LIMIT`` that no thread holds is
        folded under the protection latch table's mutex
        (:meth:`~repro.txn.latches.LatchTable.exclusion`): no latch can be
        granted meanwhile, so bytes and codeword are seen at least as
        exclusively as under the region's exclusive latch, without making
        one.  A held region (an update window, this thread's or
        another's) or a larger one is folded under its exclusive latch.
        Either way one region at a time, so a reader never holds two and
        cannot deadlock against an update window.  Every region the pass
        reaches joins ``checked``.

        ``latch_pair`` / ``cw_check_fixed`` / ``cw_check_word`` are charged
        once per read for the regions folded, through the first failing
        one -- the totals a charge per region gave: the paper's latch
        pair is charged per region however the exclusion was had.
        Raises :class:`QuarantinedRegionError` for a quarantined region
        (or a mismatch under ``quarantine_on_detect``), else
        :class:`CorruptionDetected`.
        """
        table = self.table
        region_size = self.region_size
        first = address // region_size
        stop = (address + (length if length > 0 else 1) - 1) // region_size + 1
        # The image's last region may be ragged (region_bounds).
        last_region = table.region_count - 1
        read = self.memory.read
        mutex, held = self.protection_latches.exclusion()
        quarantined = self.quarantined
        stored = table.codewords
        folded = folded_bytes = 0
        mismatch = refused = None
        for region_id in range(first, stop):
            if region_id in checked:
                continue
            checked.add(region_id)
            if region_id in quarantined:
                refused = region_id
                break
            start = region_id * region_size
            region_len = (
                region_size if region_id != last_region else table.last_region_length
            )
            if region_len < INT_FOLD_LIMIT:
                mutex.acquire()
                if region_id in held:
                    mutex.release()
                    matches = self._check_latched(region_id, start, region_len)
                else:
                    try:
                        # fold_words inlined: the region as one integer,
                        # XOR-halved to a word.
                        fold = int.from_bytes(read(start, region_len), "little")
                        for shift, mask in HALVINGS[region_len]:
                            fold = (fold >> shift) ^ (fold & mask)
                        matches = fold == stored[region_id]
                    finally:
                        mutex.release()
            else:
                matches = self._check_latched(region_id, start, region_len)
            folded += 1
            folded_bytes += region_len
            if not matches:
                mismatch = region_id
                break
        if folded:
            # Only the image's last region can be ragged, so the words of
            # the bytes folded are the sum of each region's word count.
            self._charge_checks(folded, folded, (folded_bytes + 3) >> 2)
            self.precheck_count += folded
        if refused is not None:
            raise QuarantinedRegionError([refused])
        if mismatch is not None:
            self.precheck_failures += 1
            if self.quarantine_on_detect:
                self.quarantine([mismatch])
                raise QuarantinedRegionError([mismatch])
            raise CorruptionDetected([mismatch], context="read precheck")

    def _check_latched(self, region_id: int, start: int, length: int) -> bool:
        """Fold one region under its exclusive protection latch; whether
        it matches its stored codeword."""
        latches = self.protection_latches
        latches.acquire(region_id, EXCLUSIVE)
        try:
            fold = fold_words(self.memory.read(start, length))
            return fold == self.table.codewords[region_id]
        finally:
            latches.release(region_id)

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
        audits pass, so those ride the kernel too.  Both paths charge the
        regions they checked through :meth:`charge_checks`, once per call
        (``charge`` is linear, so the totals are a per-region charge's).
        """
        assert self.table is not None and self.meter is not None
        if self.deferred:
            self.flush_pending()
        table = self.table
        ids = region_ids if region_ids is not None else range(table.region_count)
        if not self.protection_latches.any_held():
            runs = _contiguous_runs(ids, table.region_count)
            if runs is not None:
                corrupt: list[int] = []
                for start, stop in runs:
                    corrupt.extend(table.scan_mismatches(range(start, stop)))
                self.charge_checks(ids)
                return corrupt
        corrupt = []
        checked: list[int] = []
        acquire = self.protection_latches.acquire
        release = self.protection_latches.release
        try:
            for region_id in ids:
                acquire(region_id, EXCLUSIVE)
                try:
                    checked.append(region_id)
                    if not table.matches(region_id):
                        corrupt.append(region_id)
                finally:
                    release(region_id)
        finally:
            self.charge_checks(checked)
        return corrupt

    def charge_checks(self, region_ids=None) -> None:
        """Charge the audit bill for checking ``region_ids`` (None: every
        region): a ``latch_pair`` and a ``cw_check_fixed`` per region, and
        ``cw_check_word`` for the words each folds -- a whole region's,
        or the image's possibly ragged last region's.  ``region_ids`` is
        a range or a list (repeats are charged again)."""
        table = self.table
        last = table.region_count - 1
        count = last + 1 if region_ids is None else len(region_ids)
        if not count:
            return
        words_per_region = word_count(table.region_size)
        ragged = 1 if region_ids is None else region_ids.count(last)
        words = count * words_per_region + ragged * (
            word_count(table.last_region_length) - words_per_region
        )
        self._charge_checks(count, count, words)

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
