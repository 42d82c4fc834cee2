"""The auditor: asynchronous codeword consistency checks.

"The process of auditing is nothing more than an asynchronous check of
consistency between the contents of a protection region and the codeword
for that region." (Section 3.2)

Each audit brackets itself in the system log with AUDIT_BEGIN/AUDIT_END
records.  The LSN of the last *clean* audit's begin record is ``Audit_SN``
(Section 4.3): corruption recovery conservatively assumes the error
occurred immediately after it.  When an audit fails, the corrupt region
list is recorded in the AUDIT_END record (and by the database in a
side-file "corruption note") so the subsequent restart can seed its
CorruptDataTable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.background import BackgroundSweep
from repro.core.codeword import word_count
from repro.core.schemes import ProtectionScheme
from repro.wal.records import AuditBeginRecord, AuditEndRecord
from repro.wal.system_log import SystemLog


@dataclass(frozen=True)
class AuditReport:
    """Outcome of one audit pass."""

    audit_id: int
    begin_lsn: int
    clean: bool
    corrupt_regions: tuple[int, ...]
    region_size: int
    regions_checked: int
    corrupt_ranges: tuple[tuple[int, int], ...] = field(default=())
    #: Total image size in bytes; 0 when unknown.  Lets the fallback below
    #: clamp the final (possibly ragged) region like ``region_bounds``.
    image_size: int = 0
    #: Regions this audit skipped because they were already quarantined
    #: (``skip_quarantined``).  A clean-but-degraded report certifies only
    #: the regions it actually folded.
    quarantined_regions: tuple[int, ...] = field(default=())

    @property
    def degraded(self) -> bool:
        """True when quarantined regions were skipped rather than audited."""
        return bool(self.quarantined_regions)

    @property
    def corrupt_byte_ranges(self) -> tuple[tuple[int, int], ...]:
        """``(start_address, length)`` of each corrupt region.

        The fallback clamps the last region to the image size, matching
        :meth:`~repro.core.regions.CodewordTable.region_bounds`, so a
        ragged final region never reports bytes past the end of memory.
        """
        if self.corrupt_ranges:
            return self.corrupt_ranges
        ranges = []
        for region_id in self.corrupt_regions:
            start = region_id * self.region_size
            length = self.region_size
            if self.image_size:
                length = min(length, self.image_size - start)
            ranges.append((start, length))
        return tuple(ranges)


class Auditor:
    """Runs audits for a scheme and tracks ``Audit_SN``."""

    def __init__(
        self,
        system_log: SystemLog,
        scheme: ProtectionScheme,
        *,
        audit_mode: str = "full",
        full_sweep_every: int = 8,
        background: bool = False,
        scheduler,
    ) -> None:
        self.system_log = system_log
        self.scheme = scheme
        #: The database's task scheduler (``repro.runtime``).  Background
        #: sweep folds are spawned through it so the shutdown/crash drain
        #: settles them.
        self.scheduler = scheduler
        self._next_audit_id = 1
        #: LSN at which the last clean audit began (Audit_SN); recovery
        #: conservatively treats everything after it as suspect.
        self.last_clean_audit_lsn = 0
        self.audits_run = 0
        self.failures = 0
        # Incremental auditing state: next region of the round-robin
        # cursor and the begin-LSN of the current sweep.
        self._cursor = 0
        self._sweep_begin_lsn: int | None = None
        #: "full" | "incremental" -- how routine audits (checkpoints,
        #: ``Database.audit()``) are scheduled; see :meth:`run_dirty`.
        self.audit_mode = audit_mode
        self.full_sweep_every = max(1, full_sweep_every)
        self._dirty_audits_since_sweep = 0
        #: Run full-sweep escalations in a worker thread (see
        #: :meth:`start_background_sweep`); only meaningful with
        #: ``audit_mode="incremental"``.
        self.background = background
        self._sweep: BackgroundSweep | None = None
        #: Report produced by :meth:`checkpoint_tick` (the scheduler's
        #: ``"checkpoint"`` trigger), consumed by the next
        #: :meth:`run_for_checkpoint` call.
        self._pending_checkpoint_report: AuditReport | None = None
        #: Digest listeners: ``fn(ck_end, digests)`` callables invoked
        #: when a certified checkpoint publishes its per-region codeword
        #: digests (replication's divergence channel -- see
        #: :meth:`publish_digests`).
        self.digest_listeners: list = []
        self.digests_published = 0

    def _maintainer(self):
        return getattr(self.scheme, "maintainer", None)

    # -------------------------------------------------- digest publication

    def publish_digests(self, ck_end: int, quiescent: bool = True) -> bool:
        """Publish per-region *computed* digests for the epoch ``ck_end``.

        Called by the checkpointer right after a certified anchor flip.
        The digests are content folds (``fold_all``), not the stored
        codewords: a wild write moves the fold but not the stored word,
        and the whole point of the channel is that a replica folding its
        *own* replayed image sees the difference.

        Publication is skipped when the primary is not quiescent (active
        transactions hold image writes whose records have not migrated to
        the system log, so the image at ``ck_end`` is not a pure function
        of the shipped record stream) -- the epoch simply does not happen
        rather than mis-accusing a healthy replica.
        """
        if not self.digest_listeners or not quiescent:
            return False
        table = self.scheme.codeword_table
        if table is None:
            return False
        digests = table.fold_all()
        for listener in self.digest_listeners:
            listener(ck_end, digests)
        self.digests_published += 1
        return True

    def run(
        self,
        region_ids=None,
        flush: bool = True,
        advance_audit_sn: bool = True,
        skip_quarantined: bool = False,
    ) -> AuditReport:
        """Audit the given regions (default: all); returns a report.

        The report is informational -- deciding to crash and enter
        corruption recovery is the database's call, since the right
        response differs between schemes (cache recovery for plain Data
        Codeword, delete-transaction recovery with read logging).

        ``skip_quarantined`` excludes regions the maintainer already
        holds in quarantine: they are known-corrupt, and re-failing the
        audit on their account would mask *new* corruption elsewhere.
        The skipped ids are reported (``report.quarantined_regions``) and
        a degraded audit never advances ``Audit_SN`` -- it certified only
        part of the image.
        """
        audit_id = self._next_audit_id
        self._next_audit_id += 1
        begin_lsn = self.system_log.append(AuditBeginRecord(audit_id))
        table = self.scheme.codeword_table
        region_size = table.region_size if table is not None else 0
        quarantined: tuple[int, ...] = ()
        if skip_quarantined:
            maintainer = getattr(self.scheme, "maintainer", None)
            if maintainer is not None and maintainer.quarantined:
                qset = set(maintainer.quarantined)
                if region_ids is None:
                    count = table.region_count if table is not None else 0
                    region_ids = [r for r in range(count) if r not in qset]
                    quarantined = tuple(sorted(qset))
                else:
                    region_ids = list(region_ids)
                    quarantined = tuple(
                        sorted(qset.intersection(region_ids))
                    )
                    region_ids = [r for r in region_ids if r not in qset]
        if quarantined:
            # Part of the image went unverified; a clean result here must
            # not certify the whole database.
            advance_audit_sn = False
        if region_ids is None:
            regions_checked = table.region_count if table is not None else 0
        else:
            region_ids = list(region_ids)
            regions_checked = len(region_ids)
        corrupt = tuple(self.scheme.audit_regions(region_ids))
        ranges = ()
        if table is not None:
            ranges = tuple(table.region_bounds(r) for r in corrupt)
        self.system_log.append(
            AuditEndRecord(
                audit_id,
                clean=not corrupt,
                corrupt_regions=corrupt,
                region_size=region_size,
            )
        )
        if flush:
            self.system_log.flush()
        self.audits_run += 1
        if corrupt:
            self.failures += 1
        elif advance_audit_sn:
            self.last_clean_audit_lsn = begin_lsn
        return AuditReport(
            audit_id=audit_id,
            begin_lsn=begin_lsn,
            clean=not corrupt,
            corrupt_regions=corrupt,
            region_size=region_size,
            regions_checked=regions_checked,
            corrupt_ranges=ranges,
            image_size=table.memory.size if table is not None else 0,
            quarantined_regions=quarantined,
        )

    def run_dirty(
        self, flush: bool = True, skip_quarantined: bool = False
    ) -> AuditReport:
        """Audit only the regions dirtied since they were last verified.

        The maintainer marks every region touched through the prescribed
        interface (maintenance, deferred flushes, physical undo) dirty;
        this pass folds just those through the vectorized kernel, so its
        cost scales with the write working set instead of the image size
        (the Section 5 audit-at-checkpoint cost, made incremental).

        A wild write is by definition one that does *not* mark the dirty
        set, so every ``full_sweep_every``-th call escalates to a full
        :meth:`run` -- that cadence bounds wild-write detection latency
        and is the correctness knob of ``audit_mode="incremental"``.
        ``Audit_SN`` only advances on those full sweeps: a clean
        dirty-pass proves nothing about regions it never folded.
        """
        maintainer = self._maintainer()
        if maintainer is None or self.scheme.codeword_table is None:
            return self.run(flush=flush)
        self._dirty_audits_since_sweep += 1
        if self._dirty_audits_since_sweep >= self.full_sweep_every:
            self._dirty_audits_since_sweep = 0
            if self.background:
                if self._sweep is not None:
                    # The sweep launched at the previous cadence point has
                    # had a whole period to fold; join it (near-instant)
                    # and report its full-image verdict.
                    report = self.join_background_sweep(
                        flush=flush, skip_quarantined=skip_quarantined
                    )
                    if report.clean:
                        maintainer.clear_dirty()
                    return report
                # First escalation: launch the fold off-thread and serve
                # this call with an ordinary dirty pass -- the mutator
                # never waits for the full sweep.
                self.start_background_sweep()
            else:
                report = self.run(flush=flush, skip_quarantined=skip_quarantined)
                if report.clean:
                    maintainer.clear_dirty()
                return report
        dirty = maintainer.dirty_region_list()
        report = self.run(
            region_ids=dirty,
            flush=flush,
            advance_audit_sn=False,
            skip_quarantined=skip_quarantined,
        )
        if report.clean:
            maintainer.clear_dirty(dirty)
        return report

    # ------------------------------------------------- background sweeps

    def start_background_sweep(self) -> bool:
        """Launch a full-sweep fold in a worker thread; True if started.

        The fold (``CodewordTable.fold_all``) is one big GIL-releasing
        numpy reduction, so it overlaps the pure-Python mutator.  The
        snapshot/epoch handshake with the maintainer: pending deferred
        deltas are flushed *first*, then :meth:`begin_sweep_tracking`
        records every region whose bytes or stored codeword change while
        the fold races memory -- those are re-checked synchronously at
        :meth:`join_background_sweep`, so a torn fold can never produce a
        false verdict either way.
        """
        maintainer = self._maintainer()
        table = self.scheme.codeword_table
        if maintainer is None or table is None or self._sweep is not None:
            return False
        if maintainer.deferred:
            # Stored codewords must be current before the fold starts so
            # every later change is a tracked touch.
            maintainer.flush_pending()
        audit_id = self._next_audit_id
        self._next_audit_id += 1
        begin_lsn = self.system_log.append(AuditBeginRecord(audit_id))
        maintainer.begin_sweep_tracking()
        sweep = BackgroundSweep(audit_id, begin_lsn, table, self.scheduler)
        sweep.start()
        self._sweep = sweep
        return True

    def join_background_sweep(
        self, flush: bool = True, skip_quarantined: bool = False
    ) -> AuditReport | None:
        """Finish the in-flight sweep and deliver its full-image verdict.

        Charges the meter exactly what the synchronous full-sweep fast
        path charges (``latch_pair``/``cw_check_fixed`` per region,
        ``cw_check_word`` for every word of the image) -- the off-thread
        fold is a wall-clock optimisation, not a cost-model change.
        Regions the mutator touched while the fold ran are re-audited
        synchronously (their background folds raced live bytes); a clean
        verdict advances ``Audit_SN`` to the sweep's *begin* LSN, the
        same conservative rule as :meth:`run_incremental`.
        """
        sweep = self._sweep
        if sweep is None:
            return None
        self._sweep = None
        maintainer = self._maintainer()
        table = self.scheme.codeword_table
        assert maintainer is not None and table is not None
        computed = sweep.join()
        touched = maintainer.end_sweep_tracking()
        meter = maintainer.meter
        n = table.region_count
        region_size = table.region_size
        if meter is not None and n:
            words_per_region = word_count(region_size)
            words = n * words_per_region
            # The final region of the image may be ragged.
            words += word_count(table.region_bounds(n - 1)[1]) - words_per_region
            meter.charge("latch_pair", n)
            meter.charge("cw_check_fixed", n)
            meter.charge("cw_check_word", words)
        mismatched = {int(i) for i in np.nonzero(computed != table.stored_words)[0]}
        quarantined: tuple[int, ...] = ()
        qset: set[int] = set()
        if skip_quarantined and maintainer.quarantined:
            qset = set(maintainer.quarantined)
            quarantined = tuple(sorted(qset))
        # Regions the mutator touched mid-fold carry untrustworthy
        # background folds (either verdict could be stale); re-check them
        # against the current bytes on this thread.
        recheck = sorted(set(touched) - qset)
        recheck_corrupt = self.scheme.audit_regions(recheck) if recheck else []
        corrupt = tuple(sorted((mismatched - set(touched) - qset) | set(recheck_corrupt)))
        self.system_log.append(
            AuditEndRecord(
                sweep.audit_id,
                clean=not corrupt,
                corrupt_regions=corrupt,
                region_size=region_size,
            )
        )
        if flush:
            self.system_log.flush()
        self.audits_run += 1
        if corrupt:
            self.failures += 1
        elif not quarantined:
            self.last_clean_audit_lsn = max(
                self.last_clean_audit_lsn, sweep.begin_lsn
            )
        return AuditReport(
            audit_id=sweep.audit_id,
            begin_lsn=sweep.begin_lsn,
            clean=not corrupt,
            corrupt_regions=corrupt,
            region_size=region_size,
            regions_checked=n,
            corrupt_ranges=tuple(table.region_bounds(r) for r in corrupt),
            image_size=table.memory.size,
            quarantined_regions=quarantined,
        )

    def abandon_background_sweep(self) -> None:
        """Discard an in-flight sweep without a verdict (crash/close).

        Leaves an unmatched AUDIT_BEGIN in the log -- restart treats an
        audit with no AUDIT_END as never having completed, which is the
        truth.  ``Audit_SN`` and the dirty set are untouched.
        """
        sweep = self._sweep
        if sweep is None:
            return
        self._sweep = None
        maintainer = self._maintainer()
        if maintainer is not None and maintainer.sweep_tracking:
            maintainer.end_sweep_tracking()
        sweep.abandon()

    def checkpoint_tick(self, _event: str = "checkpoint") -> None:
        """Tick task ``audit.certify_join`` (event ``"checkpoint"``).

        The certification join is scheduled work: when the checkpointer
        fires the ``"checkpoint"`` tick, any in-flight background sweep
        is joined *here* -- at the exact program point where
        :meth:`run_for_checkpoint` used to join it inline, so the meter
        trace is unchanged -- and its full-image verdict is stashed for
        the :meth:`run_for_checkpoint` call that follows the tick.
        """
        if self._sweep is None:
            return
        report = self.join_background_sweep()
        assert report is not None
        self._dirty_audits_since_sweep = 0
        maintainer = self._maintainer()
        if report.clean and maintainer is not None:
            maintainer.clear_dirty()
        self._pending_checkpoint_report = report

    def run_for_checkpoint(self, force_full: bool = False) -> AuditReport:
        """The certification audit a checkpoint runs.

        Full by default (the paper's "every region of the database is
        audited"); under ``audit_mode="incremental"`` it is a dirty-region
        pass on the configured full-sweep cadence -- a documented
        weakening of certification, bounded by ``full_sweep_every``.
        ``force_full`` restores the unconditional full audit (used by the
        checkpoint that ends corruption recovery, which must certify the
        whole image).

        An in-flight background sweep is joined instead: the join checks
        every region of the image (never skipping quarantine --
        certification must see everything), so it satisfies even
        ``force_full``.
        """
        report = self._pending_checkpoint_report
        if report is not None:
            # The scheduler's "checkpoint" tick already performed the
            # certification join; deliver its verdict.
            self._pending_checkpoint_report = None
            return report
        if self.audit_mode == "incremental" and not force_full:
            return self.run_dirty()
        return self.run()

    def run_incremental(self, batch: int) -> AuditReport:
        """Audit the next ``batch`` regions of a round-robin sweep.

        Real deployments amortize audit cost by checking a slice of the
        database per call instead of everything at once.  ``Audit_SN``
        semantics are preserved conservatively: ``last_clean_audit_lsn``
        only advances when a *full* sweep completes without finding
        corruption, and it advances to the LSN at which that sweep
        *started* (corruption anywhere could have occurred any time after
        the sweep began).

        Schemes without a codeword table complete a trivially clean sweep.
        """
        table = self.scheme.codeword_table
        if table is None or table.region_count == 0:
            return self.run(region_ids=[])
        if batch <= 0:
            raise ValueError(f"batch must be positive: {batch}")
        if self._sweep_begin_lsn is None:
            # A sweep starts at the *current* end of log.
            self._sweep_begin_lsn = self.system_log.next_lsn
        start = self._cursor
        end = min(start + batch, table.region_count)
        report = self.run(
            region_ids=range(start, end), flush=False, advance_audit_sn=False
        )
        if not report.clean:
            # Restart the sweep; Audit_SN stays at the last clean point.
            self._cursor = 0
            self._sweep_begin_lsn = None
            self.system_log.flush()
            return report
        if end >= table.region_count:
            # Sweep complete and clean: Audit_SN moves to its start.
            self.last_clean_audit_lsn = max(
                self.last_clean_audit_lsn, self._sweep_begin_lsn
            )
            self._cursor = 0
            self._sweep_begin_lsn = None
            self.system_log.flush()
        else:
            self._cursor = end
        return report
