"""The audit engine: asynchronous codeword consistency checks.

"The process of auditing is nothing more than an asynchronous check of
consistency between the contents of a protection region and the codeword
for that region." (Section 3.2)

Every audit policy -- an inline full or partial run, a dirty-region
pass, a background sweep, a round-robin slice -- goes through one
bracket: :meth:`Auditor._open` allocates the audit id and appends
AUDIT_BEGIN, :meth:`Auditor._close` appends AUDIT_END, flushes, counts
the verdict and applies the one ``Audit_SN`` rule.  ``Audit_SN``
(Section 4.3) is where the last clean whole-image sweep began:
corruption recovery conservatively assumes the error occurred
immediately after it.  It always lives in the data log's LSN space,
even on a standby whose brackets go to a private scratch log.  When an
audit fails, the corrupt region list is recorded in the AUDIT_END record
(and by the database in a side-file "corruption note") so the subsequent
restart can seed its CorruptDataTable.

The routine policy has one knob, ``full_sweep_every``: 1 makes every
routine audit a full sweep (the paper's checkpoint audit); K > 1 makes
routine audits dirty-region passes with every K-th one a full sweep.
With ``background`` on, that full sweep's fold runs as scheduler work
(:meth:`~repro.runtime.scheduler.Scheduler.spawn`): ``fold_all`` is one
GIL-releasing numpy reduction, so under a threaded scheduler it overlaps
the mutator -- validate beside the mutator, not on its critical path
(the Sandboxing-STM observation).  Under a deterministic scheduler the
fold defers and runs inline at join.  Either way the verdict, the log
records and the meter charges are the inline sweep's: only the fold is
background work, and regions the mutator touched while it raced memory
are re-checked on the joining thread.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.core.pipeline import ProtectionPipeline
from repro.runtime.scheduler import TaskHandle
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


class _Sweep(NamedTuple):
    """An in-flight background sweep: its open bracket and its fold."""

    audit_id: int
    begin_lsn: int
    handle: TaskHandle


class Auditor:
    """Runs audits for a protection pipeline and tracks ``Audit_SN``."""

    def __init__(
        self,
        system_log: SystemLog,
        scheme: ProtectionPipeline,
        *,
        full_sweep_every: int = 1,
        background: bool = False,
        scheduler,
    ) -> None:
        #: The data log: ``Audit_SN`` is an LSN of this log, and audit
        #: brackets go here unless :meth:`use_scratch_log` redirects them.
        self.system_log = system_log
        self._scratch_log: SystemLog | None = None
        self.scheme = scheme
        #: The database's task scheduler (``repro.runtime``).  Background
        #: sweep folds are spawned through it so the shutdown/crash drain
        #: settles them.
        self.scheduler = scheduler
        self._next_audit_id = 1
        #: LSN at which the last clean whole-image sweep began (Audit_SN);
        #: recovery conservatively treats everything after it as suspect.
        self.last_clean_audit_lsn = 0
        self.audits_run = 0
        self.failures = 0
        # Round-robin state: next region of the cursor and the begin LSN
        # of the sweep the cursor is walking.
        self._cursor = 0
        self._round_robin_begin = 0
        #: Routine cadence (see :meth:`run_routine`).
        self.full_sweep_every = max(1, full_sweep_every)
        self._dirty_audits_since_sweep = 0
        #: Run the routine full sweep's fold as background work (see
        #: :meth:`start_background_sweep`); needs ``full_sweep_every > 1``.
        self.background = background
        self._sweep: _Sweep | None = None
        #: Digest listeners: ``fn(ck_end, digests)`` callables invoked
        #: when a certified checkpoint publishes its per-region codeword
        #: digests (replication's divergence channel -- see
        #: :meth:`publish_digests`).
        self.digest_listeners: list = []
        self.digests_published = 0

    # ------------------------------------------------------- bracket logs

    def use_scratch_log(self, path: str) -> None:
        """Bracket audits in a private log at ``path`` (a standby).

        A standby's replicated log must stay a byte-identical prefix of
        the primary's, so AUDIT_BEGIN/END records must not burn its LSNs.
        ``Audit_SN`` still lives in the data log's LSN space: an audit
        begins at the data log's next LSN, so prior-state recovery on a
        promoted standby cuts off where the primary's would.
        """
        self._scratch_log = SystemLog(path, self.system_log.meter)

    def use_data_log(self) -> None:
        """Bracket audits in the data log again (promotion); closes the
        scratch log."""
        if self._scratch_log is not None:
            self._scratch_log.close()
            self._scratch_log = None

    def close(self) -> None:
        """Shutdown and crash drain step: settle any in-flight sweep
        without a verdict and close a scratch log (never read back, so
        its unflushed tail is dropped either way)."""
        self.abandon_background_sweep()
        self.use_data_log()

    # ------------------------------------------------------------ bracket

    def _open(self) -> tuple[int, int]:
        """Allocate an audit id and append AUDIT_BEGIN.

        Returns ``(audit_id, begin)``; ``begin`` is in the data log's LSN
        space (the begin record's own LSN unless brackets go to a scratch
        log).
        """
        audit_id = self._next_audit_id
        self._next_audit_id += 1
        log = self._scratch_log or self.system_log
        lsn = log.append(AuditBeginRecord(audit_id))
        return audit_id, lsn if log is self.system_log else self.system_log.next_lsn

    def _close(
        self,
        audit_id: int,
        begin: int,
        corrupt: tuple[int, ...],
        audited: list[int] | None,
        quarantined: tuple[int, ...] = (),
        *,
        flush: bool = True,
        sweep_begin: int | None = None,
    ) -> AuditReport:
        """Append AUDIT_END, count the verdict and build the report.

        ``audited`` lists the region ids folded (None: every region).
        ``sweep_begin`` is where the whole-image sweep this verdict
        completes began, None when it covered only part of the image.
        The one ``Audit_SN`` rule: a clean, non-degraded whole-image
        verdict advances ``Audit_SN`` to ``max(Audit_SN, sweep_begin)``.
        """
        table = self.scheme.codeword_table
        region_size = region_count = image_size = 0
        ranges: tuple[tuple[int, int], ...] = ()
        if table is not None:
            region_size, region_count = table.region_size, table.region_count
            image_size = table.memory.size
            ranges = tuple(table.region_bounds(r) for r in corrupt)
        log = self._scratch_log or self.system_log
        log.append(
            AuditEndRecord(
                audit_id,
                clean=not corrupt,
                corrupt_regions=corrupt,
                region_size=region_size,
            )
        )
        if flush:
            log.flush()
        self.audits_run += 1
        if corrupt:
            self.failures += 1
        elif sweep_begin is not None and not quarantined:
            self.last_clean_audit_lsn = max(self.last_clean_audit_lsn, sweep_begin)
        return AuditReport(
            audit_id=audit_id,
            begin_lsn=begin,
            clean=not corrupt,
            corrupt_regions=corrupt,
            region_size=region_size,
            regions_checked=region_count if audited is None else len(audited),
            corrupt_ranges=ranges,
            image_size=image_size,
            quarantined_regions=quarantined,
        )

    def _exclude_quarantined(
        self, region_ids, skip: bool
    ) -> tuple[list[int] | None, tuple[int, ...]]:
        """The skip-and-report rule: ``(ids to audit, quarantined ids skipped)``.

        ``ids`` is None for "every region" when nothing is skipped.
        Quarantined regions are known-corrupt; re-failing an audit on
        their account would mask *new* corruption elsewhere.
        """
        if region_ids is not None:
            region_ids = list(region_ids)
        maintainer = self.scheme.maintainer
        if not skip or maintainer is None or not maintainer.quarantined:
            return region_ids, ()
        qset = set(maintainer.quarantined)
        if region_ids is None:
            count = maintainer.table.region_count
            return [r for r in range(count) if r not in qset], tuple(sorted(qset))
        skipped = tuple(sorted(qset.intersection(region_ids)))
        return [r for r in region_ids if r not in qset], skipped

    # ------------------------------------------------- digest publication

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

    # ------------------------------------------------------------ policies

    def run(self, region_ids=None, skip_quarantined: bool = False) -> AuditReport:
        """Audit the given regions (default: all); returns a report.

        The report is informational -- deciding to crash and enter
        corruption recovery is the database's call, since the right
        response differs between schemes (cache recovery for plain Data
        Codeword, delete-transaction recovery with read logging).

        Only a full run (no ``region_ids``) can advance ``Audit_SN``; a
        degraded one (``skip_quarantined`` skipped regions, reported in
        ``report.quarantined_regions``) certified only part of the image
        and does not.
        """
        audit_id, begin = self._open()
        ids, quarantined = self._exclude_quarantined(region_ids, skip_quarantined)
        corrupt = tuple(self.scheme.audit_regions(ids))
        return self._close(
            audit_id,
            begin,
            corrupt,
            ids,
            quarantined,
            sweep_begin=begin if region_ids is None else None,
        )

    def run_routine(self, skip_quarantined: bool = False) -> AuditReport:
        """The routine audit: ``Database.audit()``, the replica's audit
        tick and checkpoint certification all run this.

        With ``full_sweep_every`` = 1 it is a full :meth:`run`.  With
        K > 1 it folds only the regions dirtied through the prescribed
        interface since they were last verified, so its cost scales with
        the write working set instead of the image size (the Section 5
        audit-at-checkpoint cost, made incremental).  A wild write is by
        definition one that does *not* mark the dirty set, so every K-th
        call is a full sweep -- that cadence bounds wild-write detection
        latency; it is a correctness knob, not a tuning knob.  Only full
        sweeps advance ``Audit_SN``.

        With ``background`` on, the full sweep's fold is launched at one
        cadence point (that call is served by a dirty pass, so the
        mutator never waits for the fold) and joined at the next.
        """
        maintainer = self.scheme.maintainer
        if maintainer is None or self.scheme.codeword_table is None:
            return self.run()
        self._dirty_audits_since_sweep += 1
        if self._dirty_audits_since_sweep >= self.full_sweep_every:
            if self._sweep is not None:
                return self._settle_sweep(skip_quarantined)
            self._dirty_audits_since_sweep = 0
            if not self.background:
                report = self.run(skip_quarantined=skip_quarantined)
                if report.clean:
                    maintainer.clear_dirty()
                return report
            self.start_background_sweep()
        dirty = maintainer.dirty_region_list()
        report = self.run(dirty, skip_quarantined=skip_quarantined)
        if report.clean:
            maintainer.clear_dirty(dirty)
        return report

    def certify(self, force_full: bool = False) -> AuditReport:
        """The certification audit a checkpoint runs.

        An in-flight background sweep is joined: its verdict covers every
        region of the image (never skipping quarantine -- certification
        must see everything), so it satisfies even ``force_full``.
        Otherwise the routine runs -- with K > 1 a documented weakening of
        certification, bounded by ``full_sweep_every`` -- unless
        ``force_full`` asks for the unconditional full audit (the
        checkpoint that ends corruption recovery must certify the whole
        image).
        """
        if self._sweep is not None:
            return self._settle_sweep()
        if force_full:
            return self.run()
        return self.run_routine()

    def _settle_sweep(self, skip_quarantined: bool = False) -> AuditReport:
        """Join the in-flight sweep as the routine's full sweep."""
        self._dirty_audits_since_sweep = 0
        report = self.join_background_sweep(skip_quarantined)
        if report.clean:
            self.scheme.maintainer.clear_dirty()
        return report

    def run_incremental(self, batch: int) -> AuditReport:
        """Audit the next ``batch`` regions of a round-robin sweep.

        Real deployments amortize audit cost by checking a slice of the
        database per call instead of everything at once.  Each slice is
        its own bracket; the slice that finishes a clean sweep advances
        ``Audit_SN`` to where the sweep's *first* slice began (corruption
        anywhere could have occurred any time after the sweep began).  A
        failed slice restarts the sweep.

        Schemes without a codeword table complete a trivially clean sweep.
        """
        table = self.scheme.codeword_table
        if table is None or table.region_count == 0:
            return self.run()
        if batch <= 0:
            raise ValueError(f"batch must be positive: {batch}")
        audit_id, begin = self._open()
        start = self._cursor
        if start == 0:
            self._round_robin_begin = begin
        end = min(start + batch, table.region_count)
        ids = list(range(start, end))
        corrupt = tuple(self.scheme.audit_regions(ids))
        finished = end >= table.region_count
        self._cursor = 0 if corrupt or finished else end
        return self._close(
            audit_id,
            begin,
            corrupt,
            ids,
            flush=bool(corrupt) or finished,
            sweep_begin=self._round_robin_begin if finished else None,
        )

    # ------------------------------------------------- background sweeps

    def start_background_sweep(self) -> bool:
        """Open a full-sweep bracket and spawn its fold; True if started.

        The snapshot/epoch handshake with the maintainer: pending deferred
        deltas are flushed *first*, then :meth:`begin_sweep_tracking`
        records every region whose bytes or stored codeword change while
        the fold races memory -- those are re-checked synchronously at
        :meth:`join_background_sweep`, so a torn fold can never produce a
        false verdict either way.
        """
        maintainer = self.scheme.maintainer
        table = self.scheme.codeword_table
        if maintainer is None or table is None or self._sweep is not None:
            return False
        if maintainer.deferred:
            # Stored codewords must be current before the fold starts so
            # every later change is a tracked touch.
            maintainer.flush_pending()
        audit_id, begin = self._open()
        maintainer.begin_sweep_tracking()
        handle = self.scheduler.spawn(f"audit.sweep.{audit_id}", table.fold_all)
        self._sweep = _Sweep(audit_id, begin, handle)
        return True

    def join_background_sweep(
        self, skip_quarantined: bool = False
    ) -> AuditReport | None:
        """Finish the in-flight sweep and deliver its full-image verdict.

        Charges the meter exactly what the synchronous :meth:`run` charges
        for the same regions -- the off-thread fold is a wall-clock
        optimisation, not a cost-model change.  Regions the mutator
        touched while the fold ran are re-audited synchronously (their
        background folds raced live bytes).
        """
        sweep = self._sweep
        if sweep is None:
            return None
        self._sweep = None
        maintainer = self.scheme.maintainer
        table = self.scheme.codeword_table
        computed = sweep.handle.result()
        self.scheduler.forget(sweep.handle)
        touched = maintainer.end_sweep_tracking()
        ids, quarantined = self._exclude_quarantined(None, skip_quarantined)
        maintainer.charge_checks(ids)
        mismatched = {int(i) for i in np.nonzero(computed != table.stored_words)[0]}
        skipped = set(quarantined)
        recheck = sorted(touched - skipped)
        recheck_corrupt = self.scheme.audit_regions(recheck) if recheck else []
        corrupt = tuple(
            sorted((mismatched - touched - skipped) | set(recheck_corrupt))
        )
        return self._close(
            sweep.audit_id,
            sweep.begin_lsn,
            corrupt,
            ids,
            quarantined,
            sweep_begin=sweep.begin_lsn,
        )

    def abandon_background_sweep(self) -> None:
        """Discard an in-flight sweep without a verdict (crash/close).

        Leaves an unmatched AUDIT_BEGIN in the log -- restart treats an
        audit with no AUDIT_END as never having completed, which is the
        truth.  ``Audit_SN`` and the dirty set are untouched.  A threaded
        fold is waited out and discarded; a deferred one never runs.
        """
        sweep = self._sweep
        if sweep is None:
            return
        self._sweep = None
        maintainer = self.scheme.maintainer
        if maintainer is not None and maintainer.sweep_tracking:
            maintainer.end_sweep_tracking()
        sweep.handle.abandon()
        self.scheduler.forget(sweep.handle)
