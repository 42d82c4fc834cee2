"""The public Database facade.

Wires together every substrate: memory image, protection scheme,
system log, lock manager, transaction manager, tables, auditor and
checkpointer.  This is the API the examples and benchmarks program
against.

Typical use::

    config = DBConfig(dir="/tmp/db", scheme="read_logging")
    db = Database(config)
    db.create_table("account", schema, capacity=100_000, key_field="aid")
    db.start()

    txn = db.begin()
    slot = db.table("account").insert(txn, {"aid": 1, "balance": 100})
    db.commit(txn)

    result = db.checkpoint()      # audited, certified corruption-free
    report = db.audit()           # asynchronous codeword audit
    db.crash_with_corruption(report)   # if report is not clean
    db2, recovery = Database.recover(config)
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field as dc_field
from functools import partial
from operator import add

from repro.core.audit import AuditReport, Auditor
from repro.core.pipeline import ProtectionPipeline
from repro.core.schemes import make_scheme
from repro.errors import (
    ConfigError,
    QuarantinedRegionError,
    ReproError,
    TransactionError,
)
from repro.faults.crashpoints import CrashPointRegistry
from repro.mem.allocator import SlotAllocator
from repro.mem.memory import MemoryImage
from repro.runtime.scheduler import (
    THREADED,
    Scheduler,
    resolve_scheduler_mode,
)
from repro.sim.clock import Meter, VirtualClock
from repro.sim.costs import CostModel, DEFAULT_COSTS
from repro.storage.btree import BTreeIndex
from repro.storage.index import BUCKETS_PER_ENTRY, HashIndex
from repro.storage.schema import Schema
from repro.storage.table import Table
from repro.txn.locks import LockManager
from repro.txn.manager import TransactionManager
from repro.txn.transaction import Transaction
from repro.wal.records import LogicalUndo
from repro.wal.system_log import SystemLog

CATALOG_FILE = "catalog.json"
LOG_FILE = "system.log"
CORRUPTION_NOTE_FILE = "corruption.note"


@dataclass
class DBConfig:
    """Configuration of a database instance."""

    dir: str
    scheme: str = "baseline"
    scheme_params: dict = dc_field(default_factory=dict)
    page_size: int = 8192
    costs: CostModel = DEFAULT_COSTS
    record_history: bool = False
    #: Group commit: one stable-log latch/flush pair covers up to this
    #: many commits.  1 (the default) is the paper's flush-per-commit
    #: discipline, meter-identical to pre-group-commit behaviour; with
    #: N > 1 a crash can lose the last N-1 reported commits (restart
    #: recovery rolls them back like commits torn mid-flush).
    group_commit_size: int = 1
    #: The routine audit cadence (``Database.audit()``, checkpoint
    #: certification, a replica's audit tick): 1 folds every region on
    #: every audit (the paper's checkpoint audit); K > 1 folds only
    #: regions dirtied through the prescribed interface since they were
    #: last verified, with every K-th audit a full sweep.  A wild write is
    #: precisely a write that does NOT mark the dirty set, so K bounds its
    #: detection latency -- it is a correctness knob, not a tuning knob.
    full_sweep_every: int = 1
    #: Run the full sweep's fold (K > 1 only) as background work (numpy
    #: releases the GIL during the fold), so it overlaps the mutator
    #: instead of stalling it.  The sweep started at one full-sweep
    #: cadence point joins at the next (or at the next checkpoint,
    #: whichever comes first); regions dirtied while it ran are re-checked
    #: synchronously at join, and ``Audit_SN`` advances only to the
    #: sweep's *begin* LSN -- the same rule as every whole-image sweep.
    background_sweeps: bool = False
    #: Segment storage: ``"heap"`` (default) keeps segments in bytearrays;
    #: ``"mmap"`` maps each segment onto a sparse file under ``image_path``
    #: (default ``<dir>/image``), so databases larger than RAM work.  The
    #: backing file models volatile memory -- it is recreated zeroed on
    #: every (re)start and recovery loads state from the checkpoint, never
    #: from the backing file.
    image_backing: str = "heap"
    image_path: str | None = None
    #: Corrupt-region quarantine (graceful degradation): a failed audit or
    #: precheck records the corrupt regions in the maintainer's quarantine
    #: set instead of requiring an immediate crash; later prescribed reads
    #: overlapping a quarantined region raise
    #: :class:`~repro.errors.QuarantinedRegionError`, and routine audits
    #: skip-and-report quarantined regions rather than re-failing on them.
    #: Checkpoint *certification* never skips -- an image with known-bad
    #: bytes must not certify.  Requires a codeword scheme.
    quarantine: bool = False
    #: With repair enabled (implies ``quarantine``), a read overlapping a
    #: quarantined region transparently repairs it first -- checkpoint
    #: image + overlapping log records, the Section 4.1/4.2 cache-recovery
    #: machinery -- and then proceeds instead of raising.
    quarantine_repair: bool = False
    #: Task scheduler mode (see :mod:`repro.runtime.scheduler`).
    #: ``"auto"`` keeps pre-scheduler behaviour: ``"threaded"`` iff
    #: ``background_sweeps`` is on, ``"deterministic"`` otherwise.
    #: Deterministic mode runs every scheduled task inline at its trigger
    #: point (meter-identical to the historical inline code, property-
    #: tested); threaded mode backs background folds with worker threads
    #: and is what the serving front-end (:mod:`repro.serve`) requires.
    scheduler_mode: str = "auto"


@dataclass
class _TableDef:
    name: str
    schema: Schema
    capacity: int
    key_field: str | None
    indexed: bool
    index_type: str = "hash"


class Database:
    """A main-memory database with pluggable corruption protection."""

    def __init__(
        self, config: DBConfig, crashpoints: CrashPointRegistry | None = None
    ) -> None:
        self.config = config
        #: Deterministic fault hooks at every durability boundary; inert
        #: unless a test or campaign arms a point.  Shared with the system
        #: log, checkpointer and recovery.
        self.crashpoints = crashpoints if crashpoints is not None else CrashPointRegistry()
        if config.group_commit_size < 1:
            raise ConfigError(
                f"group_commit_size must be >= 1: {config.group_commit_size}"
            )
        if config.full_sweep_every < 1:
            raise ConfigError(
                f"full_sweep_every must be >= 1: {config.full_sweep_every}"
            )
        if config.background_sweeps and config.full_sweep_every == 1:
            raise ConfigError(
                "background_sweeps only makes sense with full_sweep_every > 1 "
                "(it offloads the periodic full sweep of dirty-region audits)"
            )
        # Validate eagerly (ConfigError at construction, like every other
        # knob); the scheduler itself is built per log/manager epoch.
        # Note background_sweeps under an explicit "deterministic" mode is
        # legal: the sweep fold defers and runs inline at its join point,
        # same verdict and same meter charges, no threads.
        self._scheduler_mode = resolve_scheduler_mode(
            config.scheduler_mode, config.background_sweeps
        )
        os.makedirs(config.dir, exist_ok=True)
        self.clock = VirtualClock()
        self.meter = Meter(self.clock, config.costs)
        # Compiled counters for the per-record events Table charges.
        self.charge_record_read = self.meter.counter("record_read")
        self.charge_record_write = self.meter.counter("record_write")
        self.charge_index_update = self.meter.counter("index_update")
        self.charge_index_probe = self.meter.counter("index_probe")
        backing_dir = None
        if config.image_backing == "mmap":
            backing_dir = config.image_path or os.path.join(config.dir, "image")
        self.memory = MemoryImage(
            page_size=config.page_size,
            backing=config.image_backing,
            backing_dir=backing_dir,
        )
        # Every config -- single scheme or "+"-stacked -- is one
        # ProtectionPipeline; the manager, auditor and recovery layers
        # dispatch to the pipeline object only.
        self.pipeline: ProtectionPipeline = make_scheme(
            config.scheme, **dict(config.scheme_params)
        )
        self.quarantine_enabled = bool(config.quarantine or config.quarantine_repair)
        if self.quarantine_enabled:
            if self.pipeline.maintainer is None:
                raise ConfigError(
                    "quarantine needs a codeword scheme: without a codeword "
                    "table there are no protection regions to quarantine"
                )
            self.pipeline.maintainer.quarantine_on_detect = True
        self.locks = LockManager()
        self.system_log: SystemLog | None = None
        self.manager: TransactionManager | None = None
        self.auditor: Auditor | None = None
        self.scheduler: Scheduler | None = None
        self.checkpointer = None  # set in start()/recover()
        self.tables: dict[str, Table] = {}
        self._table_defs: list[_TableDef] = []
        self._started = False
        self._crashed = False
        self._closed = False
        self.history = None
        if config.record_history:
            from repro.recovery.history import HistoryRecorder

            self.history = HistoryRecorder()
        self.stats = {"reads": 0, "writes": 0}

    # ------------------------------------------------------------ setup

    def create_table(
        self,
        name: str,
        schema: Schema,
        capacity: int,
        key_field: str | None = None,
        indexed: bool = True,
        index_type: str = "hash",
    ) -> None:
        """Define a table; call before :meth:`start`.

        ``index_type`` selects the in-image primary index: ``"hash"``
        (chained hash, point lookups) or ``"btree"`` (B+tree, point
        lookups plus ordered :meth:`Table.range` scans).
        """
        if self._started:
            raise ConfigError("create_table must be called before start()")
        if any(d.name == name for d in self._table_defs):
            raise ConfigError(f"table {name!r} already defined")
        if indexed and key_field is None:
            raise ConfigError(f"indexed table {name!r} needs a key_field")
        if index_type not in ("hash", "btree"):
            raise ConfigError(f"index_type must be 'hash' or 'btree': {index_type!r}")
        self._table_defs.append(
            _TableDef(name, schema, capacity, key_field, indexed, index_type)
        )

    def start(self) -> None:
        """Lay out memory, format on-image structures, take checkpoint 0."""
        self._require_not_started()
        self._build_layout()
        self._write_catalog()
        self._open_log_and_manager()
        self.pipeline.startup()
        self._format_structures()
        # Everything is dirty with respect to both checkpoint images.
        self.memory.dirty_pages.mark_all_dirty(self.memory.iter_pages())
        result = self.checkpointer.checkpoint()
        if not result.certified:  # pragma: no cover - fresh image is clean
            raise ReproError("initial checkpoint failed certification")
        self._started = True

    @classmethod
    def recover(
        cls,
        config: DBConfig,
        crashpoints: CrashPointRegistry | None = None,
        in_doubt_resolver=None,
    ):
        """Recover a database from its directory after a crash.

        Returns ``(database, recovery_report)``.  If a corruption note is
        present (a failed audit crashed the system), or the scheme logs
        read checksums (Section 4.3 says to run corruption recovery on
        every restart in that case), delete-transaction recovery runs;
        otherwise normal Dali restart recovery does.

        ``crashpoints`` (optional) arms deterministic crash points for the
        run; if one fires the caller can simply ``recover`` again --
        recovery is idempotent across every registered crash point.

        ``in_doubt_resolver`` (optional) is a ``gid -> bool`` callable
        consulted for prepared 2PC branches found on the log (the shard
        router passes its durable decision log); absent or unknown gids
        are presumed aborted.
        """
        from repro.recovery.restart import load_corruption_note

        db = cls._open_shell(config, crashpoints)
        report = db._run_recovery(load_corruption_note(db), in_doubt_resolver)
        return db, report

    @classmethod
    def _open_shell(
        cls, config: DBConfig, crashpoints: CrashPointRegistry | None = None
    ) -> "Database":
        """A database rebuilt from its directory -- catalog, layout, log
        opened for append -- with nothing replayed yet: what every recovery
        door (restart, archive, delete-transaction, prior-state, replica)
        starts from."""
        db = cls(config, crashpoints=crashpoints)
        db._load_catalog()
        db._build_layout()
        db._open_log_and_manager()
        return db

    def _run_recovery(self, corruption, in_doubt_resolver=None, until_lsn=None):
        """Run restart recovery on this shell and open it for business.

        If recovery raises -- an armed crash point fires, or the log is
        malformed -- the half-recovered shell is crashed (its log handle
        closed) before the exception propagates.
        """
        from repro.recovery.restart import RestartRecovery

        recovery = RestartRecovery(self, corruption, in_doubt_resolver)
        try:
            report = recovery.run(until_lsn=until_lsn)
        except BaseException:
            self.crash()
            raise
        self._started = True
        return report

    def _require_not_started(self) -> None:
        if self._started:
            raise ConfigError("database already started")

    def _build_layout(self) -> None:
        """Create segments, allocators and indexes from the table defs."""
        for table_def in self._table_defs:
            name = table_def.name
            record_size = table_def.schema.record_size
            data_seg = self.memory.add_segment(
                f"{name}.data", table_def.capacity * record_size, kind="data"
            )
            allocator = SlotAllocator(
                control_base=0,  # patched below once the segment exists
                data_base=data_seg.base,
                slot_count=table_def.capacity,
                slot_size=record_size,
            )
            ctl_seg = self.memory.add_segment(
                f"{name}.ctl", allocator.control_size, kind="control"
            )
            allocator = SlotAllocator(
                control_base=ctl_seg.base,
                data_base=data_seg.base,
                slot_count=table_def.capacity,
                slot_size=record_size,
            )
            index = None
            if table_def.indexed and table_def.index_type == "btree":
                nodes = BTreeIndex.nodes_for_entries(table_def.capacity)
                idx_seg = self.memory.add_segment(
                    f"{name}.idx", BTreeIndex.size_for(nodes), kind="data"
                )
                index = BTreeIndex(idx_seg.base, nodes)
            elif table_def.indexed:
                buckets = max(16, int(table_def.capacity * BUCKETS_PER_ENTRY))
                idx_size = HashIndex.size_for(buckets, table_def.capacity)
                idx_seg = self.memory.add_segment(f"{name}.idx", idx_size, kind="data")
                index = HashIndex(idx_seg.base, buckets, table_def.capacity)
            self.tables[name] = Table(
                db=self,
                name=name,
                schema=table_def.schema,
                capacity=table_def.capacity,
                key_field=table_def.key_field,
                allocator=allocator,
                index=index,
            )
        self.pipeline.attach(self.memory, self.meter)

    def _open_log_and_manager(self) -> None:
        from repro.recovery.checkpoint import Checkpointer

        self.scheduler = Scheduler(self._scheduler_mode)
        if self._scheduler_mode == THREADED:
            # Worker threads and serving sessions share this meter; the
            # lock keeps counts exact without touching the cost model.
            self.meter.enable_thread_safety()
        self.system_log = SystemLog(
            os.path.join(self.config.dir, LOG_FILE),
            self.meter,
            crashpoints=self.crashpoints,
        )
        self.manager = TransactionManager(
            self.memory,
            self.system_log,
            self.locks,
            self.pipeline,
            self.meter,
            group_commit_size=self.config.group_commit_size,
            scheduler=self.scheduler,
        )
        self.manager.undo_executor = self._dispatch_logical_undo
        if self.quarantine_enabled:
            self.manager.quarantine_guard = self._quarantine_guard
        self.auditor = Auditor(
            self.system_log,
            self.pipeline,
            full_sweep_every=self.config.full_sweep_every,
            background=self.config.background_sweeps,
            scheduler=self.scheduler,
        )
        self.checkpointer = Checkpointer(self)
        # The one drain order for shutdown/crash (paired with the log
        # close/crash in :meth:`close` / :meth:`crash`): make held-back
        # commits durable (clean shutdown only -- a crash loses the
        # window, restart recovery rolls those commits back), then settle
        # any in-flight sweep fold (and a standby's scratch audit log).
        self.scheduler.add_drain_step(
            "group_commit.flush", on_close=self.manager.flush_commits
        )
        self.scheduler.add_drain_step(
            "audit.sweeps", on_close=self.auditor.close, on_crash=self.auditor.close
        )

    def _format_structures(self) -> None:
        txn = self.manager.begin()
        for table in self.tables.values():
            self.manager.begin_operation(txn, f"{table.name}:format")
            ctx = table._ctx(txn)
            table.allocator.format(ctx)
            if table.index is not None:
                table.index.format(ctx)
            ctx.flush()
            self.manager.commit_operation(txn, LogicalUndo("noop"))
        self.manager.commit(txn)

    # ---------------------------------------------------------- catalog

    def _write_catalog(self) -> None:
        catalog = {
            "page_size": self.config.page_size,
            "tables": [
                {
                    "name": d.name,
                    "schema": d.schema.to_dict(),
                    "capacity": d.capacity,
                    "key_field": d.key_field,
                    "indexed": d.indexed,
                    "index_type": d.index_type,
                }
                for d in self._table_defs
            ],
        }
        path = os.path.join(self.config.dir, CATALOG_FILE)
        tmp = path + ".tmp"
        with open(tmp, "w") as handle:
            json.dump(catalog, handle, indent=2)
        os.replace(tmp, path)

    def _load_catalog(self) -> None:
        path = os.path.join(self.config.dir, CATALOG_FILE)
        if not os.path.exists(path):
            raise ConfigError(f"no catalog at {path}; nothing to recover")
        with open(path) as handle:
            catalog = json.load(handle)
        if catalog["page_size"] != self.config.page_size:
            raise ConfigError(
                f"page size mismatch: catalog {catalog['page_size']}, "
                f"config {self.config.page_size}"
            )
        for entry in catalog["tables"]:
            self._table_defs.append(
                _TableDef(
                    name=entry["name"],
                    schema=Schema.from_dict(entry["schema"]),
                    capacity=entry["capacity"],
                    key_field=entry["key_field"],
                    indexed=entry["indexed"],
                    index_type=entry.get("index_type", "hash"),
                )
            )

    # ------------------------------------------------------ transactions

    def begin(self) -> Transaction:
        self._require_usable()
        return self.manager.begin()

    def commit(self, txn: Transaction) -> None:
        self._require_usable()
        self.manager.commit(txn)
        if self.history is not None:
            self.history.on_commit(txn.txn_id)

    def abort(self, txn: Transaction) -> None:
        self._require_usable()
        self.manager.abort(txn)
        if self.history is not None:
            self.history.on_abort(txn.txn_id)

    def prepare(self, txn: Transaction, gid: str) -> None:
        """Vote yes on a 2PC branch (phase one); see
        :meth:`TransactionManager.prepare`."""
        self._require_usable()
        self.manager.prepare(txn, gid)

    def commit_prepared(self, txn: Transaction) -> None:
        self._require_usable()
        self.manager.commit_prepared(txn)
        if self.history is not None:
            self.history.on_commit(txn.txn_id)

    def abort_prepared(self, txn: Transaction) -> None:
        self._require_usable()
        self.manager.abort_prepared(txn)
        if self.history is not None:
            self.history.on_abort(txn.txn_id)

    def table(self, name: str) -> Table:
        try:
            return self.tables[name]
        except KeyError:
            raise ConfigError(f"no table named {name!r}") from None

    def apply(self, txn: Transaction, op: str, table: str, *args):
        """Run one data op ``(op, table, *args)``: ``args`` are the op's
        ``repro.serve.protocol.DATA_OPS`` fields after ``table``, in order.

        The only place op names meet :class:`Table` calls: a local
        session, a shard's ``apply`` command and its whole-transaction
        ``txn`` / ``txn_prepare`` commands all land here.
        """
        target = self.table(table)
        if op == "insert":
            return target.insert(txn, *args)
        if op == "read":
            return target.read(txn, *args)
        if op == "update":
            slot, values = args
            target.update(txn, slot, values)
            return slot
        if op == "delete":
            (slot,) = args
            target.delete(txn, slot)
            return slot
        if op == "lookup":
            return target.lookup(txn, *args)
        if op == "query":  # index lookup + record read, the TPC-B point read
            slot = target.lookup(txn, *args)
            return None if slot is None else target.read(txn, slot)
        if op == "add":  # keyed read-modify-write, the TPC-B balance update
            key, deltas = args
            slot = target.lookup(txn, key)
            if slot is None:
                raise ConfigError(f"{table} key {key} not found")
            target.update(
                txn, slot, {name: partial(add, delta) for name, delta in deltas.items()}
            )
            return slot
        raise ConfigError(f"unknown data op {op!r}")

    # ------------------------------------------- maintenance operations

    def checkpoint(self):
        """Take an audited ping-pong checkpoint; returns its result."""
        self._require_usable()
        return self.checkpointer.checkpoint()

    def audit(self, region_ids=None) -> AuditReport:
        """Run a codeword audit (no-op clean under baseline/hardware).

        With no explicit region list this is the routine audit on the
        ``full_sweep_every`` cadence (see :meth:`Auditor.run_routine`).

        Under quarantine, already-quarantined regions are skipped and
        reported (``report.quarantined_regions``) rather than re-failed,
        and any *newly* corrupt regions the audit finds are quarantined --
        the audit degrades the affected regions instead of forcing the
        whole system down.  Checkpoint certification never skips.
        """
        self._require_usable()
        skip = self.quarantine_enabled
        if region_ids is None:
            report = self.auditor.run_routine(skip_quarantined=skip)
        else:
            report = self.auditor.run(region_ids, skip_quarantined=skip)
        if skip and not report.clean:
            self.pipeline.maintainer.quarantine(report.corrupt_regions)
        return report

    def quarantined_regions(self) -> tuple[int, ...]:
        """Sorted ids of regions currently held in quarantine."""
        maintainer = self.pipeline.maintainer
        if maintainer is None:
            return ()
        return tuple(sorted(maintainer.quarantined))

    def repair_quarantined(self) -> int:
        """Repair every quarantined region from checkpoint + log.

        Runs the Section 4.1/4.2 cache-recovery machinery over the
        quarantine set and returns the number of regions repaired
        (repaired regions leave quarantine).
        """
        self._require_usable()
        regions = list(self.quarantined_regions())
        if not regions:
            return 0
        from repro.recovery.cache_recovery import repair_regions

        return repair_regions(self, regions)

    def _quarantine_guard(self, txn, address: int, length: int) -> None:
        """Reject or repair reads overlapping quarantined regions.

        Installed on the transaction manager when quarantine is enabled.
        A read that touches a quarantined region either raises
        :class:`QuarantinedRegionError` (default) or -- under
        ``quarantine_repair`` -- transparently repairs the regions from
        checkpoint + log and lets the read proceed against clean bytes.
        """
        regions = self.pipeline.maintainer.quarantined_overlapping(address, length)
        if not regions:
            return
        if self.config.quarantine_repair:
            from repro.recovery.cache_recovery import repair_regions

            repair_regions(self, regions)
            return
        raise QuarantinedRegionError(regions, address=address, length=length)

    def report(self) -> dict:
        """Structured status snapshot (see :mod:`repro.storage.report`)."""
        from repro.storage.report import status_report

        self._require_usable()
        return status_report(self)

    def status(self) -> str:
        """Human-readable status text."""
        from repro.storage.report import render_status

        self._require_usable()
        return render_status(self)

    def truncate_log(self, keep_from_lsn: int | None = None) -> int:
        """Reclaim stable log space below the anchored checkpoint.

        Restart recovery never reads below the anchor's ``CK_end``, so
        those records are dead weight -- unless archives exist: replaying
        an archive needs the log from *its* ``CK_end`` onward.  Pass the
        oldest archive's ``ck_end`` as ``keep_from_lsn`` to stay safe, or
        leave the default if no archives are kept.  Returns the number of
        records removed.
        """
        self._require_usable()
        cutoff = self.checkpointer.anchored_ck_end()
        if keep_from_lsn is not None:
            cutoff = min(cutoff, keep_from_lsn)
        return self.system_log.truncate_before(cutoff)

    def crash(self) -> None:
        """Simulate a process crash: volatile state is gone.

        The scheduler drains on its crash path (the group-commit window
        is *lost*, not flushed; in-flight sweep folds are settled and
        discarded), then the log tail is dropped and volatile transaction
        state cleared.  Idempotent.
        """
        if self._crashed:
            return
        if self.scheduler is not None:
            self.scheduler.shutdown(crash=True)
        if self.system_log is not None:
            self.system_log.crash()
        self.locks.clear()
        if self.manager is not None:
            self.manager.att.clear()
        self.memory.close()
        self._crashed = True

    def crash_with_corruption(self, report: AuditReport) -> None:
        """Record a failed audit in a corruption note, then crash.

        "On detecting an error, we simply note the region(s) failing the
        audit, and cause the database to crash, allowing corruption
        recovery to be handled as part of the subsequent restart
        recovery." (Section 4.3)
        """
        if report.clean:
            raise ConfigError("refusing to note corruption for a clean audit")
        note = {
            "corrupt_ranges": [list(r) for r in report.corrupt_byte_ranges],
            "audit_sn": self.auditor.last_clean_audit_lsn,
            "region_size": report.region_size,
        }
        path = os.path.join(self.config.dir, CORRUPTION_NOTE_FILE)
        tmp = path + ".tmp"
        with open(tmp, "w") as handle:
            json.dump(note, handle)
        os.replace(tmp, path)
        self.crash()

    def close(self) -> None:
        """Clean shutdown with one fixed drain order; idempotent.

        The scheduler's close drain runs its registered steps in order --
        flush the group-commit window (held-back commits become durable),
        then settle any in-flight sweep fold -- and only then does the
        log close.  A second ``close()``, or a ``close()`` after
        ``crash()``, is a no-op.
        """
        if self._closed:
            return
        self._closed = True
        if self._crashed:
            return
        if self.scheduler is not None:
            self.scheduler.shutdown(crash=False)
        if self.system_log is not None:
            self.system_log.close()
        self.memory.close()
        self._crashed = True

    def _require_usable(self) -> None:
        if self._crashed:
            raise TransactionError("database has crashed; recover() it first")
        if self.manager is None:
            raise ConfigError("database not started")

    # -------------------------------------------------- logical undo ops

    def _dispatch_logical_undo(
        self, txn: Transaction, undo: LogicalUndo, lenient: bool = False
    ) -> None:
        """Execute a logical undo description from an op-commit record.

        ``lenient`` makes compensation idempotent for recovery paths: if
        the inverse operation's precondition no longer holds (the slot is
        already free / already occupied), the compensation was evidently
        applied by an earlier, logged recovery transaction, and is
        skipped.  Normal-processing rollback stays strict -- there a
        violated precondition is a bug, not a replay artifact.
        """
        ctx_txn = txn
        if undo.op_name == "undo_insert":
            table_name, slot = undo.args
            table = self.table(table_name)
            if lenient and not table.allocator.is_allocated(
                table._ctx(ctx_txn), slot
            ):
                return
            table.delete(txn, slot)
        elif undo.op_name == "undo_delete":
            table_name, slot, record = undo.args
            table = self.table(table_name)
            if lenient and table.allocator.is_allocated(table._ctx(ctx_txn), slot):
                return
            table.insert_at(txn, slot, record)
        elif undo.op_name == "undo_update":
            table_name, slot, *pairs = undo.args
            offsets = pairs[0::2]
            images = pairs[1::2]
            self.table(table_name).write_fields(
                txn, slot, list(zip(offsets, images))
            )
        else:
            raise TransactionError(f"unknown logical undo {undo.op_name!r}")

    # ----------------------------------------------------------- history

    def note_read(self, txn: Transaction, table: str, slot: int, value: bytes) -> None:
        self.stats["reads"] += 1
        if self.history is not None:
            self.history.on_read(txn.txn_id, table, slot, value)

    def note_write(
        self, txn: Transaction, table: str, slot: int, value: bytes | None
    ) -> None:
        self.stats["writes"] += 1
        if self.history is not None:
            self.history.on_write(txn.txn_id, table, slot, value)

    # ------------------------------------------------------------ paths

    def path(self, filename: str) -> str:
        return os.path.join(self.config.dir, filename)
