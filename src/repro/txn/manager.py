"""The transaction manager: multi-level transactions over the memory image.

This is the paper's *update model* (Section 1): all updates are in place,
and correct updates are ones that use the prescribed interface --
``begin_update``/``end_update`` brackets around every physical write, with
reads going through :meth:`TransactionManager.read`.  Protection schemes
hook these three points; anything that writes memory without them (a wild
write through :meth:`~repro.mem.memory.MemoryImage.poke`) is by definition
an addressing error.

An update window has one shape: a list of pairwise-disjoint ranges opened
once (``begin_updates``; ``begin_update`` is its one-range case), written
through ``write`` and closed by one ``end_update``.  The only thing that
depends on the range count is which scheme hook is told about it.  The
manager never batches on its own -- the storage layer's write-combining
:class:`~repro.storage.table.TxnAccessor` decides what shares a window.

The manager dispatches only to the hook interface, never to a concrete
scheme: since the pipeline refactor the object handed in by ``Database``
is a :class:`~repro.core.pipeline.ProtectionPipeline`, which fans each
hook out across its (possibly stacked) members.

Multi-level structure follows Section 2.1: physical updates (level 0)
happen inside operations (level >= 1) which happen inside transactions.
On operation commit the operation's redo records move from the local redo
log to the system log tail and its physical undo records are replaced by a
logical undo record -- both before its operation-duration locks release.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Callable

from repro.errors import TransactionError
from repro.mem.memory import MemoryImage
from repro.sim.clock import Meter
from repro.txn.locks import LockManager, LockMode
from repro.txn.transaction import (
    ActiveTransactionTable,
    Operation,
    PendingUpdate,
    Transaction,
    TxnStatus,
    WindowRegion,
)
from repro.wal.local_log import LogicalUndoEntry, PhysicalUndo
from repro.wal.records import (
    LogicalUndo,
    OpBeginRecord,
    OpCommitRecord,
    TxnAbortRecord,
    TxnBeginRecord,
    TxnCommitRecord,
    TxnPrepareRecord,
    UpdateRecord,
)
from repro.wal.system_log import SystemLog

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.schemes import ProtectionScheme
    from repro.runtime.scheduler import Scheduler


class TransactionManager:
    """Coordinates transactions, operations, locking, logging and schemes."""

    def __init__(
        self,
        memory: MemoryImage,
        system_log: SystemLog,
        locks: LockManager,
        scheme: "ProtectionScheme",
        meter: Meter,
        group_commit_size: int = 1,
        scheduler: "Scheduler | None" = None,
    ) -> None:
        self.memory = memory
        self.system_log = system_log
        self.locks = locks
        self.scheme = scheme
        self.meter = meter
        #: Group commit (opt-in): one latch/flush pair covers up to this
        #: many committers.  1 keeps the paper's flush-per-commit
        #: behaviour, bit-for-bit and meter-identical.  With N > 1 a
        #: crash can lose the last N-1 *reported* commits -- restart
        #: recovery rolls them back, exactly like commits torn mid-flush.
        self.group_commit_size = max(1, int(group_commit_size))
        self._commits_since_flush = 0
        #: Guards the group-commit window counter.  The flush itself is
        #: serialized by the system log latch; this mutex only keeps the
        #: counter exact when serving sessions commit concurrently.
        self._gc_lock = threading.Lock()
        #: Guards txn/op/seq id assignment and the commit/abort tallies.
        self._id_lock = threading.Lock()
        #: When a scheduler is installed, the group-commit size trigger is
        #: a tick task fired from :meth:`commit` -- the same program point
        #: where the pre-scheduler code flushed inline, so deterministic
        #: mode is meter-identical to the ``scheduler=None`` fallback
        #: (which keeps the historical inline flush for exactly that
        #: property test).
        self.scheduler = scheduler
        if scheduler is not None:
            scheduler.register_tick(
                "group_commit.flush", ("commit",), self._on_commit_tick
            )
        self.att = ActiveTransactionTable()
        # The storage layer installs an executor that interprets logical
        # undo descriptions by running the inverse operation through the
        # normal operation machinery.
        self.undo_executor: Callable[[Transaction, LogicalUndo], None] | None = None
        # The storage layer installs a guard when corrupt-region
        # quarantine is enabled; it vetoes (or repairs ahead of) reads
        # that overlap quarantined regions.
        self.quarantine_guard: Callable[[Transaction, int, int], None] | None = None
        self._next_txn_id = 1
        self._next_op_id = 1
        self._next_seq = 1
        self.committed_count = 0
        self.aborted_count = 0

    # ----------------------------------------------------- transactions

    def begin(self, is_recovery: bool = False) -> Transaction:
        """Start a transaction.  ``is_recovery`` marks compensation
        transactions spawned by restart recovery (see TxnBeginRecord)."""
        with self._id_lock:
            txn_id = self._next_txn_id
            self._next_txn_id += 1
        txn = Transaction(txn_id)
        self.att.add(txn)
        self.system_log.append(TxnBeginRecord(txn.txn_id, is_recovery))
        self.meter.charge("txn_begin")
        return txn

    def commit(self, txn: Transaction) -> None:
        txn.require_active()
        if txn.op_stack:
            raise TransactionError(
                f"transaction {txn.txn_id} still has {len(txn.op_stack)} open "
                "operation(s) at commit"
            )
        if txn.pending_update is not None:
            raise TransactionError(
                f"transaction {txn.txn_id} has an open update window at commit"
            )
        # Reads performed outside any operation are still sitting in the
        # local redo log; migrate them so the audit trail is complete.
        self.system_log.extend(txn.redo_log.take_from(0), charge=False)
        self.system_log.append(TxnCommitRecord(txn.txn_id))
        with self._gc_lock:
            self._commits_since_flush += 1
        if self.scheduler is not None:
            self.scheduler.tick("commit")
        elif self._commits_since_flush >= self.group_commit_size:
            # Scheduler-less fallback: the historical inline flush.  This
            # path is the meter-identity reference the scheduler property
            # tests compare against.
            self.system_log.flush()
            self._commits_since_flush = 0
        self.meter.charge("txn_commit")
        txn.status = TxnStatus.COMMITTED
        self._release_txn_locks(txn)
        self.att.remove(txn.txn_id)
        with self._id_lock:
            self.committed_count += 1

    def abort(self, txn: Transaction) -> None:
        """Roll the transaction back completely (normal processing path)."""
        txn.require_active()
        self._rollback_pending_update(txn)
        while txn.op_stack:
            self.abort_operation(txn)
        # What remains in the undo log are logical undos of committed
        # operations; execute their inverses newest-first.
        entries = list(txn.undo_log.entries)
        txn.undo_log.entries.clear()
        for entry in reversed(entries):
            if not isinstance(entry, LogicalUndoEntry):  # pragma: no cover
                raise TransactionError(
                    "physical undo entry outside any open operation"
                )
            self._execute_logical_undo(txn, entry.undo)
        # The inverse operations appended their own undo entries; the
        # transaction is ending, so they are discarded.
        txn.undo_log.entries.clear()
        self.system_log.append(TxnAbortRecord(txn.txn_id))
        # An abort always flushes (its compensations must be stable), and
        # the flush covers any commits a group-commit window was holding.
        self.system_log.flush()
        with self._gc_lock:
            self._commits_since_flush = 0
        txn.status = TxnStatus.ABORTED
        self._release_txn_locks(txn)
        self.att.remove(txn.txn_id)
        with self._id_lock:
            self.aborted_count += 1

    # ------------------------------------------- two-phase commit branch

    def prepare(self, txn: Transaction, gid: str) -> None:
        """Phase one of presumed-abort 2PC: vote yes and make it stable.

        The branch's redo records migrate to the system log exactly as in
        :meth:`commit`, followed by a :class:`TxnPrepareRecord` carrying
        the global transaction id, and the tail is flushed
        unconditionally -- the prepare vote is a durability promise.  The
        transaction keeps its locks and stays in the ATT with status
        ``PREPARED``; only the coordinator's decision (or restart
        recovery's in-doubt resolution) releases it.
        """
        txn.require_active()
        if txn.op_stack:
            raise TransactionError(
                f"transaction {txn.txn_id} still has {len(txn.op_stack)} open "
                "operation(s) at prepare"
            )
        if txn.pending_update is not None:
            raise TransactionError(
                f"transaction {txn.txn_id} has an open update window at prepare"
            )
        self.system_log.crashpoints.reach("twopc.pre_prepare")
        self.system_log.extend(txn.redo_log.take_from(0), charge=False)
        self.system_log.append(TxnPrepareRecord(txn.txn_id, gid))
        # A prepare always flushes, and the flush covers any commits a
        # group-commit window was holding (they precede it in the log).
        self.system_log.flush()
        with self._gc_lock:
            self._commits_since_flush = 0
        self.meter.charge("txn_prepare")
        txn.gid = gid
        txn.status = TxnStatus.PREPARED
        self.system_log.crashpoints.reach("twopc.after_prepare")

    def commit_prepared(self, txn: Transaction) -> None:
        """Phase two, commit decision: finish a prepared branch."""
        if txn.status is not TxnStatus.PREPARED:
            raise TransactionError(
                f"transaction {txn.txn_id} is {txn.status.value}, not prepared"
            )
        self.system_log.append(TxnCommitRecord(txn.txn_id))
        # The decision is already durable at the coordinator; flushing here
        # just shrinks the in-doubt window the resolver must cover.
        self.system_log.flush()
        with self._gc_lock:
            self._commits_since_flush = 0
        self.meter.charge("txn_commit")
        txn.status = TxnStatus.COMMITTED
        self._release_txn_locks(txn)
        self.att.remove(txn.txn_id)
        with self._id_lock:
            self.committed_count += 1

    def abort_prepared(self, txn: Transaction) -> None:
        """Phase two, abort decision: roll back a prepared branch.

        The branch's undo log is intact (prepare only migrated redo), so
        flipping the status back to ``ACTIVE`` lets the normal
        :meth:`abort` path do the rollback and write the abort record.
        """
        if txn.status is not TxnStatus.PREPARED:
            raise TransactionError(
                f"transaction {txn.txn_id} is {txn.status.value}, not prepared"
            )
        txn.status = TxnStatus.ACTIVE
        self.abort(txn)

    def flush_commits(self) -> None:
        """Make commits held back by a group-commit window durable.

        A no-op (not even a latch) when nothing is pending, so the
        default flush-per-commit configuration never reaches the meter
        through here.
        """
        with self._gc_lock:
            if self._commits_since_flush:
                self.system_log.flush()
                self._commits_since_flush = 0

    def _on_commit_tick(self, _event: str) -> None:
        """Tick task ``group_commit.flush`` -- the size trigger.

        Flushes once the window holds ``group_commit_size`` commits.
        Fired from :meth:`commit` right where the pre-scheduler code
        flushed inline.
        """
        with self._gc_lock:
            if self._commits_since_flush >= self.group_commit_size:
                self.system_log.flush()
                self._commits_since_flush = 0

    def _release_txn_locks(self, txn: Transaction) -> None:
        held = len(self.locks.locks_held(txn.txn_id))
        if held:  # a zero charge would still create the meter's event row
            self.meter.charge("lock_release", held)
        self.locks.release_all(txn.txn_id)

    # ------------------------------------------------------- operations

    def begin_operation(self, txn: Transaction, object_key: str) -> Operation:
        txn.require_active()
        with self._id_lock:
            op_id = self._next_op_id
            self._next_op_id += 1
        op = Operation(
            op_id=op_id,
            level=txn.depth + 1,
            object_key=object_key,
            redo_mark=txn.redo_log.mark(),
            undo_mark=len(txn.undo_log.entries),
        )
        txn.op_stack.append(op)
        self.meter.charge("op_begin")
        return op

    def commit_operation(self, txn: Transaction, logical_undo: LogicalUndo) -> None:
        txn.require_active()
        op = txn.current_op
        if txn.pending_update is not None:
            raise TransactionError(
                f"operation {op.op_id} commits with an open update window"
            )
        # Move redo records to the system log tail bracketed by OpBegin /
        # OpCommit, then replace physical undo with the logical undo --
        # all before lock release.  The OpBegin record is synthesized here
        # rather than at begin_operation so it carries the operation's
        # final object key (an insert only knows its slot after
        # allocation); order in the system log is unchanged since local
        # records only migrate at commit anyway.
        migrated = txn.redo_log.take_from(op.redo_mark)
        self.system_log.append(
            OpBeginRecord(txn.txn_id, op.op_id, op.level, op.object_key)
        )
        self.system_log.extend(migrated, charge=False)
        self.system_log.append(
            OpCommitRecord(txn.txn_id, op.op_id, op.level, op.object_key, logical_undo)
        )
        # Replace the operation's undo entries with one logical undo.
        del txn.undo_log.entries[op.undo_mark :]
        txn.undo_log.entries.append(
            LogicalUndoEntry(
                seq=self._take_seq(),
                op_id=op.op_id,
                level=op.level,
                object_key=op.object_key,
                undo=logical_undo,
            )
        )
        txn.op_stack.pop()
        self.locks.release_operation(txn.txn_id, op.op_id)
        self.scheme.on_operation_end(txn)
        self.meter.charge("op_commit")

    def abort_operation(self, txn: Transaction) -> None:
        """Roll back the innermost open operation."""
        txn.require_active()
        op = txn.current_op
        self._rollback_pending_update(txn)
        tail = txn.undo_log.entries[op.undo_mark :]
        del txn.undo_log.entries[op.undo_mark :]
        for entry in reversed(tail):
            if isinstance(entry, PhysicalUndo):
                self._apply_physical_undo(txn, entry)
            else:
                self._execute_logical_undo(txn, entry.undo)
        # Inverse operations appended fresh undo entries; this operation's
        # scope is fully compensated, so drop them.
        del txn.undo_log.entries[op.undo_mark :]
        txn.redo_log.discard_from(op.redo_mark)
        txn.op_stack.pop()
        self.locks.release_operation(txn.txn_id, op.op_id)
        self.scheme.on_operation_end(txn)

    def _execute_logical_undo(self, txn: Transaction, undo: LogicalUndo) -> None:
        if undo.op_name == "noop":
            return
        if self.undo_executor is None:
            raise TransactionError(
                f"no undo executor installed; cannot run logical undo "
                f"{undo.op_name!r}"
            )
        self.undo_executor(txn, undo)

    def _apply_physical_undo(self, txn: Transaction, entry: PhysicalUndo) -> None:
        """Restore a before-image; the scheme handles codeword/MMU details."""
        self.scheme.apply_physical_undo(txn, entry)
        self.meter.charge("undo_apply")

    def _rollback_pending_update(self, txn: Transaction) -> None:
        """Close an update window left open by an error path.

        Every captured range rolls back, newest-first; none of the
        window's codewords moved (``end_update`` never ran), so the
        physical undos restore bytes only.
        """
        if txn.pending_update is None:
            return
        pending = txn.pending_update
        txn.pending_update = None
        first = pending.regions[0].undo_index
        entries = txn.undo_log.entries[first:]
        if len(entries) != len(pending.regions) or not all(
            isinstance(entry, PhysicalUndo) for entry in entries
        ):  # pragma: no cover
            raise TransactionError("pending update lost its undo entries")
        del txn.undo_log.entries[first:]
        ranges = [(r.address, r.length) for r in pending.regions]
        if len(ranges) == 1:
            self.scheme.close_update_window(txn, *ranges[0])
        else:
            self.scheme.close_update_window_batch(txn, ranges)
        for entry in reversed(entries):
            self._apply_physical_undo(txn, entry)

    # ------------------------------------------------------------ locks

    def lock(
        self,
        txn: Transaction,
        key: str,
        mode: LockMode = LockMode.EXCLUSIVE,
        duration: str = "txn",
    ) -> None:
        op_id = txn.op_stack[-1].op_id if txn.op_stack else None
        self.locks.acquire(txn.txn_id, key, mode, duration, op_id)
        self.meter.charge("lock_acquire")

    # -------------------------------------------------- prescribed I/O

    def read(self, txn: Transaction, address: int, length: int) -> bytes:
        """Prescribed read; protection schemes hook here (precheck, read log)."""
        txn.require_active()
        if self.quarantine_guard is not None:
            self.quarantine_guard(txn, address, length)
        self.scheme.on_read(txn, address, length)
        if not txn.op_stack and txn.redo_log.records:
            # A read outside any operation has no operation commit to ride
            # to the system log; migrate its read record immediately so
            # the log preserves read-before-subsequent-write order, which
            # delete-transaction recovery relies on for tracing.
            self.system_log.extend(txn.redo_log.take_from(0), charge=False)
        return self.memory.read(address, length)

    def begin_update(self, txn: Transaction, address: int, length: int) -> None:
        """Open a one-range update window."""
        self._open_window(txn, [(address, length)])

    def begin_updates(
        self, txn: Transaction, regions: list[tuple[int, int]]
    ) -> None:
        """Open one update window covering several ``(address, length)``
        ranges at once.

        One scheme notification latches every spanned protection region,
        the undo images are captured range by range, and the matching
        ``end_update`` folds the whole window's codeword deltas in a
        single call.  Meter charges are identical, event for event, to
        opening and closing the same ranges as one-range windows
        (``Meter.charge`` is linear, so bulk charging cannot move any
        Table 2 number).
        """
        ranges = [(int(a), int(n)) for a, n in regions]
        if not ranges:
            raise TransactionError("begin_updates needs at least one region")
        # Every undo image is captured up front, so overlapping ranges
        # would double-count codeword deltas and replay stale bytes on
        # redo.
        ordered = sorted(ranges)
        for (a, n), (b, _m) in zip(ordered, ordered[1:]):
            if a + n > b:
                raise TransactionError(
                    f"begin_updates ranges overlap at {b:#x}; window "
                    "ranges must be pairwise disjoint"
                )
        self._open_window(txn, ranges)

    def _open_window(self, txn: Transaction, ranges: list[tuple[int, int]]) -> None:
        """Capture the undo images, notify the scheme (the window body)."""
        txn.require_active()
        op = txn.current_op  # updates must happen inside an operation
        if txn.pending_update is not None:
            raise TransactionError(
                f"transaction {txn.txn_id} already has an open update window"
            )
        if len(ranges) == 1:
            self.scheme.on_begin_update(txn, *ranges[0])
        else:
            self.scheme.on_begin_update_batch(txn, ranges)
        window: list[WindowRegion] = []
        total = 0
        for address, length in ranges:
            undo_image = self.memory.read(address, length)
            entry = PhysicalUndo(
                seq=self._take_seq(),
                op_id=op.op_id,
                address=address,
                image=undo_image,
                codeword_applied=False,
            )
            txn.undo_log.append_physical(entry)
            window.append(
                WindowRegion(
                    address=address,
                    length=length,
                    undo_image=undo_image,
                    undo_index=len(txn.undo_log.entries) - 1,
                )
            )
            total += length
        txn.pending_update = PendingUpdate(window)
        count = len(ranges)
        self.meter.charge("begin_update", count)
        self.meter.charge("log_record", count)
        self.meter.charge("log_byte", total)

    def write(self, txn: Transaction, address: int, data: bytes) -> None:
        """Write inside the currently open update window.

        The window's ranges are pairwise disjoint, so the bytes belong to
        exactly one of them -- the one that contains the whole write.
        """
        pending = self._require_pending(txn)
        length = len(data)
        end = address + length
        # Fast path: the write covers a whole range exactly (how
        # ``update()`` and the record-level storage code write).
        target = pending.exact_region(address, length)
        if target is None:
            for region in pending.regions:
                if region.address <= address and end <= region.address + region.length:
                    target = region
                    break
        if target is None:
            raise TransactionError(
                f"write of {length} bytes at {address:#x} is outside the "
                f"open update window"
            )
        target.new_image[address - target.address : end - target.address] = data
        self.memory.write(address, data)

    def end_update(self, txn: Transaction) -> None:
        """Close the update window: maintain codewords, log the redo images.

        The redo image of each range comes from the bytes tracked by
        :meth:`write` (byte-identical to re-reading the window from
        memory, without the copy).
        """
        pending = self._require_pending(txn)
        regions = pending.regions
        items = [(r.address, r.undo_image, bytes(r.new_image)) for r in regions]
        if len(items) == 1:
            checksums = [self.scheme.on_end_update(txn, *items[0])]
        else:
            checksums = self.scheme.on_end_update_batch(txn, items)
        total = 0
        for region, (address, _old, new_image), checksum in zip(
            regions, items, checksums
        ):
            entry = txn.undo_log.entries[region.undo_index]
            if isinstance(entry, PhysicalUndo):
                entry.codeword_applied = True
            txn.redo_log.append(
                UpdateRecord(txn.txn_id, address, new_image, checksum)
            )
            total += len(new_image)
        txn.pending_update = None
        count = len(regions)
        self.meter.charge("end_update", count)
        self.meter.charge("log_record", count)
        self.meter.charge("log_byte", total)

    def update(self, txn: Transaction, address: int, data: bytes) -> None:
        """Convenience: begin_update + write + end_update."""
        self.begin_update(txn, address, len(data))
        self.write(txn, address, data)
        self.end_update(txn)

    def _require_pending(self, txn: Transaction) -> PendingUpdate:
        txn.require_active()
        if txn.pending_update is None:
            raise TransactionError(
                f"transaction {txn.txn_id} has no open update window; writes "
                "must be bracketed by begin_update/end_update"
            )
        return txn.pending_update

    def _take_seq(self) -> int:
        with self._id_lock:
            seq = self._next_seq
            self._next_seq += 1
            return seq
