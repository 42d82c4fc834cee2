"""The transaction manager: multi-level transactions over the memory image.

This is the paper's *update model* (Section 1): all updates are in place,
and correct updates are ones that use the prescribed interface --
``begin_update``/``end_update`` brackets around every physical write, with
reads going through :meth:`TransactionManager.read`.  Protection schemes
hook these three points; anything that writes memory without them (a wild
write through :meth:`~repro.mem.memory.MemoryImage.poke`) is by definition
an addressing error.

An update window has one shape: a list of pairwise-disjoint ranges,
opened once, written and closed.  :meth:`TransactionManager.apply_writes`
runs a whole window in one call; ``begin_updates`` (``begin_update`` is
its one-range case), ``write`` and ``end_update`` hold one open across
calls.  Both are built from the same open, close and abandon steps, each
of which crosses into the scheme once per window whatever its range
count.  The manager never batches on its own -- the storage layer's
write-combining :class:`~repro.storage.table.TxnAccessor` decides what
shares a window.

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
)
from repro.wal.local_log import LogicalUndoEntry, PhysicalUndo
from repro.wal.records import (
    TXN_ABORT,
    TXN_COMMIT,
    LogicalUndo,
    TxnPrepareRecord,
    pack_update,
)
from repro.wal.system_log import SystemLog

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.pipeline import ProtectionPipeline
    from repro.runtime.scheduler import Scheduler


class TransactionManager:
    """Coordinates transactions, operations, locking, logging and schemes."""

    def __init__(
        self,
        memory: MemoryImage,
        system_log: SystemLog,
        locks: LockManager,
        scheme: "ProtectionPipeline",
        meter: Meter,
        group_commit_size: int = 1,
        scheduler: "Scheduler | None" = None,
    ) -> None:
        self.memory = memory
        self.system_log = system_log
        self.locks = locks
        self.scheme = scheme
        self.meter = meter
        # Compiled counters for the events every transaction, operation,
        # lock and update window charges.
        counter = meter.counter
        self._charge_txn_begin = counter("txn_begin")
        self._charge_txn_commit = counter("txn_commit")
        self._charge_op_begin = counter("op_begin")
        self._charge_op_commit = counter("op_commit")
        self._charge_lock_acquire = counter("lock_acquire")
        self._charge_lock_release = counter("lock_release")
        self._charge_window_open = counter("begin_update", "log_record", "log_byte")
        self._charge_window_close = counter("end_update", "log_record", "log_byte")
        # Read logging packs a read made outside any operation straight
        # into the tail (it has no operation commit to ride).
        scheme.bind_log(system_log)
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
        self.system_log.append_txn_begin(txn.txn_id, is_recovery)
        self._charge_txn_begin(1)
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
        # No operation is open, so nothing is staged in the local redo
        # log: reads outside operations went straight to the tail.
        self.system_log.append_marker(TXN_COMMIT, txn.txn_id)
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
        self._charge_txn_commit(1)
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
        self.system_log.append_marker(TXN_ABORT, txn.txn_id)
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

        The branch's records are already in the system log tail (every
        operation migrated its own at commit), so a
        :class:`TxnPrepareRecord` carrying the global transaction id
        follows them, and the tail is flushed
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
        self.system_log.append_marker(TXN_COMMIT, txn.txn_id)
        # The decision is already durable at the coordinator; flushing here
        # just shrinks the in-doubt window the resolver must cover.
        self.system_log.flush()
        with self._gc_lock:
            self._commits_since_flush = 0
        self._charge_txn_commit(1)
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
            self._charge_lock_release(held)
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
        self._charge_op_begin(1)
        return op

    def commit_operation(self, txn: Transaction, logical_undo: LogicalUndo) -> None:
        if txn.status is not TxnStatus.ACTIVE:
            txn.require_active()
        op = txn.current_op
        if txn.pending_update is not None:
            raise TransactionError(
                f"operation {op.op_id} commits with an open update window"
            )
        # Move the operation's frames to the system log tail bracketed by
        # OpBegin / OpCommit -- one tail append -- then replace physical
        # undo with the logical undo, all before lock release.  The
        # OpBegin record is made here rather than at begin_operation so
        # it carries the operation's final object key (an insert only
        # knows its slot after allocation); order in the system log is
        # unchanged since local records only migrate at commit anyway.
        frames, starts = txn.redo_log.take_from(op.redo_mark)
        self.system_log.append_operation(
            txn.txn_id, op.op_id, op.level, op.object_key, logical_undo, frames, starts
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
        self._charge_op_commit(1)

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
        """Roll back an update window left open by an error path."""
        pending = txn.pending_update
        if pending is not None:
            txn.pending_update = None
            self._abandon_window(txn, pending.window, pending.undo_mark)

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
        self._charge_lock_acquire(1)

    # -------------------------------------------------- prescribed I/O

    def read(self, txn: Transaction, address: int, length: int) -> bytes:
        """Prescribed read; protection schemes hook here (precheck, read log).

        A read record made outside any operation goes straight to the
        system log tail (read logging packs it there), so the log keeps
        read-before-subsequent-write order, which delete-transaction
        recovery relies on for tracing.
        """
        if txn.status is not TxnStatus.ACTIVE:
            txn.require_active()
        if self.quarantine_guard is not None:
            self.quarantine_guard(txn, address, length)
        self.scheme.on_read(txn, address, length)
        return self.memory.read(address, length)

    # An update window has three steps, shared by every way of running
    # one: open (check, latch, capture the undo images), close (fold,
    # release, pack the redo frames) and abandon (release, restore the
    # undo images).  ``apply_writes`` runs a whole window in one call;
    # the explicit ``begin_update(s)`` / ``write`` / ``end_update`` form
    # holds it open between calls (tests and fault injection that audit
    # or crash mid-window).

    def apply_writes(self, txn: Transaction, writes: list[tuple[int, bytes]]) -> None:
        """Store ``(address, bytes)`` pairs through one update window.

        The pairs' ranges must be pairwise disjoint.  The window opens,
        the bytes are stored (each pair's bytes are its range's redo
        image) and it closes, all before this returns; if anything fails
        on the way, the window is rolled back -- bytes, undo log and
        latches as they were -- and the error propagates.
        """
        window, mark = self._open_window(txn, [(a, len(data)) for a, data in writes])
        try:
            self.memory.write_batch(writes)
            self._close_window(txn, window, mark, writes)
        except BaseException:
            self._abandon_window(txn, window, mark)
            raise

    def begin_update(self, txn: Transaction, address: int, length: int) -> None:
        """Open a one-range update window."""
        ranges = [(address, length)]
        window, mark = self._open_window(txn, ranges)
        txn.pending_update = PendingUpdate(window, mark, ranges)

    def begin_updates(
        self, txn: Transaction, regions: list[tuple[int, int]]
    ) -> None:
        """Open one update window covering several pairwise-disjoint
        ``(address, length)`` ranges at once.

        One scheme notification latches every spanned protection region,
        the undo images are captured range by range, and the matching
        ``end_update`` folds the whole window's codeword deltas in a
        single call.  Meter charges are identical, event for event, to
        opening and closing the same ranges as one-range windows
        (``Meter.charge`` is linear, so bulk charging cannot move any
        Table 2 number).
        """
        ranges = [(a, n) for a, n in regions]
        window, mark = self._open_window(txn, ranges)
        txn.pending_update = PendingUpdate(window, mark, ranges)

    def _open_window(
        self, txn: Transaction, ranges: list[tuple[int, int]]
    ) -> tuple[object, int]:
        """The open step: check the window may open, latch its regions
        through the scheme and append each range's undo image to the undo
        log.  Returns the scheme's window and the undo log index of its
        first entry."""
        if txn.status is not TxnStatus.ACTIVE:
            txn.require_active()
        op = txn.current_op  # updates must happen inside an operation
        if txn.pending_update is not None:
            raise TransactionError(
                f"transaction {txn.txn_id} already has an open update window"
            )
        count = len(ranges)
        if count != 1:
            if not count:
                raise TransactionError("an update window needs at least one region")
            # Every undo image is captured up front, so overlapping ranges
            # would double-count codeword deltas and replay stale bytes on
            # redo.
            ordered = sorted(ranges)
            for (a, n), (b, _m) in zip(ordered, ordered[1:]):
                if a + n > b:
                    raise TransactionError(
                        f"update window ranges overlap at {b:#x}; window "
                        "ranges must be pairwise disjoint"
                    )
        window = self.scheme.on_begin_update_batch(txn, ranges)
        read = self.memory.read
        seq = self._take_seq(count)
        op_id = op.op_id
        undo = []
        total = 0
        try:
            for address, length in ranges:
                undo.append(PhysicalUndo(seq, op_id, address, read(address, length), False))
                seq += 1
                total += length
        except BaseException:
            self.scheme.close_update_window_batch(txn, window, ranges)
            raise
        entries = txn.undo_log.entries
        mark = len(entries)
        entries += undo
        self._charge_window_open(count, count, total)
        return window, mark

    def _close_window(
        self, txn: Transaction, window, mark: int, writes: list[tuple[int, bytes]]
    ) -> None:
        """The close step: fold each range's ``(address, redo image)`` in
        ``writes`` and release the latches through the scheme, mark the
        undo entries applied and pack one update frame per range straight
        into the transaction's redo arena."""
        undo = txn.undo_log.entries[mark:]
        checksums = self.scheme.on_end_update_batch(
            txn,
            window,
            [(address, entry.image, image) for entry, (address, image) in zip(undo, writes)],
        )
        redo = txn.redo_log
        arena = redo.arena
        offsets = redo.offsets
        txn_id = txn.txn_id
        total = 0
        for entry, (address, image), checksum in zip(undo, writes, checksums):
            entry.codeword_applied = True
            offsets.append(len(arena))
            pack_update(arena, 0, txn_id, address, image, checksum)
            total += len(image)
        count = len(undo)
        self._charge_window_close(count, count, total)

    def _abandon_window(self, txn: Transaction, window, mark: int) -> None:
        """The abandon step: release the window through the scheme, drop
        its undo entries and restore their images newest-first.  No
        codeword moved (the close step never ran), so the restores move
        bytes only."""
        entries = txn.undo_log.entries
        undo = entries[mark:]
        del entries[mark:]
        self.scheme.close_update_window_batch(
            txn, window, [(entry.address, len(entry.image)) for entry in undo]
        )
        for entry in reversed(undo):
            self._apply_physical_undo(txn, entry)

    def write(self, txn: Transaction, address: int, data: bytes) -> None:
        """Write inside the currently open update window.

        The window's ranges are pairwise disjoint, so the bytes belong to
        exactly one of them -- the one that contains the whole write.
        """
        pending = self._require_pending(txn)
        length = len(data)
        image = data if data.__class__ is bytes else bytes(data)
        # Fast path: the write covers a whole range exactly; its bytes are
        # the range's redo image.
        index = pending.index_of(address, length)
        if index is None:
            end = address + length
            for index, (start, size) in enumerate(pending.regions):
                if start <= address and end <= start + size:
                    break
            else:
                raise TransactionError(
                    f"write of {length} bytes at {address:#x} is outside the "
                    f"open update window"
                )
            current = pending.images[index]
            if current is None:
                current = txn.undo_log.entries[pending.undo_mark + index].image
            offset = address - start
            image = current[:offset] + image + current[offset + length :]
        pending.images[index] = image
        self.memory.write(address, data)

    def end_update(self, txn: Transaction) -> None:
        """Close the update window: maintain codewords, log the redo images.

        The redo image of each range is the bytes :meth:`write` stored
        there, or its undo image where nothing was written
        (byte-identical to re-reading the window from memory).
        """
        pending = self._require_pending(txn)
        mark = pending.undo_mark
        entries = txn.undo_log.entries
        writes = [
            (address, entries[mark + index].image if image is None else image)
            for index, ((address, _length), image) in enumerate(
                zip(pending.regions, pending.images)
            )
        ]
        self._close_window(txn, pending.window, mark, writes)
        txn.pending_update = None

    def update(self, txn: Transaction, address: int, data: bytes) -> None:
        """Convenience: begin_update + write + end_update."""
        self.begin_update(txn, address, len(data))
        self.write(txn, address, data)
        self.end_update(txn)

    def _require_pending(self, txn: Transaction) -> PendingUpdate:
        if txn.status is not TxnStatus.ACTIVE:
            txn.require_active()
        if txn.pending_update is None:
            raise TransactionError(
                f"transaction {txn.txn_id} has no open update window; writes "
                "must be bracketed by begin_update/end_update"
            )
        return txn.pending_update

    def _take_seq(self, count: int = 1) -> int:
        """The first of ``count`` consecutive undo sequence numbers."""
        with self._id_lock:
            seq = self._next_seq
            self._next_seq = seq + count
            return seq
