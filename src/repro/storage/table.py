"""Tables: fixed-size records, slot allocation, optional hash index.

Every table method is a multi-level *operation* (Section 2.1): it begins
an operation, performs its physical updates through the prescribed
interface, and commits the operation with a logical undo description that
the recovery machinery can execute to compensate it.  Table methods are
therefore exactly the level-1 operations of the paper's model.

Every physical write of an operation -- allocator, record, fields, index
-- goes through :class:`TxnAccessor`, which queues them and opens *one*
update window per flush; ``TxnAccessor.flush`` is the only place this
package calls the manager's ``update`` / ``begin_updates``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import ConfigError, TransactionError
from repro.mem.allocator import SlotAllocator
from repro.storage.index import HashIndex
from repro.storage.schema import FieldType, Schema
from repro.txn.locks import LockMode
from repro.txn.transaction import Transaction
from repro.wal.records import LogicalUndo

if TYPE_CHECKING:  # pragma: no cover
    from repro.storage.database import Database


class TxnAccessor:
    """Adapts a transaction to the allocator/index accessor protocol.

    The accessor is write-combining: ``update`` only queues
    ``(address, bytes)`` in program order, and :meth:`flush` applies the
    queue through one multi-region update window.  An insert's bitmap
    byte, allocator header, record and index writes therefore share one
    window (one latch pass, one vectorized codeword fold) instead of
    opening one each -- with the same meter events, log records and
    codewords, since a batch window is event-for-event identical to the
    scalar windows it replaces.  A ``read`` or ``update`` that overlaps a
    queued range flushes first, so callers always see their own writes
    and the window's ranges stay pairwise disjoint.  Whoever hands the
    accessor to code that updates must call ``flush`` before the
    operation commits; an operation that aborts just drops the queue.
    """

    __slots__ = ("db", "txn", "pending")

    def __init__(self, db: "Database", txn: Transaction) -> None:
        self.db = db
        self.txn = txn
        self.pending: list[tuple[int, bytes]] = []

    def read(self, address: int, length: int) -> bytes:
        if self.pending and self._overlaps_pending(address, length):
            self.flush()
        return self.db.manager.read(self.txn, address, length)

    def update(self, address: int, new_bytes: bytes) -> None:
        if self.pending and self._overlaps_pending(address, len(new_bytes)):
            self.flush()
        self.pending.append((address, new_bytes))

    def flush(self) -> None:
        """Apply the queued updates, in order, through one update window."""
        pending = self.pending
        if not pending:
            return
        self.pending = []
        mgr = self.db.manager
        txn = self.txn
        if len(pending) == 1:
            mgr.update(txn, *pending[0])
            return
        mgr.begin_updates(txn, [(address, len(data)) for address, data in pending])
        for address, data in pending:
            mgr.write(txn, address, data)
        mgr.end_update(txn)

    def _overlaps_pending(self, address: int, length: int) -> bool:
        end = address + length
        for start, data in self.pending:
            if start < end and address < start + len(data):
                return True
        return False


class Table:
    """A fixed-capacity table of fixed-size records."""

    def __init__(
        self,
        db: "Database",
        name: str,
        schema: Schema,
        capacity: int,
        key_field: str | None,
        allocator: SlotAllocator,
        index: HashIndex | None,
    ) -> None:
        if key_field is not None:
            field = schema.field(key_field)
            if field.type not in (FieldType.INT64, FieldType.UINT32):
                raise ConfigError(
                    f"key field {key_field!r} must be an integer type"
                )
        self.db = db
        self.name = name
        self.schema = schema
        self.capacity = capacity
        self.key_field = key_field
        self.allocator = allocator
        self.index = index

    # ----------------------------------------------------------- helpers

    def _ctx(self, txn: Transaction) -> TxnAccessor:
        return TxnAccessor(self.db, txn)

    def record_address(self, slot: int) -> int:
        return self.allocator.slot_address(slot)

    def _record_key(self, slot: int) -> str:
        return f"{self.name}:{slot}"

    def _key_of(self, record: bytes) -> int:
        offset, size = self.schema.field_range(self.key_field)
        return self.schema.decode_field(self.key_field, record[offset : offset + size])

    # -------------------------------------------------------- operations

    def insert(self, txn: Transaction, values: dict) -> int:
        """Insert a record; returns its slot id."""
        mgr = self.db.manager
        record = self.schema.encode(values)
        mgr.begin_operation(txn, f"{self.name}:insert")
        try:
            ctx = self._ctx(txn)
            mgr.lock(txn, f"{self.name}:allocator", LockMode.EXCLUSIVE, duration="op")
            slot = self.allocator.allocate(ctx)
            op = txn.current_op
            op.object_key = self._record_key(slot)
            mgr.lock(txn, op.object_key, LockMode.EXCLUSIVE)
            ctx.update(self.record_address(slot), record)
            self.db.meter.charge("record_write")
            if self.index is not None:
                self.db.meter.charge("index_update")
                self.index.insert(ctx, self._key_of(record), slot)
            ctx.flush()
            self.db.note_write(txn, self.name, slot, record)
            mgr.commit_operation(txn, LogicalUndo("undo_insert", (self.name, slot)))
            return slot
        except Exception:
            mgr.abort_operation(txn)
            raise

    def insert_at(self, txn: Transaction, slot: int, record: bytes) -> None:
        """Re-insert a record at a specific slot (logical undo of delete)."""
        mgr = self.db.manager
        mgr.begin_operation(txn, self._record_key(slot))
        try:
            ctx = self._ctx(txn)
            mgr.lock(txn, f"{self.name}:allocator", LockMode.EXCLUSIVE, duration="op")
            mgr.lock(txn, self._record_key(slot), LockMode.EXCLUSIVE)
            self.allocator.allocate_at(ctx, slot)
            ctx.update(self.record_address(slot), record)
            self.db.meter.charge("record_write")
            if self.index is not None:
                self.db.meter.charge("index_update")
                self.index.insert(ctx, self._key_of(record), slot)
            ctx.flush()
            self.db.note_write(txn, self.name, slot, record)
            mgr.commit_operation(txn, LogicalUndo("undo_insert", (self.name, slot)))
        except Exception:
            mgr.abort_operation(txn)
            raise

    def read(self, txn: Transaction, slot: int) -> dict:
        """Read a record by slot id."""
        return self.schema.decode(self.read_bytes(txn, slot))

    def read_bytes(self, txn: Transaction, slot: int) -> bytes:
        mgr = self.db.manager
        mgr.lock(txn, self._record_key(slot), LockMode.SHARED)
        ctx = self._ctx(txn)
        if not self.allocator.is_allocated(ctx, slot):
            raise ConfigError(f"{self.name} slot {slot} is not allocated")
        self.db.meter.charge("record_read")
        record = mgr.read(txn, self.record_address(slot), self.schema.record_size)
        self.db.note_read(txn, self.name, slot, record)
        return record

    def update(self, txn: Transaction, slot: int, values: dict) -> None:
        """Update the given fields of a record in place.

        A value may be a callable, in which case it receives the field's
        current value and returns the new one -- the idiomatic
        read-modify-write (``balance += delta``) with a single prescribed
        read of the record.

        The field writes are queued on the accessor and flushed as *one*
        update window over all the target field ranges -- meter-identical,
        event for event, to a window per field.
        """
        if not values:
            raise TransactionError("update with no fields")
        mgr = self.db.manager
        mgr.begin_operation(txn, self._record_key(slot))
        try:
            ctx = self._ctx(txn)
            mgr.lock(txn, self._record_key(slot), LockMode.EXCLUSIVE)
            if not self.allocator.is_allocated(ctx, slot):
                raise ConfigError(f"{self.name} slot {slot} is not allocated")
            base = self.record_address(slot)
            self.db.meter.charge("record_read")
            old_record = mgr.read(txn, base, self.schema.record_size)
            self.db.note_read(txn, self.name, slot, old_record)
            undo_args: list = [self.name, slot]
            new_record = bytearray(old_record)
            for name in sorted(values, key=self.schema.offset_of):
                offset, size = self.schema.field_range(name)
                value = values[name]
                if callable(value):
                    current = self.schema.decode_field(
                        name, old_record[offset : offset + size]
                    )
                    value = value(current)
                encoded = self.schema.encode_field(name, value)
                undo_args.extend([offset, old_record[offset : offset + size]])
                ctx.update(base + offset, encoded)
                new_record[offset : offset + size] = encoded
            ctx.flush()
            self.db.meter.charge("record_write")
            self.db.note_write(txn, self.name, slot, bytes(new_record))
            mgr.commit_operation(
                txn, LogicalUndo("undo_update", tuple(undo_args))
            )
        except Exception:
            mgr.abort_operation(txn)
            raise

    def write_fields(self, txn: Transaction, slot: int, pairs: list[tuple[int, bytes]]) -> None:
        """Write raw ``(offset, bytes)`` pairs back (logical undo of update)."""
        mgr = self.db.manager
        mgr.begin_operation(txn, self._record_key(slot))
        try:
            ctx = self._ctx(txn)
            mgr.lock(txn, self._record_key(slot), LockMode.EXCLUSIVE)
            base = self.record_address(slot)
            undo_args: list = [self.name, slot]
            for offset, data in pairs:
                self.db.meter.charge("record_read")
                current = ctx.read(base + offset, len(data))
                undo_args.extend([offset, current])
                ctx.update(base + offset, data)
            ctx.flush()
            self.db.meter.charge("record_write")
            record = self.db.memory.read(base, self.schema.record_size)
            self.db.note_write(txn, self.name, slot, record)
            mgr.commit_operation(txn, LogicalUndo("undo_update", tuple(undo_args)))
        except Exception:
            mgr.abort_operation(txn)
            raise

    def delete(self, txn: Transaction, slot: int) -> None:
        """Delete a record; its slot returns to the allocator."""
        mgr = self.db.manager
        mgr.begin_operation(txn, self._record_key(slot))
        try:
            ctx = self._ctx(txn)
            mgr.lock(txn, self._record_key(slot), LockMode.EXCLUSIVE)
            mgr.lock(txn, f"{self.name}:allocator", LockMode.EXCLUSIVE, duration="op")
            self.db.meter.charge("record_read")
            old_record = mgr.read(txn, self.record_address(slot), self.schema.record_size)
            self.db.note_read(txn, self.name, slot, old_record)
            if self.index is not None:
                self.db.meter.charge("index_update")
                self.index.delete(ctx, self._key_of(old_record))
            self.allocator.free(ctx, slot)
            ctx.flush()
            self.db.note_write(txn, self.name, slot, None)
            mgr.commit_operation(
                txn, LogicalUndo("undo_delete", (self.name, slot, old_record))
            )
        except Exception:
            mgr.abort_operation(txn)
            raise

    def lookup(self, txn: Transaction, key: int) -> int | None:
        """Find a slot by primary key through the in-image hash index."""
        if self.index is None:
            raise ConfigError(f"table {self.name!r} has no index")
        self.db.meter.charge("index_probe")
        return self.index.lookup(self._ctx(txn), key)

    def range(self, txn: Transaction, lo: int, hi: int):
        """Yield ``(key, row_dict)`` for ``lo <= key <= hi`` in key order.

        Requires a B+tree primary index (``index_type="btree"``).  Every
        node traversal and record read goes through the prescribed
        interface, so range scans are protected and traced like any other
        access.
        """
        from repro.storage.btree import BTreeIndex

        if not isinstance(self.index, BTreeIndex):
            raise ConfigError(
                f"table {self.name!r} needs index_type='btree' for range scans"
            )
        ctx = self._ctx(txn)
        for key, slot in self.index.range(ctx, lo, hi):
            yield key, self.read(txn, slot)

    def scan_slots(self, txn: Transaction):
        """Yield allocated slot ids."""
        return self.allocator.iter_allocated(self._ctx(txn))

    def row_count(self, txn: Transaction) -> int:
        return self.allocator.allocated_count(self._ctx(txn))
