"""Transaction and operation state, and the active transaction table.

A transaction is an operation at the highest level of the multi-level
model (Section 2.1); nested operations form a stack.  Each transaction
carries its *local* undo and redo logs; the ATT (with the local undo logs)
is written out with every checkpoint so restart recovery can roll back
transactions that were in progress at checkpoint time.

A transaction has at most one open update window
(:class:`PendingUpdate`): a list of pairwise-disjoint ranges
(:class:`WindowRegion`), each tracking its undo image and the bytes
written into it.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from enum import Enum

from repro.errors import TransactionError
from repro.wal.local_log import LocalRedoLog, UndoLog


class TxnStatus(Enum):
    ACTIVE = "active"
    PREPARED = "prepared"
    COMMITTED = "committed"
    ABORTED = "aborted"


@dataclass(slots=True)
class Operation:
    """An open multi-level operation (level >= 1)."""

    op_id: int
    level: int
    object_key: str
    redo_mark: int  # local redo log position at operation begin
    undo_mark: int = 0  # undo log position at operation begin


@dataclass(slots=True)
class WindowRegion:
    """One contiguous range of an open update window.

    ``new_image`` accumulates the bytes written into the range (seeded
    from the undo image), so ``end_update`` can log the redo image
    without re-reading the window from memory.
    """

    address: int
    length: int
    undo_image: bytes
    undo_index: int  # position of the PhysicalUndo entry in the undo log
    new_image: bytearray = field(repr=False, default_factory=bytearray)

    def __post_init__(self) -> None:
        if not self.new_image and self.length:
            self.new_image = bytearray(self.undo_image)


@dataclass
class PendingUpdate:
    """State of an open ``begin_update``/``end_update`` window.

    A window is a list of pairwise-disjoint target ranges
    (``begin_updates``; ``begin_update`` opens the one-range case), so a
    write inside it belongs to exactly one of them.
    """

    regions: list[WindowRegion]

    def __post_init__(self) -> None:
        # (address, length) -> the region with exactly that range; the
        # fast path for whole-range writes (how update() and the storage
        # layer write).
        self._by_range = {(r.address, r.length): r for r in self.regions}

    def exact_region(self, address: int, length: int) -> WindowRegion | None:
        return self._by_range.get((address, length))


class Transaction:
    """A transaction with local logging (Section 2)."""

    def __init__(self, txn_id: int) -> None:
        self.txn_id = txn_id
        self.status = TxnStatus.ACTIVE
        self.undo_log = UndoLog()
        self.redo_log = LocalRedoLog()
        self.op_stack: list[Operation] = []
        self.pending_update: PendingUpdate | None = None
        # Global transaction id when this txn is a 2PC participant branch;
        # set by TransactionManager.prepare().
        self.gid: str | None = None
        # Scratch space for protection schemes (precheck dedup cache,
        # latches held across an update window, ...).
        self.scheme_state: dict = {}

    @property
    def current_op(self) -> Operation:
        if not self.op_stack:
            raise TransactionError(
                f"transaction {self.txn_id} has no open operation; all updates "
                "must happen inside begin_operation/commit_operation"
            )
        return self.op_stack[-1]

    @property
    def depth(self) -> int:
        return len(self.op_stack)

    def require_active(self) -> None:
        if self.status is not TxnStatus.ACTIVE:
            raise TransactionError(
                f"transaction {self.txn_id} is {self.status.value}, not active"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Transaction(id={self.txn_id}, status={self.status.value}, "
            f"ops={len(self.op_stack)}, undo={len(self.undo_log)})"
        )


@dataclass
class CheckpointedTxn:
    """A transaction's recovery-relevant state as stored in a checkpoint."""

    txn_id: int
    undo_log: UndoLog
    # (op_id, level, object_key, undo_mark) per open operation
    open_ops: list[tuple[int, int, str, int]] = field(default_factory=list)


class ActiveTransactionTable:
    """The ATT: all transactions currently in progress."""

    def __init__(self) -> None:
        self._table: dict[int, Transaction] = {}

    def add(self, txn: Transaction) -> None:
        if txn.txn_id in self._table:
            raise TransactionError(f"transaction {txn.txn_id} already in ATT")
        self._table[txn.txn_id] = txn

    def remove(self, txn_id: int) -> None:
        self._table.pop(txn_id, None)

    def get(self, txn_id: int) -> Transaction | None:
        return self._table.get(txn_id)

    def __contains__(self, txn_id: int) -> bool:
        return txn_id in self._table

    def __len__(self) -> int:
        return len(self._table)

    def __iter__(self):
        return iter(self._table.values())

    def clear(self) -> None:
        self._table.clear()

    # ------------------------------------------------- checkpoint codec

    def encode(self) -> bytes:
        """Serialize every active transaction's undo state."""
        parts = [struct.pack("<I", len(self._table))]
        for txn in self._table.values():
            parts.append(struct.pack("<Q", txn.txn_id))
            parts.append(struct.pack("<H", len(txn.op_stack)))
            for op in txn.op_stack:
                key = op.object_key.encode("utf-8")
                parts.append(
                    struct.pack("<QBIH", op.op_id, op.level, op.undo_mark, len(key))
                    + key
                )
            parts.append(txn.undo_log.encode())
        return b"".join(parts)

    @staticmethod
    def decode(data: bytes) -> dict[int, CheckpointedTxn]:
        (count,) = struct.unpack_from("<I", data, 0)
        offset = 4
        result: dict[int, CheckpointedTxn] = {}
        for _ in range(count):
            (txn_id,) = struct.unpack_from("<Q", data, offset)
            offset += 8
            (op_count,) = struct.unpack_from("<H", data, offset)
            offset += 2
            ops: list[tuple[int, int, str, int]] = []
            for _ in range(op_count):
                op_id, level, undo_mark, key_len = struct.unpack_from(
                    "<QBIH", data, offset
                )
                offset += 15
                key = data[offset : offset + key_len].decode("utf-8")
                offset += key_len
                ops.append((op_id, level, key, undo_mark))
            undo_log, offset = UndoLog.decode(data, offset)
            result[txn_id] = CheckpointedTxn(txn_id, undo_log, ops)
        return result
