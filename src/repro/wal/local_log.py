"""Per-transaction local undo and redo logs.

Dali stores undo and redo logs on a per-transaction basis ("local
logging", Section 2).  When an operation commits, its redo records are
moved to the system log tail and its physical undo records are replaced by
one logical undo record -- both before the operation's locks are released.

Physical undo records carry the ``codeword_applied`` flag of Section 3.1:
between ``begin_update`` and ``end_update`` the stored codeword still
matches the *old* content, so a rollback inside that window must apply the
undo image without touching the codeword.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from repro.errors import LogError
from repro.wal.records import (
    LogRecord,
    LogicalUndo,
    decode_payload,
    pack_read,
    pack_record,
)
from repro.wal.system_log import walk_frames


@dataclass(slots=True)
class PhysicalUndo:
    """Before-image of one physical (level-0) update."""

    seq: int
    op_id: int
    address: int
    image: bytes = field(repr=False)
    codeword_applied: bool = True

    LEVEL = 0


@dataclass(slots=True)
class LogicalUndoEntry:
    """Logical undo for a committed operation (replaces its physical undos)."""

    seq: int
    op_id: int
    level: int
    object_key: str
    undo: LogicalUndo


UndoEntry = PhysicalUndo | LogicalUndoEntry


class UndoLog:
    """Append-ordered undo log; rollback walks it in reverse."""

    def __init__(self) -> None:
        self.entries: list[UndoEntry] = []

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    # ------------------------------------------------- checkpoint codec

    def encode(self) -> bytes:
        parts = [struct.pack("<I", len(self.entries))]
        for entry in self.entries:
            if isinstance(entry, PhysicalUndo):
                parts.append(
                    b"P"
                    + struct.pack(
                        "<QQqIB",
                        entry.seq,
                        entry.op_id,
                        entry.address,
                        len(entry.image),
                        int(entry.codeword_applied),
                    )
                    + entry.image
                )
            else:
                key = entry.object_key.encode("utf-8")
                parts.append(
                    b"L"
                    + struct.pack("<QQBH", entry.seq, entry.op_id, entry.level, len(key))
                    + key
                    + entry.undo.encode()
                )
        return b"".join(parts)

    @classmethod
    def decode(cls, data: bytes, offset: int = 0) -> tuple["UndoLog", int]:
        log = cls()
        (count,) = struct.unpack_from("<I", data, offset)
        offset += 4
        for _ in range(count):
            tag = data[offset : offset + 1]
            offset += 1
            if tag == b"P":
                seq, op_id, address, image_len, applied = struct.unpack_from(
                    "<QQqIB", data, offset
                )
                offset += 29
                image = bytes(data[offset : offset + image_len])
                offset += image_len
                log.entries.append(
                    PhysicalUndo(seq, op_id, address, image, bool(applied))
                )
            elif tag == b"L":
                seq, op_id, level, key_len = struct.unpack_from("<QQBH", data, offset)
                offset += 19
                key = data[offset : offset + key_len].decode("utf-8")
                offset += key_len
                undo, offset = LogicalUndo.decode(data, offset)
                log.entries.append(LogicalUndoEntry(seq, op_id, level, key, undo))
            else:
                raise LogError(f"bad undo entry tag {tag!r}")
        return log, offset


class LocalRedoLog:
    """Per-transaction redo staging buffer: an arena of frames.

    Records are packed into :attr:`arena` as stable-log frames with a
    zero LSN slot (``end_update`` packs its update frames there directly,
    read logging calls :meth:`append_read`), and :attr:`offsets` holds
    where each frame starts.  When an operation commits its frames are
    *moved* to the system log tail as one byte range, which stamps their
    LSNs; an aborted operation's frames are cut off.  ``mark`` /
    ``take_from`` / ``discard_from`` count frames.
    """

    __slots__ = ("arena", "offsets")

    def __init__(self) -> None:
        self.arena = bytearray()
        self.offsets: list[int] = []

    def append_read(self, txn_id: int, address: int, length: int, checksum) -> int:
        """Pack a read frame; returns its ``approx_size``.  (The packer
        raises, if at all, before it appends a byte.)"""
        arena = self.arena
        start = len(arena)
        size = pack_read(arena, 0, txn_id, address, length, checksum)
        self.offsets.append(start)
        return size

    def append(self, record: LogRecord) -> int:
        """Pack a record object (the cold path); returns its ``approx_size``."""
        arena = self.arena
        start = len(arena)
        try:
            size = pack_record(record, arena)
        except BaseException:
            del arena[start:]
            raise
        self.offsets.append(start)
        return size

    def mark(self) -> int:
        """Current position; an operation remembers its start mark."""
        return len(self.offsets)

    def take_from(self, mark: int) -> tuple[bytes | bytearray, list[int]]:
        """Remove the frames appended since ``mark``; returns their bytes
        and each frame's start offset within them."""
        offsets = self.offsets
        if mark == 0:
            taken = self.arena, offsets
            self.arena = bytearray()
            self.offsets = []
            return taken
        if mark == len(offsets):
            return b"", []
        base = offsets[mark]
        frames = bytes(self.arena[base:])
        starts = [offset - base for offset in offsets[mark:]]
        self.discard_from(mark)
        return frames, starts

    def discard_from(self, mark: int) -> None:
        if mark < len(self.offsets):
            del self.arena[self.offsets[mark] :]
            del self.offsets[mark:]

    @property
    def records(self) -> list[LogRecord]:
        """The staged records, decoded (a read-only view, for tests and
        cold paths)."""
        view = memoryview(bytes(self.arena))
        return [
            decode_payload(code, view, pos, end)
            for _lsn, code, pos, end in walk_frames(view, stamped=False)
        ]

    def __len__(self) -> int:
        return len(self.offsets)
