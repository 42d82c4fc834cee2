"""Log record types and their binary codec.

Record kinds follow Section 2.1 plus the paper's two additions:

* ``ReadRecord`` -- the Read Logging scheme's "identity of the item and an
  optional checksum of the value, but not the value itself" (Section 4.2);
* ``UpdateRecord.old_checksum`` -- the "codewords in write log records"
  extension of Section 4.3, which lets a write be treated as a read
  followed by a write during corruption recovery.

Record framing is ``u32 length | u8 type | payload | u32 crc32``; the
CRC covers type and payload, so a torn or corrupted stable log is detected
at scan time instead of silently replayed.  In a log every frame is
preceded by its ``u64`` LSN.

A record is a frame from the moment it is made: the logging paths call
one *packer* per hot record kind (:func:`pack_update`, :func:`pack_read`,
:func:`pack_op_begin`, :func:`pack_op_commit`, :func:`pack_txn_begin`,
:func:`pack_marker`) with the record's fields, and it appends the frame
-- LSN slot included -- to a local redo log's arena or the system log's
tail, which flush writes as it stands.  Readers act on verified frames
(:func:`~repro.wal.system_log.walk_frames`) and unpack only the fields
they need with the payload heads stated here (:data:`UPDATE_HEAD`,
:data:`OP_HEAD`, :data:`TXN_ID`, :data:`TXN_BEGIN_HEAD`,
:func:`decode_str`).  The record classes below are the test and
cold-path form: :func:`pack_record` packs a record object through the
same packers, so the wire format is written down once, and
:func:`decode_payload` builds one from a verified frame.  The bytes are
the original framing (property-tested in
``tests/test_wal_batch_equivalence.py`` and ``tests/test_record_frames.py``).
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field
from enum import IntEnum

from repro.errors import LogError


class RecordType(IntEnum):
    UPDATE = 1
    READ = 2
    OP_BEGIN = 3
    OP_COMMIT = 4
    TXN_BEGIN = 5
    TXN_COMMIT = 6
    TXN_ABORT = 7
    AUDIT_BEGIN = 8
    AUDIT_END = 9
    AMEND = 10
    TXN_PREPARE = 11


@dataclass(frozen=True)
class LogicalUndo:
    """A logical undo description carried by an operation commit record.

    ``op_name`` selects an inverse operation from the storage layer's
    operation registry; ``args`` are its arguments (ints, strings or
    bytes).
    """

    op_name: str
    args: tuple = ()

    def encode(self) -> bytes:
        buf = bytearray()
        _pack_undo(buf, self)
        return bytes(buf)

    @classmethod
    def decode(cls, data: bytes, offset: int = 0) -> tuple["LogicalUndo", int]:
        op_name, offset = decode_str(data, offset)
        (count,) = struct.unpack_from("<H", data, offset)
        offset += 2
        args = []
        for _ in range(count):
            tag = data[offset : offset + 1]
            offset += 1
            if tag == b"b":
                args.append(bool(data[offset]))
                offset += 1
            elif tag == b"i":
                (value,) = struct.unpack_from("<q", data, offset)
                args.append(value)
                offset += 8
            elif tag == b"s":
                value, offset = decode_str(data, offset)
                args.append(value)
            elif tag == b"y":
                (length,) = struct.unpack_from("<I", data, offset)
                offset += 4
                args.append(bytes(data[offset : offset + length]))
                offset += length
            else:
                raise LogError(f"bad logical-undo argument tag {tag!r}")
        return cls(op_name, tuple(args)), offset


@dataclass(frozen=True, slots=True)
class LogRecord:
    """Base class; ``lsn`` is assigned when the record reaches the system log."""

    txn_id: int


@dataclass(frozen=True, slots=True)
class UpdateRecord(LogRecord):
    """Physical redo: the after-image of an in-place update."""

    address: int
    image: bytes = field(repr=False)
    old_checksum: int | None = None  # CW-in-write-records extension

    @property
    def length(self) -> int:
        return len(self.image)

    def approx_size(self) -> int:
        return 21 + len(self.image)


@dataclass(frozen=True, slots=True)
class ReadRecord(LogRecord):
    """Limited read logging: item identity, not the value (Section 4.2)."""

    address: int
    length: int
    checksum: int | None = None

    def approx_size(self) -> int:
        return 21


@dataclass(frozen=True, slots=True)
class OpBeginRecord(LogRecord):
    op_id: int = 0
    level: int = 1
    object_key: str = ""

    def approx_size(self) -> int:
        return 15 + len(self.object_key)


@dataclass(frozen=True, slots=True)
class OpCommitRecord(LogRecord):
    op_id: int = 0
    level: int = 1
    object_key: str = ""
    logical_undo: LogicalUndo = field(default_factory=lambda: LogicalUndo("noop"))

    def approx_size(self) -> int:
        return 15 + len(self.object_key) + len(self.logical_undo.op_name) + 8


@dataclass(frozen=True, slots=True)
class TxnBeginRecord(LogRecord):
    """Transaction start.  ``is_recovery`` marks compensation transactions
    spawned by restart recovery's undo phase: an archive replay must never
    recruit them into the CorruptTransTable (they run post-undo on a clean
    image and their effects are part of the recovered history)."""

    is_recovery: bool = False

    def approx_size(self) -> int:
        return 9


@dataclass(frozen=True, slots=True)
class TxnCommitRecord(LogRecord):
    def approx_size(self) -> int:
        return 8


@dataclass(frozen=True, slots=True)
class TxnPrepareRecord(LogRecord):
    """Presumed-abort two-phase commit: the participant's prepare vote.

    Written (and flushed) by a shard when the cross-shard router asks it
    to prepare a distributed transaction.  ``gid`` is the router-assigned
    global transaction id.  A prepared transaction keeps its locks and
    stays in the ATT; restart recovery treats a prepare record with no
    later commit/abort as *in doubt* and resolves it through the
    coordinator's decision log -- absence of a decision means abort
    (presumed abort needs no coordinator record for aborts).
    """

    gid: str = ""

    def approx_size(self) -> int:
        return 10 + len(self.gid)


@dataclass(frozen=True, slots=True)
class TxnAbortRecord(LogRecord):
    def approx_size(self) -> int:
        return 8


@dataclass(frozen=True, slots=True)
class AuditBeginRecord(LogRecord):
    """Marks the start of an audit; txn_id doubles as the audit id."""

    def approx_size(self) -> int:
        return 8


@dataclass(frozen=True, slots=True)
class AuditEndRecord(LogRecord):
    clean: bool = True
    corrupt_regions: tuple[int, ...] = ()
    region_size: int = 0

    def approx_size(self) -> int:
        return 17 + 4 * len(self.corrupt_regions)


@dataclass(frozen=True, slots=True)
class AmendRecord(LogRecord):
    """Log amendment written at the end of corruption recovery.

    Section 4.3: "Note that this checkpoint invalidates all archives.
    The log may be amended during recovery to avoid this problem, but
    this scheme is omitted for simplicity."  This record is that
    amendment: it preserves the corruption context (corrupt ranges,
    ``Audit_SN``, checksum mode) so a later *archive* recovery can re-run
    the same delete-transaction decisions while replaying the full log --
    keeping archives taken before the corruption valid.

    ``txn_id`` doubles as the recovery episode id.
    """

    corrupt_ranges: tuple[tuple[int, int], ...] = ()
    audit_sn: int = 0
    use_checksums: bool = False
    #: user-specified transactions deleted as logical-corruption roots
    root_txns: tuple[int, ...] = ()

    def approx_size(self) -> int:
        return 22 + 16 * len(self.corrupt_ranges) + 8 * len(self.root_txns)


# --------------------------------------------------------------- codec


def decode_str(data, offset: int) -> tuple[str, int]:
    """The ``u16``-length-prefixed UTF-8 string at ``offset``, and the
    offset after it (an operation's object key, a prepare's gid)."""
    (length,) = struct.unpack_from("<H", data, offset)
    offset += 2
    # str(buffer, encoding) accepts bytes and memoryview slices alike.
    text = str(data[offset : offset + length], "utf-8")
    return text, offset + length


#: The optional-checksum slot's value for "no checksum" (a checksum is a u32).
NO_CHECKSUM = 0xFFFFFFFFFFFFFFFF

_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
#: A frame as it lies in a log: ``u64 lsn | u32 body length | body | u32
#: crc32``, the body being the type byte and the payload.  Frames are
#: packed with their LSN slot in place; a local redo log leaves it zero
#: and the system log stamps it when the frame migrates to its tail.
LSN_SLOT = struct.Struct("<Q")
FRAME_HEAD = 12  # the LSN slot and the body length
# One Struct per record kind folds the LSN slot, the body length, the
# type byte and the fixed part of the payload into a single pack call
# ("<": standard sizes, no padding, so the layout is the pieces' concat).
_L_UPDATE = struct.Struct("<QIBQqIQ")  # ..., txn, address, length, checksum
_L_OP = struct.Struct("<QIBQQBH")  # ..., txn, op_id, level, key length
_L_TXN_BEGIN = struct.Struct("<QIBQB")  # ..., txn, is_recovery
_L_MARKER = struct.Struct("<QIBQ")  # ..., txn
_L_TXN_PREPARE = struct.Struct("<QIBQH")  # ..., txn, gid length
_L_AUDIT_END = struct.Struct("<QIBQBII")  # ..., audit, clean, region size, count
_L_AMEND = struct.Struct("<QIBQQBII")  # ..., txn, audit_sn, checksums, ranges, roots
# Tagged logical-undo arguments: the tag byte and the fixed part together.
_ARG_BOOL = struct.Struct("<BB")
_ARG_INT = struct.Struct("<Bq")
_ARG_STR = struct.Struct("<BH")
_ARG_BYTES = struct.Struct("<BI")
#: Fixed payload heads: what a reader unpacks from a verified frame's
#: payload, and what :func:`decode_payload` builds records from.  An
#: update's image follows its head; a read record is the head alone.
UPDATE_HEAD = struct.Struct("<QqIQ")  # txn_id, address, length, checksum
OP_HEAD = struct.Struct("<QQB")  # txn_id, op_id, level; then the object key
TXN_BEGIN_HEAD = struct.Struct("<QB")  # txn_id, is_recovery
TXN_ID = struct.Struct("<Q")  # every payload starts with the txn_id of LogRecord
_AUDIT_END_HEAD = struct.Struct("<QBII")
_AMEND_HEAD = struct.Struct("<QQBII")
# Plain-int type codes skip IntEnum __index__ on every pack.
_T_UPDATE = int(RecordType.UPDATE)
_T_READ = int(RecordType.READ)
_T_OP_BEGIN = int(RecordType.OP_BEGIN)
_T_OP_COMMIT = int(RecordType.OP_COMMIT)
_T_TXN_BEGIN = int(RecordType.TXN_BEGIN)
TXN_COMMIT = int(RecordType.TXN_COMMIT)
TXN_ABORT = int(RecordType.TXN_ABORT)
AUDIT_BEGIN = int(RecordType.AUDIT_BEGIN)

_crc32 = zlib.crc32


# The packers: one per hot record kind, called with the record's fields
# where the record is made.  Each appends one whole frame to ``buf`` --
# LSN slot, length, body, CRC over the body -- and returns the record's
# ``approx_size`` (what the meter charges as ``log_byte`` / ``readlog_byte``).
# The cold kinds (prepare, audit end, amendment) are framed after them by
# the same rules; :func:`pack_record` reaches every kind through its
# record class.


def pack_update(
    buf: bytearray, lsn: int, txn_id: int, address: int, image, checksum
) -> int:
    """Physical redo: the after-image ``image`` of ``address`` (an
    :class:`UpdateRecord`); ``checksum`` is the old image's, or None."""
    length = len(image)
    buf += _L_UPDATE.pack(
        lsn,
        29 + length,
        _T_UPDATE,
        txn_id,
        address,
        length,
        NO_CHECKSUM if checksum is None else checksum,
    )
    buf += image
    buf += _U32.pack(_crc32(buf[-29 - length :]))
    return 21 + length


def pack_read(
    buf: bytearray, lsn: int, txn_id: int, address: int, length: int, checksum
) -> int:
    """Limited read logging: the item read, not its value (a :class:`ReadRecord`)."""
    buf += _L_UPDATE.pack(
        lsn,
        29,
        _T_READ,
        txn_id,
        address,
        length,
        NO_CHECKSUM if checksum is None else checksum,
    )
    buf += _U32.pack(_crc32(buf[-29:]))
    return 21


def pack_op_begin(
    buf: bytearray, lsn: int, txn_id: int, op_id: int, level: int, object_key: str
) -> int:
    """An :class:`OpBeginRecord`."""
    key = object_key.encode()
    body = 20 + len(key)
    buf += _L_OP.pack(lsn, body, _T_OP_BEGIN, txn_id, op_id, level, len(key))
    buf += key
    buf += _U32.pack(_crc32(buf[-body:]))
    return 15 + len(object_key)


def pack_op_commit(
    buf: bytearray,
    lsn: int,
    txn_id: int,
    op_id: int,
    level: int,
    object_key: str,
    logical_undo: LogicalUndo,
) -> int:
    """An :class:`OpCommitRecord` carrying the operation's logical undo."""
    key = object_key.encode()
    start = len(buf)
    buf += _L_OP.pack(lsn, 0, _T_OP_COMMIT, txn_id, op_id, level, len(key))
    buf += key
    _pack_undo(buf, logical_undo)
    _U32.pack_into(buf, start + 8, len(buf) - start - FRAME_HEAD)
    buf += _U32.pack(_crc32(buf[start + FRAME_HEAD :]))
    return 15 + len(object_key) + len(logical_undo.op_name) + 8


def pack_txn_begin(buf: bytearray, lsn: int, txn_id: int, is_recovery: bool) -> int:
    """A :class:`TxnBeginRecord`."""
    buf += _L_TXN_BEGIN.pack(lsn, 10, _T_TXN_BEGIN, txn_id, is_recovery)
    buf += _U32.pack(_crc32(buf[-10:]))
    return 9


def pack_marker(buf: bytearray, lsn: int, code: int, txn_id: int) -> int:
    """A record whose payload is its id alone: ``code`` is
    :data:`TXN_COMMIT`, :data:`TXN_ABORT` or :data:`AUDIT_BEGIN`."""
    buf += _L_MARKER.pack(lsn, 9, code, txn_id)
    buf += _U32.pack(_crc32(buf[-9:]))
    return 8


_UNDO_ARG_KINDS = (bool, int, str, bytes)


def _undo_arg_kind(arg) -> type:
    """The argument kind of a subclass instance (bool before int)."""
    for kind in _UNDO_ARG_KINDS:
        if isinstance(arg, kind):
            return kind
    raise LogError(f"logical undo argument of unsupported type {type(arg).__name__}")


def _pack_undo(buf: bytearray, undo: LogicalUndo) -> None:
    name = undo.op_name.encode()
    args = undo.args
    buf += _U16.pack(len(name))
    buf += name
    buf += _U16.pack(len(args))
    for arg in args:
        kind = arg.__class__
        if kind not in _UNDO_ARG_KINDS:
            kind = _undo_arg_kind(arg)
        if kind is int:
            buf += _ARG_INT.pack(105, arg)  # b"i"
        elif kind is bytes:
            buf += _ARG_BYTES.pack(121, len(arg))  # b"y"
            buf += arg
        elif kind is str:
            raw = str.encode(arg)
            buf += _ARG_STR.pack(115, len(raw))  # b"s"
            buf += raw
        else:
            buf += _ARG_BOOL.pack(98, arg)  # b"b"


def _frame_update(r: UpdateRecord, buf: bytearray, lsn: int) -> int:
    return pack_update(buf, lsn, r.txn_id, r.address, r.image, r.old_checksum)


def _frame_read(r: ReadRecord, buf: bytearray, lsn: int) -> int:
    return pack_read(buf, lsn, r.txn_id, r.address, r.length, r.checksum)


def _frame_op_begin(r: OpBeginRecord, buf: bytearray, lsn: int) -> int:
    return pack_op_begin(buf, lsn, r.txn_id, r.op_id, r.level, r.object_key)


def _frame_op_commit(r: OpCommitRecord, buf: bytearray, lsn: int) -> int:
    return pack_op_commit(
        buf, lsn, r.txn_id, r.op_id, r.level, r.object_key, r.logical_undo
    )


def _frame_txn_begin(r: TxnBeginRecord, buf: bytearray, lsn: int) -> int:
    return pack_txn_begin(buf, lsn, r.txn_id, r.is_recovery)


def _frame_marker(code: int):
    def frame(r: LogRecord, buf: bytearray, lsn: int) -> int:
        return pack_marker(buf, lsn, code, r.txn_id)

    return frame


def _frame_txn_prepare(r: TxnPrepareRecord, buf: bytearray, lsn: int) -> int:
    gid = r.gid.encode()
    body = 11 + len(gid)
    buf += _L_TXN_PREPARE.pack(lsn, body, RecordType.TXN_PREPARE, r.txn_id, len(gid))
    buf += gid
    buf += _U32.pack(_crc32(buf[-body:]))
    return r.approx_size()


def _frame_audit_end(r: AuditEndRecord, buf: bytearray, lsn: int) -> int:
    regions = r.corrupt_regions
    body = 18 + 4 * len(regions)
    buf += _L_AUDIT_END.pack(
        lsn,
        body,
        RecordType.AUDIT_END,
        r.txn_id,
        int(r.clean),
        r.region_size,
        len(regions),
    )
    buf += struct.pack(f"<{len(regions)}I", *regions)
    buf += _U32.pack(_crc32(buf[-body:]))
    return r.approx_size()


def _frame_amend(r: AmendRecord, buf: bytearray, lsn: int) -> int:
    ranges = r.corrupt_ranges
    roots = r.root_txns
    body = 26 + 16 * len(ranges) + 8 * len(roots)
    buf += _L_AMEND.pack(
        lsn,
        body,
        RecordType.AMEND,
        r.txn_id,
        r.audit_sn,
        int(r.use_checksums),
        len(ranges),
        len(roots),
    )
    if ranges:
        buf += struct.pack(
            f"<{2 * len(ranges)}q", *(value for pair in ranges for value in pair)
        )
    buf += struct.pack(f"<{len(roots)}Q", *roots)
    buf += _U32.pack(_crc32(buf[-body:]))
    return r.approx_size()


_FRAMERS: dict[type, object] = {
    UpdateRecord: _frame_update,
    ReadRecord: _frame_read,
    OpBeginRecord: _frame_op_begin,
    OpCommitRecord: _frame_op_commit,
    TxnBeginRecord: _frame_txn_begin,
    TxnCommitRecord: _frame_marker(TXN_COMMIT),
    TxnAbortRecord: _frame_marker(TXN_ABORT),
    AuditBeginRecord: _frame_marker(AUDIT_BEGIN),
    AuditEndRecord: _frame_audit_end,
    AmendRecord: _frame_amend,
    TxnPrepareRecord: _frame_txn_prepare,
}


def pack_record(record: LogRecord, buf: bytearray, lsn: int = 0) -> int:
    """Append ``record``'s frame, LSN slot included; returns its approx size.

    The record-object door to the packers, for callers that hold a record
    rather than its fields (``SystemLog.append`` / ``extend``,
    ``LocalRedoLog.append``).
    """
    framer = _FRAMERS.get(type(record))
    if framer is None:
        raise LogError(f"cannot encode record of type {type(record).__name__}")
    return framer(record, buf, lsn)


def _dec_update(data, pos: int, end: int) -> UpdateRecord:
    txn_id, address, image_len, raw = UPDATE_HEAD.unpack_from(data, pos)
    pos += UPDATE_HEAD.size
    return UpdateRecord(
        txn_id,
        address,
        bytes(data[pos : pos + image_len]),
        None if raw == NO_CHECKSUM else raw,
    )


def _dec_read(data, pos: int, end: int) -> ReadRecord:
    txn_id, address, length, raw = UPDATE_HEAD.unpack_from(data, pos)
    return ReadRecord(txn_id, address, length, None if raw == NO_CHECKSUM else raw)


def _dec_op_begin(data, pos: int, end: int) -> OpBeginRecord:
    txn_id, op_id, level = OP_HEAD.unpack_from(data, pos)
    key, _pos = decode_str(data, pos + OP_HEAD.size)
    return OpBeginRecord(txn_id, op_id, level, key)


def _dec_op_commit(data, pos: int, end: int) -> OpCommitRecord:
    txn_id, op_id, level = OP_HEAD.unpack_from(data, pos)
    key, pos = decode_str(data, pos + OP_HEAD.size)
    undo, _pos = LogicalUndo.decode(data, pos)
    return OpCommitRecord(txn_id, op_id, level, key, undo)


def _dec_txn_begin(data, pos: int, end: int) -> TxnBeginRecord:
    txn_id, is_recovery = TXN_BEGIN_HEAD.unpack_from(data, pos)
    return TxnBeginRecord(txn_id, bool(is_recovery))


def _dec_u64(klass):
    unpack = TXN_ID.unpack_from

    def dec(data, pos: int, end: int):
        return klass(unpack(data, pos)[0])

    return dec


def _dec_txn_prepare(data, pos: int, end: int) -> TxnPrepareRecord:
    (txn_id,) = TXN_ID.unpack_from(data, pos)
    gid, _pos = decode_str(data, pos + TXN_ID.size)
    return TxnPrepareRecord(txn_id, gid)


def _dec_audit_end(data, pos: int, end: int) -> AuditEndRecord:
    audit_id, clean, region_size, count = _AUDIT_END_HEAD.unpack_from(data, pos)
    regions = struct.unpack_from(f"<{count}I", data, pos + 17)
    return AuditEndRecord(audit_id, bool(clean), tuple(regions), region_size)


def _dec_amend(data, pos: int, end: int) -> AmendRecord:
    txn_id, audit_sn, use_checksums, count, root_count = _AMEND_HEAD.unpack_from(
        data, pos
    )
    values = struct.unpack_from(f"<{2 * count}q", data, pos + 25)
    ranges = tuple(zip(values[0::2], values[1::2]))
    roots = struct.unpack_from(f"<{root_count}Q", data, pos + 25 + 16 * count)
    return AmendRecord(txn_id, ranges, audit_sn, bool(use_checksums), tuple(roots))


_DECODERS: dict[int, object] = {
    RecordType.UPDATE: _dec_update,
    RecordType.READ: _dec_read,
    RecordType.OP_BEGIN: _dec_op_begin,
    RecordType.OP_COMMIT: _dec_op_commit,
    RecordType.TXN_BEGIN: _dec_txn_begin,
    RecordType.TXN_COMMIT: _dec_u64(TxnCommitRecord),
    RecordType.TXN_ABORT: _dec_u64(TxnAbortRecord),
    RecordType.AUDIT_BEGIN: _dec_u64(AuditBeginRecord),
    RecordType.AUDIT_END: _dec_audit_end,
    RecordType.AMEND: _dec_amend,
    RecordType.TXN_PREPARE: _dec_txn_prepare,
}


def decode_payload(rtype: int, data, pos: int, end: int) -> LogRecord:
    """Build the record of wire type ``rtype`` whose payload is
    ``data[pos:end]``, for callers that verified the frame themselves."""
    decoder = _DECODERS.get(rtype)
    if decoder is None:
        raise LogError(f"unknown record type {rtype}")
    return decoder(data, pos, end)

