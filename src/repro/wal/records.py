"""Log record types and their binary codec.

Record kinds follow Section 2.1 plus the paper's two additions:

* ``ReadRecord`` -- the Read Logging scheme's "identity of the item and an
  optional checksum of the value, but not the value itself" (Section 4.2);
* ``UpdateRecord.old_checksum`` -- the "codewords in write log records"
  extension of Section 4.3, which lets a write be treated as a read
  followed by a write during corruption recovery.

Stable-log framing is ``u32 length | u8 type | payload | u32 crc32``; the
CRC covers type and payload, so a torn or corrupted stable log is detected
at scan time instead of silently replayed.

The codec is batch-oriented: :func:`encode_into` appends a frame to a
caller-owned ``bytearray`` (one ``zlib.crc32`` per frame, no intermediate
``bytes`` joins), and :func:`decode_record`/:func:`iter_records` decode
straight out of a ``memoryview`` so scanning a whole stable file never
slices per-record copies of it.  Both directions dispatch through
per-type tables with one combined :class:`struct.Struct` per record kind;
the wire format is byte-for-byte the original framing (property-tested in
``tests/test_wal_batch_equivalence.py``).
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
        parts = [_encode_str(self.op_name), struct.pack("<H", len(self.args))]
        for arg in self.args:
            if isinstance(arg, bool):  # bool is an int subclass; keep it distinct
                parts.append(b"b" + struct.pack("<B", int(arg)))
            elif isinstance(arg, int):
                parts.append(b"i" + struct.pack("<q", arg))
            elif isinstance(arg, str):
                parts.append(b"s" + _encode_str(arg))
            elif isinstance(arg, bytes):
                parts.append(b"y" + struct.pack("<I", len(arg)) + arg)
            else:
                raise LogError(
                    f"logical undo argument of unsupported type {type(arg).__name__}"
                )
        return b"".join(parts)

    @classmethod
    def decode(cls, data: bytes, offset: int = 0) -> tuple["LogicalUndo", int]:
        op_name, offset = _decode_str(data, offset)
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
                value, offset = _decode_str(data, offset)
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


def _encode_str(text: str) -> bytes:
    raw = text.encode("utf-8")
    return struct.pack("<H", len(raw)) + raw


def _decode_str(data, offset: int) -> tuple[str, int]:
    (length,) = struct.unpack_from("<H", data, offset)
    offset += 2
    # str(buffer, encoding) accepts bytes and memoryview slices alike.
    text = str(data[offset : offset + length], "utf-8")
    return text, offset + length


_OPT_U32_NONE = 0xFFFFFFFFFFFFFFFF


# One combined Struct per record kind covers the type byte plus the fixed
# part of the payload in a single pack/unpack call ("<" means standard
# sizes, no padding, so the combined layout is byte-identical to packing
# the pieces separately).
_U32 = struct.Struct("<I")
_F_OP = struct.Struct("<BQQBH")       # type, txn_id, op_id, level, key_len
_F_AUDIT_END = struct.Struct("<BQBII")
_F_AMEND = struct.Struct("<BQQBII")
_F_TXN_PREPARE = struct.Struct("<BQH")  # type, txn_id, gid_len
_P_UPDATE = struct.Struct("<QqIQ")    # payload-only variants for decode
_P_OP = struct.Struct("<QQB")
_P_TXN_BEGIN = struct.Struct("<QB")
_P_U64 = struct.Struct("<Q")
_P_AUDIT_END = struct.Struct("<QBII")
_P_AMEND = struct.Struct("<QQBII")
# Hot-path header variants that fold the u32 length prefix into the same
# pack call: one allocation per frame header instead of two.  Plain-int
# type codes skip IntEnum __index__ on every pack.
_H_UPDATE = struct.Struct("<IBQqIQ")  # body_len, type, txn, addr, len, cksum
_H_TXN_BEGIN = struct.Struct("<IBQB")
_H_U64 = struct.Struct("<IBQ")
#: Fixed payload heads, public for readers that act on a verified frame
#: without building its record (restart redo's fast path).
UPDATE_HEAD = _P_UPDATE  # txn_id, address, image length, old checksum; the image follows
OP_HEAD = _P_OP  # txn_id, op_id, level
TXN_ID = _P_U64  # every payload starts with the txn_id of LogRecord
_T_UPDATE = int(RecordType.UPDATE)
_T_READ = int(RecordType.READ)
_T_TXN_BEGIN = int(RecordType.TXN_BEGIN)

_crc32 = zlib.crc32


def _append_crc(buf: bytearray, body_start: int) -> None:
    # The temporary memoryview is released before the append resizes buf.
    buf += _U32.pack(_crc32(memoryview(buf)[body_start:]) & 0xFFFFFFFF)


def _enc_update(r: UpdateRecord, buf: bytearray) -> None:
    image = r.image
    checksum = r.old_checksum
    start = len(buf)
    buf += _H_UPDATE.pack(
        29 + len(image),
        _T_UPDATE,
        r.txn_id,
        r.address,
        len(image),
        _OPT_U32_NONE if checksum is None else checksum,
    )
    buf += image
    _append_crc(buf, start + 4)


def _enc_read(r: ReadRecord, buf: bytearray) -> None:
    checksum = r.checksum
    start = len(buf)
    buf += _H_UPDATE.pack(
        29,
        _T_READ,
        r.txn_id,
        r.address,
        r.length,
        _OPT_U32_NONE if checksum is None else checksum,
    )
    _append_crc(buf, start + 4)


def _enc_op_begin(r: OpBeginRecord, buf: bytearray) -> None:
    key = r.object_key.encode("utf-8")
    start = len(buf)
    buf += _U32.pack(20 + len(key))
    buf += _F_OP.pack(RecordType.OP_BEGIN, r.txn_id, r.op_id, r.level, len(key))
    buf += key
    _append_crc(buf, start + 4)


def _enc_op_commit(r: OpCommitRecord, buf: bytearray) -> None:
    key = r.object_key.encode("utf-8")
    undo = r.logical_undo.encode()
    start = len(buf)
    buf += _U32.pack(20 + len(key) + len(undo))
    buf += _F_OP.pack(RecordType.OP_COMMIT, r.txn_id, r.op_id, r.level, len(key))
    buf += key
    buf += undo
    _append_crc(buf, start + 4)


def _enc_txn_begin(r: TxnBeginRecord, buf: bytearray) -> None:
    start = len(buf)
    buf += _H_TXN_BEGIN.pack(10, _T_TXN_BEGIN, r.txn_id, int(r.is_recovery))
    _append_crc(buf, start + 4)


def _enc_u64(rtype: int):
    code = int(rtype)

    def enc(r: LogRecord, buf: bytearray) -> None:
        start = len(buf)
        buf += _H_U64.pack(9, code, r.txn_id)
        _append_crc(buf, start + 4)

    return enc


def _enc_txn_prepare(r: TxnPrepareRecord, buf: bytearray) -> None:
    gid = r.gid.encode("utf-8")
    start = len(buf)
    buf += _U32.pack(11 + len(gid))
    buf += _F_TXN_PREPARE.pack(RecordType.TXN_PREPARE, r.txn_id, len(gid))
    buf += gid
    _append_crc(buf, start + 4)


def _enc_audit_end(r: AuditEndRecord, buf: bytearray) -> None:
    regions = r.corrupt_regions
    start = len(buf)
    buf += _U32.pack(18 + 4 * len(regions))
    buf += _F_AUDIT_END.pack(
        RecordType.AUDIT_END, r.txn_id, int(r.clean), r.region_size, len(regions)
    )
    buf += struct.pack(f"<{len(regions)}I", *regions)
    _append_crc(buf, start + 4)


def _enc_amend(r: AmendRecord, buf: bytearray) -> None:
    ranges = r.corrupt_ranges
    roots = r.root_txns
    start = len(buf)
    buf += _U32.pack(26 + 16 * len(ranges) + 8 * len(roots))
    buf += _F_AMEND.pack(
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
    _append_crc(buf, start + 4)


_ENCODERS: dict[type, object] = {
    UpdateRecord: _enc_update,
    ReadRecord: _enc_read,
    OpBeginRecord: _enc_op_begin,
    OpCommitRecord: _enc_op_commit,
    TxnBeginRecord: _enc_txn_begin,
    TxnCommitRecord: _enc_u64(RecordType.TXN_COMMIT),
    TxnAbortRecord: _enc_u64(RecordType.TXN_ABORT),
    AuditBeginRecord: _enc_u64(RecordType.AUDIT_BEGIN),
    AuditEndRecord: _enc_audit_end,
    AmendRecord: _enc_amend,
    TxnPrepareRecord: _enc_txn_prepare,
}


def encode_into(record: LogRecord, buf: bytearray) -> int:
    """Append one framed record to ``buf``; returns the bytes appended.

    The batch entry point: a flush appends every tail record into one
    preallocated ``bytearray`` and writes it with a single syscall.
    """
    encoder = _ENCODERS.get(type(record))
    if encoder is None:
        for klass in type(record).__mro__:  # user subclasses of a record type
            encoder = _ENCODERS.get(klass)
            if encoder is not None:
                break
        else:
            raise LogError(f"cannot encode record of type {type(record).__name__}")
    before = len(buf)
    encoder(record, buf)
    return len(buf) - before


def encode_record(record: LogRecord) -> bytes:
    """Encode a record with framing and CRC for the stable log."""
    buf = bytearray()
    encode_into(record, buf)
    return bytes(buf)


def _dec_update(data, pos: int, end: int) -> UpdateRecord:
    txn_id, address, image_len, raw = _P_UPDATE.unpack_from(data, pos)
    pos += 28
    return UpdateRecord(
        txn_id,
        address,
        bytes(data[pos : pos + image_len]),
        None if raw == _OPT_U32_NONE else raw,
    )


def _dec_read(data, pos: int, end: int) -> ReadRecord:
    txn_id, address, length, raw = _P_UPDATE.unpack_from(data, pos)
    return ReadRecord(txn_id, address, length, None if raw == _OPT_U32_NONE else raw)


def _dec_op_begin(data, pos: int, end: int) -> OpBeginRecord:
    txn_id, op_id, level = _P_OP.unpack_from(data, pos)
    key, _pos = _decode_str(data, pos + 17)
    return OpBeginRecord(txn_id, op_id, level, key)


def _dec_op_commit(data, pos: int, end: int) -> OpCommitRecord:
    txn_id, op_id, level = _P_OP.unpack_from(data, pos)
    key, pos = _decode_str(data, pos + 17)
    undo, _pos = LogicalUndo.decode(data, pos)
    return OpCommitRecord(txn_id, op_id, level, key, undo)


def _dec_txn_begin(data, pos: int, end: int) -> TxnBeginRecord:
    txn_id, is_recovery = _P_TXN_BEGIN.unpack_from(data, pos)
    return TxnBeginRecord(txn_id, bool(is_recovery))


def _dec_u64(klass):
    unpack = _P_U64.unpack_from

    def dec(data, pos: int, end: int):
        return klass(unpack(data, pos)[0])

    return dec


def _dec_txn_prepare(data, pos: int, end: int) -> TxnPrepareRecord:
    (txn_id,) = _P_U64.unpack_from(data, pos)
    gid, _pos = _decode_str(data, pos + 8)
    return TxnPrepareRecord(txn_id, gid)


def _dec_audit_end(data, pos: int, end: int) -> AuditEndRecord:
    audit_id, clean, region_size, count = _P_AUDIT_END.unpack_from(data, pos)
    regions = struct.unpack_from(f"<{count}I", data, pos + 17)
    return AuditEndRecord(audit_id, bool(clean), tuple(regions), region_size)


def _dec_amend(data, pos: int, end: int) -> AmendRecord:
    txn_id, audit_sn, use_checksums, count, root_count = _P_AMEND.unpack_from(
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

#: Record class -> wire type code, for building :func:`decode_record`
#: ``want`` filters from record classes.
RECORD_TYPE_CODES: dict[type, int] = {
    UpdateRecord: RecordType.UPDATE,
    ReadRecord: RecordType.READ,
    OpBeginRecord: RecordType.OP_BEGIN,
    OpCommitRecord: RecordType.OP_COMMIT,
    TxnBeginRecord: RecordType.TXN_BEGIN,
    TxnCommitRecord: RecordType.TXN_COMMIT,
    TxnAbortRecord: RecordType.TXN_ABORT,
    AuditBeginRecord: RecordType.AUDIT_BEGIN,
    AuditEndRecord: RecordType.AUDIT_END,
    AmendRecord: RecordType.AMEND,
    TxnPrepareRecord: RecordType.TXN_PREPARE,
}


def type_codes(classes) -> frozenset:
    """Wire type codes for an iterable of record classes (``want`` filter)."""
    try:
        return frozenset(RECORD_TYPE_CODES[klass] for klass in classes)
    except KeyError as exc:
        raise LogError(f"not a log record class: {exc.args[0]!r}") from None


def decode_record(data, offset: int = 0, want=None):
    """Decode one framed record; returns ``(record, next_offset)``.

    ``data`` may be ``bytes`` or a ``memoryview`` (batch scans pass one
    view over the whole file, so nothing is sliced per record).  With a
    ``want`` set of wire type codes (see :func:`type_codes`), frames of
    other types are CRC-verified but not constructed and ``record`` is
    ``None`` -- the cheap path for type-filtered scans.
    """
    size = len(data)
    if offset + 4 > size:
        raise LogError("truncated record frame")
    (body_len,) = _U32.unpack_from(data, offset)
    body_start = offset + 4
    body_end = body_start + body_len
    if body_len == 0 or body_end + 4 > size:
        raise LogError("truncated record body")
    (crc,) = _U32.unpack_from(data, body_end)
    if _crc32(data[body_start:body_end]) & 0xFFFFFFFF != crc:
        raise LogError("log record CRC mismatch")
    next_offset = body_end + 4
    rtype = data[body_start]
    if want is not None and rtype not in want:
        return None, next_offset
    return decode_payload(rtype, data, body_start + 1, body_end), next_offset


def decode_payload(rtype: int, data, pos: int, end: int) -> LogRecord:
    """Build the record of wire type ``rtype`` whose payload is
    ``data[pos:end]``, for callers that verified the frame themselves."""
    decoder = _DECODERS.get(rtype)
    if decoder is None:
        raise LogError(f"unknown record type {rtype}")
    return decoder(data, pos, end)


def iter_records(data, offset: int = 0, want=None):
    """Stream-decode a buffer of framed records (no LSN headers).

    Wraps ``data`` in a single ``memoryview`` and yields records until
    the buffer is exhausted; a torn or corrupt frame raises
    :class:`~repro.errors.LogError` at that point.  ``want`` filters by
    wire type code without constructing skipped records.
    """
    if not isinstance(data, memoryview):
        data = memoryview(data)
    size = len(data)
    while offset < size:
        record, offset = decode_record(data, offset, want)
        if record is not None:
            yield record
