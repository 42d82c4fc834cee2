"""Log record codec: roundtrips, CRC protection, logical undo encoding,
and the payload layout frame readers unpack."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import LogError
from repro.wal.records import (
    LSN_SLOT,
    NO_CHECKSUM,
    OP_HEAD,
    TXN_BEGIN_HEAD,
    TXN_ID,
    UPDATE_HEAD,
    AmendRecord,
    AuditBeginRecord,
    AuditEndRecord,
    LogicalUndo,
    OpBeginRecord,
    OpCommitRecord,
    ReadRecord,
    RecordType,
    TxnAbortRecord,
    TxnBeginRecord,
    TxnCommitRecord,
    TxnPrepareRecord,
    UpdateRecord,
    decode_payload,
    decode_str,
)
from repro.wal.system_log import walk_frames
from tests.conftest import frames_of, records_of

EXAMPLES = [
    UpdateRecord(1, 0x100, b"image-bytes"),
    UpdateRecord(2, 0, b"", old_checksum=0xDEADBEEF),
    UpdateRecord(3, 7, b"\x00" * 100, old_checksum=0),
    ReadRecord(4, 0x200, 64),
    ReadRecord(5, 0x200, 64, checksum=123),
    OpBeginRecord(6, op_id=9, level=2, object_key="acct:15"),
    OpCommitRecord(
        7,
        op_id=9,
        level=1,
        object_key="acct:15",
        logical_undo=LogicalUndo("undo_update", ("acct", 15, 8, b"\x01\x02")),
    ),
    TxnBeginRecord(8),
    TxnBeginRecord(8, is_recovery=True),
    TxnCommitRecord(9),
    TxnAbortRecord(10),
    AuditBeginRecord(11),
    AuditEndRecord(12, clean=True),
    AuditEndRecord(13, clean=False, corrupt_regions=(1, 5, 9), region_size=64),
    AmendRecord(14, corrupt_ranges=((0, 64), (4096, 8192)), audit_sn=7),
    AmendRecord(15, audit_sn=0, use_checksums=True, root_txns=(3, 4, 5)),
]


class TestRoundtrips:
    @pytest.mark.parametrize("record", EXAMPLES, ids=lambda r: type(r).__name__)
    def test_encode_decode_roundtrip(self, record):
        frame = frames_of(record, first_lsn=5)
        ((lsn, code, pos, end),) = walk_frames(memoryview(frame))
        assert (lsn, decode_payload(code, frame, pos, end)) == (5, record)
        assert end + 4 == len(frame)  # the frame is the whole buffer

    def test_stream_of_records(self):
        blob = frames_of(*EXAMPLES)
        assert records_of(blob) == list(enumerate(EXAMPLES))

    @given(
        st.integers(min_value=0, max_value=2**63),
        st.integers(min_value=0, max_value=2**40),
        st.binary(max_size=300),
        st.one_of(st.none(), st.integers(min_value=0, max_value=2**32 - 1)),
    )
    def test_update_record_roundtrip_property(self, txn_id, address, image, checksum):
        record = UpdateRecord(txn_id, address, image, checksum)
        assert records_of(frames_of(record)) == [(0, record)]


class TestCorruptionOfTheLogItself:
    def test_flipped_byte_detected_by_crc(self):
        blob = bytearray(frames_of(EXAMPLES[0]))
        blob[LSN_SLOT.size + 6] ^= 0xFF
        with pytest.raises(LogError, match="CRC"):
            records_of(bytes(blob))

    def test_truncated_frame_detected(self):
        blob = frames_of(EXAMPLES[0])
        with pytest.raises(LogError):
            records_of(blob[: len(blob) - 3])

    def test_truncated_header_detected(self):
        with pytest.raises(LogError):
            records_of(b"\x01\x02")


def _handler_fields(code: int, view, pos: int, end: int) -> dict:
    """What a frame reader unpacks from a payload, by the heads and
    helpers restart's handlers, region repair, ``trace_readers`` and the
    standby use -- the layout stated once in ``repro.wal.records``."""
    if code in (RecordType.UPDATE, RecordType.READ):
        txn_id, address, length, checksum = UPDATE_HEAD.unpack_from(view, pos)
        fields = {
            "txn_id": txn_id,
            "address": address,
            "length": length,
            "old_checksum" if code == RecordType.UPDATE else "checksum": (
                None if checksum == NO_CHECKSUM else checksum
            ),
        }
        if code == RecordType.UPDATE:
            fields["image"] = bytes(view[pos + UPDATE_HEAD.size : end])
        else:
            assert pos + UPDATE_HEAD.size == end
        return fields
    if code in (RecordType.OP_BEGIN, RecordType.OP_COMMIT):
        txn_id, op_id, level = OP_HEAD.unpack_from(view, pos)
        key, after = decode_str(view, pos + OP_HEAD.size)
        fields = {"txn_id": txn_id, "op_id": op_id, "level": level, "object_key": key}
        if code == RecordType.OP_COMMIT:
            fields["logical_undo"], after = LogicalUndo.decode(view, after)
        assert after == end
        return fields
    if code == RecordType.TXN_BEGIN:
        txn_id, is_recovery = TXN_BEGIN_HEAD.unpack_from(view, pos)
        assert pos + TXN_BEGIN_HEAD.size == end
        return {"txn_id": txn_id, "is_recovery": bool(is_recovery)}
    fields = {"txn_id": TXN_ID.unpack_from(view, pos)[0]}
    if code == RecordType.TXN_PREPARE:
        fields["gid"], after = decode_str(view, pos + TXN_ID.size)
        assert after == end
    return fields


EVERY_KIND = EXAMPLES + [TxnPrepareRecord(16, gid="g-7"), TxnPrepareRecord(17)]


class TestHandlerLayout:
    def test_every_kind_is_covered(self):
        assert {int(code) for code in RecordType} == {
            next(walk_frames(memoryview(frames_of(r))))[1] for r in EVERY_KIND
        }

    @pytest.mark.parametrize("record", EVERY_KIND, ids=lambda r: type(r).__name__)
    def test_handler_unpack_matches_decode_payload(self, record):
        frame = memoryview(frames_of(record))
        ((_lsn, code, pos, end),) = walk_frames(frame)
        decoded = decode_payload(code, frame, pos, end)
        assert decoded == record
        fields = _handler_fields(code, frame, pos, end)
        assert fields == {name: getattr(decoded, name) for name in fields}


class TestLogicalUndo:
    def test_all_argument_types(self):
        undo = LogicalUndo("op", (-5, "text", b"\xff\x00", True, False, 0))
        decoded, _ = LogicalUndo.decode(undo.encode())
        assert decoded == undo
        # bool survives as bool, not int
        assert decoded.args[3] is True and decoded.args[4] is False

    def test_empty_args(self):
        undo = LogicalUndo("noop")
        decoded, _ = LogicalUndo.decode(undo.encode())
        assert decoded == undo

    def test_unsupported_arg_type_rejected(self):
        with pytest.raises(LogError):
            LogicalUndo("op", (1.5,)).encode()

    def test_unicode_op_name(self):
        undo = LogicalUndo("op-éü", ("✓",))
        decoded, _ = LogicalUndo.decode(undo.encode())
        assert decoded == undo

    @given(
        st.text(max_size=20),
        st.lists(
            st.one_of(
                st.integers(min_value=-(2**62), max_value=2**62),
                st.text(max_size=30),
                st.binary(max_size=50),
                st.booleans(),
            ),
            max_size=8,
        ),
    )
    def test_roundtrip_property(self, name, args):
        undo = LogicalUndo(name, tuple(args))
        decoded, _ = LogicalUndo.decode(undo.encode())
        assert decoded == undo


class TestApproxSizes:
    @pytest.mark.parametrize("record", EXAMPLES, ids=lambda r: type(r).__name__)
    def test_approx_size_within_2x_of_encoded(self, record):
        """Cost accounting uses approx_size; keep it honest."""
        encoded = len(frames_of(record)) - LSN_SLOT.size
        approx = record.approx_size()
        assert approx > 0
        assert encoded / 3 <= approx <= encoded * 3
