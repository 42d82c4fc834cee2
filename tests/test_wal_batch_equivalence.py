"""Batched WAL codec equivalence: bytes and meter identical to the seed.

The batched write path (``pack_record`` + single-buffer ``flush`` +
``extend`` bulk charging) is a pure performance change: the stable-log
*bytes* and the *meter trace* must be indistinguishable from the original
per-record implementation.  This suite pins that with a seed-faithful
reference codec copied inline (the pre-batching per-record encoder and
``flush`` logic) and property tests over randomized records, read back
through ``walk_frames`` + ``decode_payload``.
"""

from __future__ import annotations

import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LogError
from repro.sim.clock import Meter, VirtualClock
from repro.sim.costs import DEFAULT_COSTS
from repro.wal.records import (
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
    UpdateRecord,
    decode_payload,
    pack_record,
)
from repro.wal.system_log import SystemLog, walk_frames
from tests.conftest import frames_of, records_of

# --------------------------------------------------------------------------
# Seed-faithful reference codec: the pre-batching encoder, verbatim logic
# (isinstance chain, per-piece struct.pack, bytes joins).  Byte-identity of
# the new encoder against THIS is what keeps old logs readable and new logs
# readable by old code.
# --------------------------------------------------------------------------

_OPT_U32_NONE = 0xFFFFFFFFFFFFFFFF


def _seed_encode_str(text: str) -> bytes:
    raw = text.encode("utf-8")
    return struct.pack("<H", len(raw)) + raw


def _seed_pack_opt_u32(value):
    return struct.pack("<Q", _OPT_U32_NONE if value is None else value)


def seed_encode_record(record) -> bytes:
    if isinstance(record, UpdateRecord):
        rtype = RecordType.UPDATE
        payload = (
            struct.pack("<QqI", record.txn_id, record.address, len(record.image))
            + _seed_pack_opt_u32(record.old_checksum)
            + record.image
        )
    elif isinstance(record, ReadRecord):
        rtype = RecordType.READ
        payload = struct.pack(
            "<QqI", record.txn_id, record.address, record.length
        ) + _seed_pack_opt_u32(record.checksum)
    elif isinstance(record, OpBeginRecord):
        rtype = RecordType.OP_BEGIN
        payload = struct.pack(
            "<QQB", record.txn_id, record.op_id, record.level
        ) + _seed_encode_str(record.object_key)
    elif isinstance(record, OpCommitRecord):
        rtype = RecordType.OP_COMMIT
        payload = (
            struct.pack("<QQB", record.txn_id, record.op_id, record.level)
            + _seed_encode_str(record.object_key)
            + record.logical_undo.encode()
        )
    elif isinstance(record, TxnBeginRecord):
        rtype = RecordType.TXN_BEGIN
        payload = struct.pack("<QB", record.txn_id, int(record.is_recovery))
    elif isinstance(record, TxnCommitRecord):
        rtype = RecordType.TXN_COMMIT
        payload = struct.pack("<Q", record.txn_id)
    elif isinstance(record, TxnAbortRecord):
        rtype = RecordType.TXN_ABORT
        payload = struct.pack("<Q", record.txn_id)
    elif isinstance(record, AuditBeginRecord):
        rtype = RecordType.AUDIT_BEGIN
        payload = struct.pack("<Q", record.txn_id)
    elif isinstance(record, AuditEndRecord):
        rtype = RecordType.AUDIT_END
        payload = struct.pack(
            "<QBII",
            record.txn_id,
            int(record.clean),
            record.region_size,
            len(record.corrupt_regions),
        ) + struct.pack(f"<{len(record.corrupt_regions)}I", *record.corrupt_regions)
    elif isinstance(record, AmendRecord):
        rtype = RecordType.AMEND
        payload = struct.pack(
            "<QQBII",
            record.txn_id,
            record.audit_sn,
            int(record.use_checksums),
            len(record.corrupt_ranges),
            len(record.root_txns),
        )
        for start, length in record.corrupt_ranges:
            payload += struct.pack("<qq", start, length)
        payload += struct.pack(f"<{len(record.root_txns)}Q", *record.root_txns)
    else:  # pragma: no cover - strategy only builds known types
        raise LogError(f"cannot encode record of type {type(record).__name__}")

    body = bytes([rtype]) + payload
    crc = zlib.crc32(body) & 0xFFFFFFFF
    return struct.pack("<I", len(body)) + body + struct.pack("<I", crc)


def seed_stable_bytes(framed: list[tuple[int, object]]) -> bytes:
    """Exactly what the seed ``flush`` wrote: lsn header + framed record."""
    return b"".join(
        struct.pack("<Q", lsn) + seed_encode_record(record) for lsn, record in framed
    )


# --------------------------------------------------------------------------
# Record strategies
# --------------------------------------------------------------------------

_u64 = st.integers(min_value=0, max_value=2**64 - 1)
_i48 = st.integers(min_value=-(2**47), max_value=2**47 - 1)
_u32 = st.integers(min_value=0, max_value=2**32 - 1)
_u8 = st.integers(min_value=0, max_value=255)
_opt_u32 = st.none() | st.integers(min_value=0, max_value=2**32 - 1)
_key = st.text(max_size=12)

_undo_arg = (
    st.booleans()
    | st.integers(min_value=-(2**63), max_value=2**63 - 1)
    | st.text(max_size=8)
    | st.binary(max_size=8)
)
_logical_undo = st.builds(
    LogicalUndo,
    op_name=st.text(max_size=10),
    args=st.lists(_undo_arg, max_size=4).map(tuple),
)

_record = st.one_of(
    st.builds(
        UpdateRecord,
        txn_id=_u64,
        address=_i48,
        image=st.binary(max_size=64),
        old_checksum=_opt_u32,
    ),
    st.builds(
        ReadRecord, txn_id=_u64, address=_i48, length=_u32, checksum=_opt_u32
    ),
    st.builds(
        OpBeginRecord, txn_id=_u64, op_id=_u64, level=_u8, object_key=_key
    ),
    st.builds(
        OpCommitRecord,
        txn_id=_u64,
        op_id=_u64,
        level=_u8,
        object_key=_key,
        logical_undo=_logical_undo,
    ),
    st.builds(TxnBeginRecord, txn_id=_u64, is_recovery=st.booleans()),
    st.builds(TxnCommitRecord, txn_id=_u64),
    st.builds(TxnAbortRecord, txn_id=_u64),
    st.builds(AuditBeginRecord, txn_id=_u64),
    st.builds(
        AuditEndRecord,
        txn_id=_u64,
        clean=st.booleans(),
        corrupt_regions=st.lists(_u32, max_size=5).map(tuple),
        region_size=_u32,
    ),
    st.builds(
        AmendRecord,
        txn_id=_u64,
        corrupt_ranges=st.lists(st.tuples(_i48, _i48), max_size=4).map(tuple),
        audit_sn=_u64,
        use_checksums=st.booleans(),
        root_txns=st.lists(_u64, max_size=4).map(tuple),
    ),
)


def make_meter() -> Meter:
    return Meter(VirtualClock(), DEFAULT_COSTS)


# --------------------------------------------------------------------------
# Codec equivalence
# --------------------------------------------------------------------------


class TestCodecByteIdentity:
    @given(record=_record, lsn=_u64)
    @settings(max_examples=300, deadline=None)
    def test_pack_record_matches_seed_bytes(self, record, lsn):
        expected = seed_encode_record(record)
        buf = bytearray()
        pack_record(record, buf, lsn)
        assert bytes(buf) == struct.pack("<Q", lsn) + expected
        assert frames_of(record) == seed_stable_bytes([(0, record)])

    @given(record=_record, prefix=st.binary(max_size=16))
    @settings(max_examples=200, deadline=None)
    def test_pack_record_appends_after_existing_content(self, record, prefix):
        buf = bytearray(prefix)
        pack_record(record, buf)
        assert bytes(buf) == prefix + seed_stable_bytes([(0, record)])

    @given(record=_record)
    @settings(max_examples=200, deadline=None)
    def test_decode_roundtrip_from_memoryview(self, record):
        frame = frames_of(record)
        ((_lsn, code, pos, end),) = walk_frames(memoryview(frame))
        assert decode_payload(code, memoryview(frame), pos, end) == record
        assert end + 4 == len(frame)

    @given(records=st.lists(_record, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_walk_frames_matches_sequential_decode(self, records):
        buf = bytearray()
        for lsn, record in enumerate(records):
            pack_record(record, buf, lsn)
        assert records_of(buf) == list(enumerate(records))


# --------------------------------------------------------------------------
# SystemLog: batched flush writes the seed's bytes and charges the seed's
# meter events.
# --------------------------------------------------------------------------


class TestFlushEquivalence:
    @given(records=st.lists(_record, min_size=1, max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_flush_bytes_and_meter_match_seed(self, records, tmp_path_factory):
        path = tmp_path_factory.mktemp("wal") / "sys.log"
        log = SystemLog(str(path), make_meter())
        try:
            for record in records:
                log.append(record)
            framed = list(log.tail)
            expected_bytes = seed_stable_bytes(framed)
            log.flush()

            with open(path, "rb") as handle:
                assert handle.read() == expected_bytes

            # The seed charged: per append, log_record + log_byte x
            # approx_size; per non-empty flush, latch_pair + flush_fixed +
            # flush_byte x bytes written.  Bulk charging must land on the
            # same counters.
            counts = dict(log.meter.counts)
            assert counts == {
                "log_record": len(records),
                "log_byte": sum(r.approx_size() for r in records),
                "latch_pair": 1,
                "flush_fixed": 1,
                "flush_byte": len(expected_bytes),
            }
        finally:
            log.close()

    def test_empty_flush_charges_only_latch_pair(self, tmp_path):
        log = SystemLog(str(tmp_path / "sys.log"), make_meter())
        log.flush()
        assert dict(log.meter.counts) == {"latch_pair": 1}
        log.close()

    @given(records=st.lists(_record, min_size=1, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_extend_is_meter_identical_to_per_append(
        self, records, tmp_path_factory
    ):
        base = tmp_path_factory.mktemp("wal")
        batched = SystemLog(str(base / "a.log"), make_meter())
        scalar = SystemLog(str(base / "b.log"), make_meter())
        try:
            batched.extend(records)
            for record in records:
                scalar.append(record)
            assert batched.tail == scalar.tail
            assert batched.meter.snapshot() == scalar.meter.snapshot()
            batched.flush()
            scalar.flush()
            with open(batched.path, "rb") as a, open(scalar.path, "rb") as b:
                assert a.read() == b.read()
            assert batched.meter.snapshot() == scalar.meter.snapshot()
        finally:
            batched.close()
            scalar.close()


# --------------------------------------------------------------------------
# Byte-splice truncation and the cached stable-record counter
# --------------------------------------------------------------------------


class TestTruncateAndCount:
    def _filled_log(self, tmp_path, count=12):
        log = SystemLog(str(tmp_path / "sys.log"), make_meter())
        for i in range(count):
            log.append(TxnCommitRecord(i))
        log.flush()
        return log

    def test_truncate_before_splices_exact_suffix(self, tmp_path):
        log = self._filled_log(tmp_path)
        survivors = [(lsn, rec) for lsn, rec in log.scan() if lsn >= 5]
        removed = log.truncate_before(5)
        assert removed == 5
        with open(log.path, "rb") as handle:
            assert handle.read() == seed_stable_bytes(survivors)
        assert [lsn for lsn, _ in log.scan()] == list(range(5, 12))
        log.close()

    def test_stable_record_count_tracks_flushes(self, tmp_path):
        log = self._filled_log(tmp_path, count=7)
        assert log.stable_record_count == 7
        log.append(TxnCommitRecord(99))
        assert log.stable_record_count == 7  # tail not stable yet
        log.flush()
        assert log.stable_record_count == 8
        log.truncate_before(3)
        assert log.stable_record_count == 5
        log.close()

    def test_stable_record_count_recounts_after_reopen(self, tmp_path):
        log = self._filled_log(tmp_path, count=9)
        log.close()
        reopened = SystemLog(str(tmp_path / "sys.log"), make_meter())
        assert reopened.stable_record_count == 9
        reopened.close()

    def test_scan_from_lsn_still_verifies_crcs(self, tmp_path):
        log = SystemLog(str(tmp_path / "sys.log"), make_meter())
        log.append(TxnBeginRecord(1))
        log.append(UpdateRecord(1, 0, b"\x01" * 8))
        log.append(TxnCommitRecord(1))
        log.flush()
        picked = list(log.scan(from_lsn=2))
        assert [type(r).__name__ for _l, r in picked] == ["TxnCommitRecord"]
        # Damage a skipped record's body: the scan must still notice
        # (every frame is CRC-checked even when not constructed).
        with open(log.path, "r+b") as handle:
            handle.seek(20)
            handle.write(b"\xff\xfe")
        list(log.scan(from_lsn=2))
        assert log.torn_tail_detected
        log.close()


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(pytest.main([__file__, "-q"]))
