"""Local undo/redo logs and the system log."""

import pytest

from repro.errors import LogError
from repro.sim.clock import Meter, VirtualClock
from repro.sim.costs import DEFAULT_COSTS
from repro.wal.local_log import LocalRedoLog, LogicalUndoEntry, PhysicalUndo, UndoLog
from repro.wal.records import LogicalUndo, ReadRecord, TxnCommitRecord, UpdateRecord
from repro.wal.system_log import SystemLog


def physical(seq, op_id=1, address=0, image=b"old!"):
    return PhysicalUndo(seq, op_id, address, image, codeword_applied=False)


def logical(seq, op_id=1, key="t:1"):
    return LogicalUndoEntry(seq, op_id, 1, key, LogicalUndo("undo_insert", ("t", 1)))


class TestUndoLog:
    def test_append_and_len(self):
        log = UndoLog()
        log.append_physical(physical(1))
        log.append_physical(physical(2))
        assert len(log) == 2

    def test_codec_roundtrip(self):
        log = UndoLog()
        entry = physical(1, address=0x50, image=b"\x01\x02\x03")
        entry.codeword_applied = True
        log.append_physical(entry)
        log.entries.append(logical(2))
        decoded, _ = UndoLog.decode(log.encode())
        assert len(decoded) == 2
        restored = decoded.entries[0]
        assert isinstance(restored, PhysicalUndo)
        assert restored.address == 0x50
        assert restored.image == b"\x01\x02\x03"
        assert restored.codeword_applied is True
        assert decoded.entries[1].undo.op_name == "undo_insert"

    def test_decode_bad_tag_rejected(self):
        with pytest.raises(LogError):
            UndoLog.decode(b"\x01\x00\x00\x00Z")

    def test_empty_codec(self):
        decoded, _ = UndoLog.decode(UndoLog().encode())
        assert len(decoded) == 0


class TestLocalRedoLog:
    def test_mark_and_take(self):
        log = LocalRedoLog()
        log.append(UpdateRecord(1, 0, b"a"))
        mark = log.mark()
        log.append(UpdateRecord(1, 1, b"b"))
        log.append(ReadRecord(1, 2, 4))
        taken = log.take_from(mark)
        assert len(taken) == 2
        assert len(log) == 1

    def test_discard_from(self):
        log = LocalRedoLog()
        log.append(UpdateRecord(1, 0, b"a"))
        log.append(UpdateRecord(1, 1, b"b"))
        log.discard_from(1)
        assert len(log) == 1


class TestSystemLog:
    def make(self, tmp_path):
        meter = Meter(VirtualClock(), DEFAULT_COSTS)
        return SystemLog(str(tmp_path / "sys.log"), meter)

    def test_append_assigns_dense_lsns(self, tmp_path):
        log = self.make(tmp_path)
        assert log.append(TxnCommitRecord(1)) == 0
        assert log.append(TxnCommitRecord(2)) == 1
        log.close()

    def test_flush_then_scan(self, tmp_path):
        log = self.make(tmp_path)
        log.append(UpdateRecord(1, 5, b"x"))
        log.append(TxnCommitRecord(1))
        end = log.flush()
        assert end == 2
        records = list(log.scan())
        assert [lsn for lsn, _ in records] == [0, 1]
        assert isinstance(records[0][1], UpdateRecord)
        log.close()

    def test_scan_from_lsn(self, tmp_path):
        log = self.make(tmp_path)
        for i in range(5):
            log.append(TxnCommitRecord(i))
        log.flush()
        assert [lsn for lsn, _ in log.scan(3)] == [3, 4]
        log.close()

    def test_unflushed_tail_not_scanned(self, tmp_path):
        log = self.make(tmp_path)
        log.append(TxnCommitRecord(1))
        log.flush()
        log.append(TxnCommitRecord(2))
        assert len(list(log.scan())) == 1
        log.close()

    def test_crash_loses_tail(self, tmp_path):
        log = self.make(tmp_path)
        log.append(TxnCommitRecord(1))
        log.flush()
        log.append(TxnCommitRecord(2))
        log.crash()
        assert log.tail == []

    def test_flush_empty_tail_is_noop(self, tmp_path):
        log = self.make(tmp_path)
        assert log.flush() == 0
        log.close()

    def test_charge_flag_skips_metering(self, tmp_path):
        log = self.make(tmp_path)
        before = dict(log.meter.counts)
        log.append(TxnCommitRecord(1), charge=False)
        assert dict(log.meter.counts) == before
        log.close()

    def test_flushes_accumulate_across_reopen(self, tmp_path):
        """Appending to an existing file preserves earlier records."""
        log = self.make(tmp_path)
        log.append(TxnCommitRecord(1))
        log.flush()
        log.close()
        log2 = SystemLog(str(tmp_path / "sys.log"), Meter(VirtualClock(), DEFAULT_COSTS))
        log2.next_lsn = 1
        log2.append(TxnCommitRecord(2))
        log2.flush()
        assert [lsn for lsn, _ in log2.scan()] == [0, 1]
        log2.close()
