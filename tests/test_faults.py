"""Fault injector: the addressing-error model."""

import pytest

from repro import Database, DBConfig, FaultInjector, tear_log_tail
from repro.errors import ConfigError
from repro.wal.system_log import SystemLog

from tests.conftest import ACCT_SCHEMA, insert_accounts


class TestWildWrite:
    def test_changes_bytes_and_records_event(self, db):
        insert_accounts(db, 3)
        injector = FaultInjector(db, seed=1)
        event = injector.wild_write()
        assert event.old != event.new
        assert db.memory.read(event.address, event.length) == event.new
        assert injector.events == [event]

    def test_explicit_target(self, db):
        insert_accounts(db, 1)
        address = db.table("acct").record_address(0)
        event = injector = FaultInjector(db, seed=1).wild_write(address, 4)
        assert event.address == address

    def test_explicit_data(self, db):
        insert_accounts(db, 1)
        event = FaultInjector(db).wild_write(0, data=b"\xca\xfe")
        assert event.new == b"\xca\xfe"
        assert db.memory.read(0, 2) == b"\xca\xfe"

    def test_bypasses_dirty_tracking(self, db):
        insert_accounts(db, 1)
        db.checkpoint()
        db.checkpoint()  # drain both pending sets
        FaultInjector(db, seed=2).wild_write()
        # No page became dirty: the checkpointer will not write the
        # corruption out -- which is why certification audits everything.
        assert db.memory.dirty_pages.pending_for("A") == frozenset()

    def test_deterministic_with_seed(self, db_factory):
        events = []
        for _ in range(2):
            db = db_factory()
            insert_accounts(db, 5)
            events.append(FaultInjector(db, seed=99).wild_write())
        assert events[0].address == events[1].address
        assert events[0].new == events[1].new


class TestBitFlip:
    def test_flips_exactly_one_bit(self, db):
        insert_accounts(db, 1)
        event = FaultInjector(db, seed=1).bit_flip(address=8)
        diff = event.old[0] ^ event.new[0]
        assert diff != 0 and diff & (diff - 1) == 0  # power of two


class TestCopyOverrun:
    def test_clobbers_bytes_past_record_end(self, db):
        slots = insert_accounts(db, 2)
        table = db.table("acct")
        record0 = db.memory.read(table.record_address(slots[0]), 32)
        event = FaultInjector(db, seed=1).copy_overrun("acct", slots[0], overrun=8)
        assert event.address == table.record_address(slots[0]) + 32
        # record 0 itself untouched; record 1's head clobbered
        assert db.memory.read(table.record_address(slots[0]), 32) == record0

    def test_zero_overrun_rejected(self, db):
        insert_accounts(db, 1)
        with pytest.raises(ConfigError):
            FaultInjector(db).copy_overrun("acct", 0, overrun=0)

    def test_detected_by_audit(self, db_factory):
        db = db_factory(scheme="data_cw")
        slots = insert_accounts(db, 3)
        FaultInjector(db, seed=1).copy_overrun("acct", slots[0])
        assert not db.audit().clean


class TestCorruptRecord:
    def test_overwrites_whole_record(self, db):
        slots = insert_accounts(db, 1)
        event = FaultInjector(db, seed=1).corrupt_record("acct", slots[0])
        assert event.length == db.table("acct").schema.record_size


class _PinnedRng:
    """Drives every random choice to its extreme: always pick ``segment``,
    always return the largest value ``randrange`` allows."""

    def __init__(self, segment):
        self._segment = segment

    def choice(self, seq):
        return self._segment

    def randrange(self, n):
        return n - 1


class TestRandomAddressBounds:
    def test_last_in_bounds_offset_is_reachable(self, db):
        insert_accounts(db, 1)
        injector = FaultInjector(db, seed=1)
        segment = next(s for s in db.memory.segments if s.kind == "data")
        injector.rng = _PinnedRng(segment)
        event = injector.wild_write(length=8, data=b"\xa5" * 8)
        # The fault ends flush against the segment's last byte: the
        # off-by-one in the old clamp made this offset unreachable.
        assert event.address + event.length == segment.base + segment.size

    def test_fault_longer_than_segment_stays_in_memory(self, db):
        insert_accounts(db, 1)
        injector = FaultInjector(db, seed=1)
        for segment in (s for s in db.memory.segments if s.kind == "data"):
            injector.rng = _PinnedRng(segment)
            length = segment.size + 8
            event = injector.wild_write(length=length, data=b"\x5a" * length)
            assert event.address <= segment.base
            assert event.address + event.length <= db.memory.size


class TestTearLogTailFrames:
    def test_cut_and_frames_are_exclusive(self, db):
        insert_accounts(db, 1)
        with pytest.raises(ConfigError):
            tear_log_tail(db.system_log.path, cut=1, frames=1)

    def test_frames_must_be_positive(self, db):
        insert_accounts(db, 1)
        with pytest.raises(ConfigError):
            tear_log_tail(db.system_log.path, frames=0)

    def test_frames_beyond_log_length_rejected(self, db):
        insert_accounts(db, 1)
        with pytest.raises(ConfigError):
            tear_log_tail(db.system_log.path, frames=10**6)

    def test_frame_tear_leaves_clean_shorter_log(self, db):
        insert_accounts(db, 3)
        db.crash()
        before = SystemLog(db.system_log.path, db.meter)
        count = len(list(before.scan(strict=True)))
        before.close()
        removed = tear_log_tail(db.system_log.path, frames=2)
        assert len(removed) > 0
        after = SystemLog(db.system_log.path, db.meter)
        # The tear lands exactly on a frame boundary: a strict scan sees
        # a clean log, just two records shorter -- nothing to detect.
        survivors = list(after.scan(strict=True))
        assert len(survivors) == count - 2
        assert not after.torn_tail_detected
        after.close()

    def test_frame_tear_also_drops_trailing_torn_garbage(self, db):
        insert_accounts(db, 3)
        db.crash()
        before = SystemLog(db.system_log.path, db.meter)
        count = len(list(before.scan(strict=True)))
        before.close()
        with open(db.system_log.path, "ab") as handle:
            handle.write(b"\xff" * 13)  # a torn frame: header, no body
        tear_log_tail(db.system_log.path, frames=1)
        after = SystemLog(db.system_log.path, db.meter)
        # Cut at the last whole frame's start: the garbage goes with it.
        assert len(list(after.scan(strict=True))) == count - 1
        after.close()


class TestGroupCommitLoss:
    def test_frame_tear_swallows_buffered_commit_undetectably(self, tmp_path):
        """Group commit batches several commits into one flush; a crash
        that loses whole trailing frames swallows reported commits with
        *no* torn tail for recovery to notice -- the documented <= N-1
        durability trade, now reproducible byte-exactly."""
        config = DBConfig(
            dir=str(tmp_path / "gc"), scheme="baseline", group_commit_size=3
        )
        db = Database(config)
        db.create_table("acct", ACCT_SCHEMA, 64, key_field="id")
        db.start()
        slots = insert_accounts(db, 3)
        db.checkpoint()
        db.manager.flush_commits()  # drain the setup commits' window
        table = db.table("acct")
        for i, value in enumerate((111, 112, 113)):
            txn = db.begin()
            table.update(txn, slots[i], {"balance": value})
            db.commit(txn)  # third commit fills the window: one flush of 3
        assert db.system_log.tail == []
        db.crash()

        # Tear the final frame -- the last commit record -- off the
        # stable log.  The shorter log is *clean*: strict scan passes.
        FaultInjector(db, seed=3).torn_flush(frames=1)
        check = SystemLog(db.system_log.path, db.meter)
        list(check.scan(strict=True))
        assert not check.torn_tail_detected
        check.close()

        recovered, _report = Database.recover(config)
        rtable = recovered.table("acct")
        txn = recovered.begin()
        balances = [rtable.read(txn, slots[i])["balance"] for i in range(3)]
        recovered.commit(txn)
        assert balances == [111, 112, 100]
        recovered.close()
