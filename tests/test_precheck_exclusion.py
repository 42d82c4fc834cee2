"""A read precheck's exclusion: the latch table's mutex for a free region,
the region's exclusive latch for a held one.

A precheck must fold a region's bytes and compare its stored codeword
with no update window of that region open.  When no thread holds the
region's protection latch, the precheck folds under the latch table's
mutex (no latch can be granted meanwhile) and makes no latch entry; a
region some window holds is latched exclusively, so the reader waits
for the window to close.  The two-thread test is event-driven (the house
style of ``tests/gate_probe.py``): it asserts what the latch guarantees
at fixed points, never that something failed to happen within a time.
"""

from __future__ import annotations

import sys
import threading

from repro import Database, DBConfig
from repro.wal.records import LogicalUndo
from tests.conftest import ACCT_SCHEMA, insert_accounts
from tests.gate_probe import TIMEOUT, join_all

REGION = 64


def _precheck_db(db_factory):
    db = db_factory(scheme="precheck", region_size=REGION)
    slots = insert_accounts(db, 4)
    return db, db.table("acct").record_address(slots[1])


def _spy_acquires(latches) -> list:
    """Record every ``acquire`` of ``latches`` as ``(key, mode)``."""
    calls: list = []
    real = latches.acquire

    def acquire(key, mode, *args):
        calls.append((key, mode))
        return real(key, mode, *args)

    latches.acquire = acquire
    return calls


class TestFreeRegion:
    def test_precheck_makes_no_latch_entry(self, db_factory):
        db, address = _precheck_db(db_factory)
        maintainer = db.pipeline.maintainer
        latches = maintainer.protection_latches
        acquires = _spy_acquires(latches)
        held_during_reads: list[int] = []
        real_read = db.memory.read

        def read(start, length):
            held_during_reads.append(len(latches))
            return real_read(start, length)

        db.memory.read = read
        before = maintainer.precheck_count
        txn = db.begin()
        value = db.manager.read(txn, address, 3 * REGION)
        db.commit(txn)
        assert value == real_read(address, 3 * REGION)
        assert maintainer.precheck_count - before >= 3
        assert held_during_reads and set(held_during_reads) == {0}
        assert acquires == [] and len(latches) == 0

    def test_latch_pair_is_charged_per_folded_region(self, db_factory):
        db, address = _precheck_db(db_factory)
        maintainer = db.pipeline.maintainer
        before = dict(db.meter.counts)
        regions = maintainer.precheck_count
        maintainer.precheck(set(), address, 2 * REGION)
        folded = maintainer.precheck_count - regions
        after = db.meter.counts
        assert folded == 3  # an unaligned 128-byte read spans three regions
        assert after["latch_pair"] - before.get("latch_pair", 0) == folded
        assert after["cw_check_fixed"] - before.get("cw_check_fixed", 0) == folded
        assert after["cw_check_word"] - before.get("cw_check_word", 0) == folded * REGION // 4


class TestHeldRegion:
    def test_owner_rechecks_its_window_region_through_the_latch(self, db_factory):
        """The window's own thread reads a region its window holds (before
        writing it): a reentrant exclusive acquire, as before."""
        db, address = _precheck_db(db_factory)
        latches = db.pipeline.maintainer.protection_latches
        region = address // REGION
        txn = db.begin()
        db.manager.begin_operation(txn, "w")
        db.manager.begin_update(txn, address, 8)
        acquires = _spy_acquires(latches)
        db.manager.read(txn, address, 8)
        assert acquires == [(region, "X")]
        assert latches.held_exclusive(region)
        db.manager.write(txn, address, b"\x07" * 8)
        db.manager.end_update(txn)
        db.manager.commit_operation(txn, LogicalUndo("noop", ()))
        db.commit(txn)
        assert len(latches) == 0 and db.audit().clean

    def test_reader_waits_for_the_window_and_folds_its_bytes(self, db_factory):
        """Thread A holds a window open on region r and has written new
        bytes there (its codeword is not folded yet).  Thread B's
        prechecked read of r waits on r's latch until A's ``end_update``,
        then folds the post-window bytes against the post-window codeword:
        no false conviction."""
        db, address = _precheck_db(db_factory)
        latches = db.pipeline.maintainer.protection_latches
        region = address // REGION
        new = b"\x5a" * 8
        txn_a = db.begin()
        db.manager.begin_operation(txn_a, "w")
        db.manager.begin_update(txn_a, address, 8)
        db.manager.write(txn_a, address, new)

        waiting = threading.Event()
        real_acquire = latches.acquire

        def acquire(key, mode, *args):
            if key == region and threading.current_thread() is reader:
                waiting.set()
            return real_acquire(key, mode, *args)

        latches.acquire = acquire
        result: dict = {}

        def read() -> None:
            txn_b = db.begin()
            try:
                result["value"] = db.manager.read(txn_b, address, 8)
                db.commit(txn_b)
            except Exception as exc:  # surfaced below, on the test thread
                result["error"] = exc

        reader = threading.Thread(target=read)
        reader.start()
        assert waiting.wait(TIMEOUT)
        # A still holds r exclusively: B cannot have folded it.
        assert latches.held_exclusive(region) and result == {}
        db.manager.end_update(txn_a)
        db.manager.commit_operation(txn_a, LogicalUndo("noop", ()))
        db.commit(txn_a)
        join_all([reader])
        assert result == {"value": new}
        assert db.pipeline.maintainer.precheck_failures == 0
        assert len(latches) == 0 and db.audit().clean


class TestUnderThreads:
    def test_readers_race_windows_without_false_conviction(self, tmp_path):
        """Three readers precheck every region of four records while two
        writers update those records through update windows (two records
        to a 64-byte region), with the interpreter switching threads as
        often as it can.  A fold that could see a window's bytes before
        its codeword convicts a region with no fault injected."""
        db = Database(
            DBConfig(
                dir=str(tmp_path),
                scheme="precheck",
                scheme_params={"region_size": REGION},
                scheduler_mode="threaded",
            )
        )
        try:
            db.create_table("acct", ACCT_SCHEMA, 8, key_field="id")
            db.start()
            slots = insert_accounts(db, 4)
            table = db.table("acct")
            start = table.record_address(slots[0])
            length = table.record_address(slots[3]) + ACCT_SCHEMA.record_size - start
            rounds = 300
            failures: list[Exception] = []

            def write(worker: int) -> None:
                try:
                    for i in range(rounds):
                        txn = db.begin()
                        table.update(txn, slots[worker], {"balance": i})
                        db.commit(txn)
                except Exception as exc:  # surfaced below, on the test thread
                    failures.append(exc)

            def read() -> None:
                try:
                    for _ in range(rounds):
                        txn = db.begin()
                        db.manager.read(txn, start, length)
                        db.commit(txn)
                except Exception as exc:  # surfaced below, on the test thread
                    failures.append(exc)

            threads = [threading.Thread(target=write, args=(w,)) for w in (0, 3)]
            threads += [threading.Thread(target=read) for _ in range(3)]
            previous = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                for thread in threads:
                    thread.start()
                join_all(threads)
            finally:
                sys.setswitchinterval(previous)
            assert failures == []
            assert db.pipeline.maintainer.precheck_failures == 0
            assert len(db.pipeline.maintainer.protection_latches) == 0
            assert db.audit().clean
        finally:
            db.close()
