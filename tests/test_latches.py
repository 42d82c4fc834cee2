"""Latches: modes, reentrancy, upgrades, cross-thread blocking."""

import random
import threading
import time

import pytest

from repro import DBConfig
from repro.bench.tpcb import TPCBConfig, TPCBWorkload, build_tpcb_database, load_tpcb
from repro.errors import LatchError
from repro.txn.latches import EXCLUSIVE, Latch, LatchTable, SHARED


class TestSingleThread:
    def test_exclusive_acquire_release(self):
        latch = Latch("t")
        latch.acquire(EXCLUSIVE)
        assert latch.held_exclusive()
        latch.release()
        assert not latch.held()

    def test_shared_acquire_release(self):
        latch = Latch("t")
        latch.acquire(SHARED)
        assert latch.held() and not latch.held_exclusive()
        latch.release()

    def test_reentrant_exclusive(self):
        latch = Latch("t")
        latch.acquire(EXCLUSIVE)
        latch.acquire(EXCLUSIVE)
        latch.release()
        assert latch.held_exclusive()
        latch.release()
        assert not latch.held()

    def test_exclusive_owner_may_nest_shared(self):
        latch = Latch("t")
        latch.acquire(EXCLUSIVE)
        latch.acquire(SHARED)  # folded into exclusive depth
        latch.release()
        latch.release()
        assert not latch.held()

    def test_upgrade_as_sole_shared_holder(self):
        latch = Latch("t")
        latch.acquire(SHARED)
        latch.acquire(EXCLUSIVE)
        assert latch.held_exclusive()
        latch.release()
        latch.release()
        assert not latch.held()

    def test_release_without_hold_raises(self):
        with pytest.raises(LatchError):
            Latch("t").release()

    def test_bad_mode_rejected(self):
        with pytest.raises(LatchError):
            Latch("t").acquire("Z")

    def test_context_managers(self):
        latch = Latch("t")
        with latch.exclusive():
            assert latch.held_exclusive()
        with latch.shared():
            assert latch.held()
        assert not latch.held()

    def test_acquire_count(self):
        latch = Latch("t")
        with latch.shared():
            pass
        with latch.exclusive():
            pass
        assert latch.acquire_count == 2


def _acquire_in_thread(latch: Latch, mode: str, timeout=0.2) -> bool:
    """Try to acquire in another thread; returns success flag."""
    result = {}

    def worker():
        try:
            latch.acquire(mode, timeout=timeout)
            result["ok"] = True
            latch.release()
        except LatchError:
            result["ok"] = False

    thread = threading.Thread(target=worker)
    thread.start()
    thread.join()
    return result["ok"]


class TestCrossThread:
    def test_shared_holders_coexist(self):
        latch = Latch("t")
        latch.acquire(SHARED)
        assert _acquire_in_thread(latch, SHARED)
        latch.release()

    def test_exclusive_blocks_other_threads(self):
        latch = Latch("t")
        latch.acquire(EXCLUSIVE)
        assert not _acquire_in_thread(latch, SHARED)
        assert not _acquire_in_thread(latch, EXCLUSIVE)
        latch.release()

    def test_shared_blocks_foreign_exclusive(self):
        latch = Latch("t")
        latch.acquire(SHARED)
        assert not _acquire_in_thread(latch, EXCLUSIVE)
        latch.release()

    def test_waiter_wakes_on_release(self):
        latch = Latch("t")
        latch.acquire(EXCLUSIVE)
        acquired = threading.Event()

        def worker():
            latch.acquire(EXCLUSIVE, timeout=5.0)
            acquired.set()
            latch.release()

        thread = threading.Thread(target=worker)
        thread.start()
        _wait_until_parked(latch)
        assert not acquired.is_set()
        latch.release()
        thread.join(timeout=5.0)
        assert acquired.is_set()


def _wait_until_parked(latch: Latch, waiters: int = 1) -> None:
    """Spin until ``waiters`` threads are parked on ``latch`` -- no sleep:
    the interpreter's switch interval lets the waiter run -- failing after
    five seconds."""
    deadline = time.monotonic() + 5.0
    while latch.table._waiters != waiters:
        assert time.monotonic() < deadline, "waiter never parked"


class TestFastPath:
    """Uncontended acquire/release never builds the latch's Condition."""

    def test_reentrant_exclusive_stays_on_the_fast_path(self):
        latch = Latch("t")
        for _ in range(3):
            latch.acquire(EXCLUSIVE)
        for depth in (2, 1, 0):
            latch.release()
            assert latch.held_exclusive() == bool(depth)
        assert latch.table._cond is None
        assert latch.acquire_count == 3

    def test_sole_shared_holder_upgrades_without_waiting(self):
        latch = Latch("t")
        latch.acquire(SHARED)
        latch.acquire(EXCLUSIVE)
        assert latch.held_exclusive()
        latch.release()
        assert latch.held_exclusive()  # the shared depth folded in
        latch.release()
        assert not latch.held()
        assert latch.table._cond is None

    def test_parked_waiter_woken_by_fast_path_release(self):
        latch = Latch("t")
        latch.acquire(EXCLUSIVE)
        latch.acquire(EXCLUSIVE)  # reentrant: the first release keeps it
        acquired = threading.Event()

        def worker():
            latch.acquire(SHARED, timeout=5.0)
            acquired.set()
            latch.release()

        thread = threading.Thread(target=worker)
        thread.start()
        _wait_until_parked(latch)
        latch.release()
        assert latch.table._waiters == 1 and not acquired.is_set()
        latch.release()
        thread.join(timeout=5.0)
        assert acquired.is_set()
        assert latch.table._waiters == 0 and not latch.held()

    def test_timeout_still_raises(self):
        latch = Latch("t")
        latch.acquire(EXCLUSIVE)
        outcome = {}

        def worker():
            try:
                latch.acquire(EXCLUSIVE, timeout=0.05)
            except LatchError as exc:
                outcome["error"] = exc

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join(timeout=5.0)
        assert isinstance(outcome.get("error"), LatchError)
        assert latch.table._waiters == 0 and latch.held_exclusive()
        latch.release()
        assert not latch.held()

    def test_any_held_sees_a_fast_path_hold(self):
        table = LatchTable("protection")
        latch = table.latch(7)
        assert not table.any_held()
        latch.acquire(EXCLUSIVE)
        assert table.any_held()
        latch.release()
        latch.acquire(SHARED)
        assert table.any_held()
        latch.release()
        assert not table.any_held()


class TestLatchTable:
    def test_same_key_same_latch(self):
        """Two handles on one key are one latch: an exclusive hold through
        the first blocks the second, from another thread."""
        table = LatchTable("protection")
        first = table.latch(3)
        first.acquire(EXCLUSIVE)
        assert not _acquire_in_thread(table.latch(3), SHARED)
        first.release()
        assert _acquire_in_thread(table.latch(3), EXCLUSIVE)

    def test_different_keys_different_latches(self):
        """Holds on different keys do not block each other, and the table
        counts the keys held right now."""
        table = LatchTable("protection")
        table.latch(1).acquire(EXCLUSIVE)
        assert len(table) == 1
        assert _acquire_in_thread(table.latch(2), EXCLUSIVE)
        table.latch(2).acquire(SHARED)
        assert len(table) == 2
        table.release(1)
        table.release(2)
        assert len(table) == 0

    def test_latch_names_carry_prefix(self):
        table = LatchTable("codeword")
        assert "codeword[5]" in repr(table.latch(5))

    def test_a_key_has_state_only_while_held(self):
        table = LatchTable("protection")
        for key in range(100):
            table.acquire(key, EXCLUSIVE)
            table.acquire(key, SHARED)  # nested by the exclusive owner
            table.release(key)
            table.release(key)
            table.acquire(key, SHARED)
            table.acquire(key, EXCLUSIVE)  # sole-holder upgrade
            table.release(key)
            table.release(key)
        assert len(table) == 0 and not table.any_held()
        assert table._cond is None

    def test_release_of_another_threads_hold_raises(self):
        table = LatchTable("protection")
        failures = []

        def foreign(key):
            try:
                table.release(key)
            except LatchError as exc:
                failures.append(exc)

        table.acquire(1, EXCLUSIVE)
        table.acquire(2, SHARED)
        for key in (1, 2, 3):
            thread = threading.Thread(target=foreign, args=(key,))
            thread.start()
            thread.join(timeout=5.0)
        assert len(failures) == 3
        assert table.held_exclusive(1) and table.held(2) and len(table) == 2
        table.release(1)
        table.release(2)

    def test_timed_out_acquire_leaves_no_entry_and_no_waiter(self):
        table = LatchTable("protection")
        table.acquire(1, EXCLUSIVE)
        outcome = []

        def worker():
            for mode in (EXCLUSIVE, SHARED):
                try:
                    table.acquire(1, mode, timeout=0.05)
                except LatchError:
                    outcome.append(mode)

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join(timeout=5.0)
        assert outcome == [EXCLUSIVE, SHARED]
        assert table._waiters == 0 and len(table) == 1
        table.release(1)
        assert len(table) == 0 and not table.any_held()

    def test_fast_path_release_racing_first_contended_acquire(
        self, aggressive_thread_switching
    ):
        """The holder releases on the fast path while the contender is on
        its way into the table's first wait (building the Condition);
        whichever wins, the contender is granted at once, never left
        parked until its timeout."""
        for _ in range(200):
            table = LatchTable("protection")
            table.acquire(1, EXCLUSIVE)
            acquired = threading.Event()

            def contender(table=table, acquired=acquired):
                table.acquire(1, EXCLUSIVE, timeout=5.0)
                acquired.set()
                table.release(1)

            thread = threading.Thread(target=contender)
            thread.start()
            table.release(1)
            # A lost wake-up would only be granted when the wait times out.
            thread.join(timeout=1.0)
            assert acquired.is_set(), "the release did not wake the waiter"
            thread.join(timeout=10.0)
            assert len(table) == 0 and table._waiters == 0

    def test_racing_threads_lose_no_update(self, aggressive_thread_switching):
        """More threads than cores take exclusive and shared latches on a
        few shared keys of one table; a read-modify-write under each
        exclusive hold loses no increment, and the table ends empty."""
        table = LatchTable("protection")
        keys, threads, rounds = 4, 6, 1500
        counts = [0] * keys

        def work(seed: int) -> None:
            rng = random.Random(seed)
            for _ in range(rounds):
                key = rng.randrange(keys)
                table.acquire(key, EXCLUSIVE)
                try:
                    value = counts[key]
                    counts[key] = value + 1
                finally:
                    table.release(key)
                key = rng.randrange(keys)
                table.acquire(key, SHARED)
                table.release(key)

        workers = [threading.Thread(target=work, args=(n,)) for n in range(threads)]
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in workers)
        assert sum(counts) == threads * rounds
        assert len(table) == 0 and table._waiters == 0

    @pytest.mark.parametrize("scheme", ["data_cw", "precheck+read_logging", "deferred"])
    def test_tables_are_empty_after_a_workload(self, tmp_path, scheme):
        """A TPC-B run with an aborted transaction, an audit and a
        checkpoint leaves no key held in either latch table of the
        database, however many regions it latched."""
        workload = TPCBConfig(
            accounts=400, tellers=40, branches=4, operations=120, ops_per_txn=20
        )
        db = build_tpcb_database(
            DBConfig(dir=str(tmp_path / "db"), scheme=scheme), workload
        )
        try:
            load_tpcb(db, workload)
            TPCBWorkload(db, workload).run()
            account = db.table("account")
            txn = db.begin()
            account.update(txn, account.lookup(txn, 7), {"balance": 5})
            db.abort(txn)
            assert db.audit().clean
            db.checkpoint()
            maintainer = db.pipeline.maintainer
            assert db.meter.counts["latch_pair"] > workload.operations
            assert len(maintainer.protection_latches) == 0
            assert len(maintainer.codeword_latches) == 0
        finally:
            db.close()
