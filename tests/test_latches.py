"""Latches: modes, reentrancy, upgrades, cross-thread blocking."""

import threading
import time

import pytest

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


class TestCrossThread:
    def _acquire_in_thread(self, latch: Latch, mode: str, timeout=0.2):
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

    def test_shared_holders_coexist(self):
        latch = Latch("t")
        latch.acquire(SHARED)
        assert self._acquire_in_thread(latch, SHARED)
        latch.release()

    def test_exclusive_blocks_other_threads(self):
        latch = Latch("t")
        latch.acquire(EXCLUSIVE)
        assert not self._acquire_in_thread(latch, SHARED)
        assert not self._acquire_in_thread(latch, EXCLUSIVE)
        latch.release()

    def test_shared_blocks_foreign_exclusive(self):
        latch = Latch("t")
        latch.acquire(SHARED)
        assert not self._acquire_in_thread(latch, EXCLUSIVE)
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
    while latch._waiters != waiters:
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
        assert latch._cond is None
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
        assert latch._cond is None

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
        assert latch._waiters == 1 and not acquired.is_set()
        latch.release()
        thread.join(timeout=5.0)
        assert acquired.is_set()
        assert latch._waiters == 0 and not latch.held()

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
        assert latch._waiters == 0 and latch.held_exclusive()
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
        table = LatchTable("protection")
        assert table.latch(3) is table.latch(3)

    def test_different_keys_different_latches(self):
        table = LatchTable("protection")
        assert table.latch(1) is not table.latch(2)
        assert len(table) == 2

    def test_latch_names_carry_prefix(self):
        table = LatchTable("codeword")
        assert "codeword[5]" in repr(table.latch(5))
