"""Thread-safety hardening of shared structures.

These stress tests drive the lock table, the system-log tail and the
meter from many threads at once and assert *exact* invariants (no lost
grants, dense LSNs, exact counters).  They fail on the pre-hardening
code -- an unsynchronized ``grants[:] = [...]`` rebuild loses concurrent
appends, and unguarded ``next_lsn += 1`` duplicates LSNs -- and pin the
mutexes added for concurrent serving.
"""

from __future__ import annotations

import threading

import pytest

from repro.sim.clock import Meter, VirtualClock
from repro.sim.costs import DEFAULT_COSTS
from repro.txn.locks import LockManager, LockMode
from repro.wal.records import TxnBeginRecord
from repro.wal.system_log import SystemLog

THREADS = 8
ROUNDS = 400


pytestmark = pytest.mark.usefixtures("aggressive_thread_switching")


def run_threads(worker) -> None:
    threads = [threading.Thread(target=worker, args=(i,)) for i in range(THREADS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
        assert not t.is_alive(), "stress worker deadlocked"


class TestLockManagerUnderThreads:
    def test_no_grants_lost_or_leaked(self):
        """Shared acquires and releases on overlapping keys, many threads.

        Unsynchronized, the ``release_all`` list rebuild races concurrent
        ``acquire`` appends: a grant appended between snapshot and
        slice-assign vanishes, leaving the loser's ``release_all`` with
        nothing to release and the table with a stale grant.  With the
        mutex, every acquire is matched by exactly one release and the
        table drains to empty.
        """
        locks = LockManager()
        barrier = threading.Barrier(THREADS)
        failures: list[str] = []

        def worker(thread_id: int) -> None:
            txn_id = thread_id + 1
            barrier.wait()
            for i in range(ROUNDS):
                # Overlapping SHARED keys force every thread into the
                # same grant lists; private keys exercise op release.
                locks.acquire(txn_id, f"shared:{i % 4}", LockMode.SHARED)
                locks.acquire(txn_id, f"mine:{txn_id}", LockMode.EXCLUSIVE,
                              duration="op", op_id=i)
                if not locks.holds(txn_id, f"shared:{i % 4}"):
                    failures.append(f"txn {txn_id} lost shared:{i % 4}")
                locks.release_operation(txn_id, i)
                locks.release_all(txn_id)
                if locks.locks_held(txn_id):
                    failures.append(f"txn {txn_id} still holds after release_all")

        run_threads(worker)
        assert failures == []
        assert locks.acquire_count == THREADS * ROUNDS * 2
        assert locks._table == {}
        assert getattr(locks, "_txn_keys", {}) == {}

    def test_conflicts_are_detected_atomically(self):
        """Exclusive acquires on one key from many threads: exactly one
        winner at a time, and the check-then-grant is atomic (two threads
        never both win)."""
        locks = LockManager()
        holders: set[int] = set()
        overlap: list[str] = []
        barrier = threading.Barrier(THREADS)

        def worker(thread_id: int) -> None:
            from repro.errors import LockError

            txn_id = thread_id + 1
            barrier.wait()
            for _ in range(ROUNDS):
                try:
                    locks.acquire(txn_id, "hot", LockMode.EXCLUSIVE)
                except LockError:
                    continue
                holders.add(txn_id)
                if len(holders) > 1:
                    overlap.append(f"{holders}")
                holders.discard(txn_id)
                locks.release_all(txn_id)

        run_threads(worker)
        assert overlap == []
        assert locks._table == {}


class TestSystemLogUnderThreads:
    def test_concurrent_appends_assign_dense_unique_lsns(self, tmp_path):
        meter = Meter(VirtualClock(), DEFAULT_COSTS)
        meter.enable_thread_safety()
        log = SystemLog(str(tmp_path / "stress.log"), meter)
        barrier = threading.Barrier(THREADS)

        def worker(thread_id: int) -> None:
            barrier.wait()
            for i in range(ROUNDS):
                if i % 3 == 0:
                    log.extend([TxnBeginRecord(thread_id, False)] * 2)
                else:
                    log.append(TxnBeginRecord(thread_id, False))

        run_threads(worker)
        per_thread = (ROUNDS - ROUNDS // 3 - (1 if ROUNDS % 3 else 0)) + 2 * (
            ROUNDS // 3 + (1 if ROUNDS % 3 else 0)
        )
        total = THREADS * per_thread
        assert log.next_lsn == total
        lsns = [lsn for lsn, _record in log.tail]
        assert len(lsns) == total
        assert sorted(lsns) == list(range(total))  # dense, no duplicates
        assert meter.counts["log_record"] == total
        log.flush()
        assert log.stable_record_count == total
        log.close()

    def test_appends_racing_a_flush_ride_the_next_flush(self, tmp_path):
        meter = Meter(VirtualClock(), DEFAULT_COSTS)
        meter.enable_thread_safety()
        log = SystemLog(str(tmp_path / "raceflush.log"), meter)
        stop = threading.Event()
        appended = [0]

        def appender() -> None:
            while not stop.is_set():
                log.append(TxnBeginRecord(1, False))
                appended[0] += 1

        thread = threading.Thread(target=appender)
        thread.start()
        for _ in range(50):
            log.flush()
        stop.set()
        thread.join(timeout=60)
        log.flush()
        assert log.tail == []
        assert log.stable_record_count == appended[0]
        assert log.end_of_stable_lsn == appended[0]
        records = sum(1 for _ in log.scan(strict=True))
        assert records == appended[0]
        log.close()


class TestMeterUnderThreads:
    def test_charges_are_exact_with_thread_safety_enabled(self):
        meter = Meter(VirtualClock(), DEFAULT_COSTS)
        meter.enable_thread_safety()
        barrier = threading.Barrier(THREADS)

        def worker(_thread_id: int) -> None:
            barrier.wait()
            for _ in range(ROUNDS):
                meter.charge("log_record")
                meter.charge("log_byte", 3)

        run_threads(worker)
        total = THREADS * ROUNDS
        assert meter.counts["log_record"] == total
        assert meter.counts["log_byte"] == total * 3
        expected_ns = (
            total * DEFAULT_COSTS.unit_ns("log_record")
            + total * 3 * DEFAULT_COSTS.unit_ns("log_byte")
        )
        assert meter.clock.now_ns == expected_ns
