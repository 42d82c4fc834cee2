"""Thread-safety hardening of shared structures.

These stress tests drive the lock table, the system-log tail and the
meter from many threads at once and assert *exact* invariants (no lost
grants, dense LSNs, exact counters).  They fail on the pre-hardening
code -- an unsynchronized ``grants[:] = [...]`` rebuild loses concurrent
appends, and unguarded ``next_lsn += 1`` duplicates LSNs -- and pin the
mutexes added for concurrent serving and the meter's per-thread tallies.
"""

from __future__ import annotations

import threading

import pytest

from repro.sim.clock import Meter, VirtualClock
from repro.sim.costs import DEFAULT_COSTS
from repro.txn.locks import LockManager, LockMode
from repro.wal.local_log import LocalRedoLog
from repro.wal.records import TXN_COMMIT, LogicalUndo, TxnBeginRecord, UpdateRecord
from repro.wal.system_log import SystemLog

THREADS = 8
ROUNDS = 400
READS = 3000


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

    def test_frame_appends_racing_flushes_stay_dense_and_whole(self, tmp_path):
        """Every tail door -- begin, read, operation (with moved arena
        frames), commit -- from many threads while another flushes: each
        frame lands whole, with a unique dense LSN, and the stable log
        decodes to exactly what was appended."""
        meter = Meter(VirtualClock(), DEFAULT_COSTS)
        log = SystemLog(str(tmp_path / "frames.log"), meter)
        barrier = threading.Barrier(THREADS + 1)
        done = threading.Event()

        def worker(thread_id: int) -> None:
            txn_id = thread_id + 1
            barrier.wait()
            for i in range(ROUNDS // 4):
                log.append_txn_begin(txn_id, False)
                log.append_read(txn_id, i, 8, None)
                arena = LocalRedoLog()
                arena.append_read(txn_id, i, 4, i)
                arena.append(UpdateRecord(txn_id, i, b"x" * (i % 7)))
                frames, starts = arena.take_from(0)
                undo = LogicalUndo("noop")
                log.append_operation(txn_id, i, 1, "k", undo, frames, starts)
                log.append_marker(TXN_COMMIT, txn_id)

        def flusher() -> None:
            barrier.wait()
            while not done.is_set():
                log.flush()

        flushing = threading.Thread(target=flusher)
        flushing.start()
        try:
            run_threads(worker)
        finally:
            done.set()
            flushing.join(timeout=60)
        assert not flushing.is_alive()
        log.flush()
        total = THREADS * (ROUNDS // 4) * 7
        assert log.next_lsn == total == log.stable_record_count
        stable = list(log.scan(strict=True))
        assert [lsn for lsn, _record in stable] == list(range(total))
        per_txn: dict[int, list[str]] = {}
        for _lsn, record in stable:
            per_txn.setdefault(record.txn_id, []).append(type(record).__name__)
        assert per_txn[1][:7] == [
            "TxnBeginRecord",
            "ReadRecord",
            "OpBeginRecord",
            "ReadRecord",
            "UpdateRecord",
            "OpCommitRecord",
            "TxnCommitRecord",
        ]
        assert all(len(kinds) == 7 * (ROUNDS // 4) for kinds in per_txn.values())
        log.close()

    def test_appends_racing_a_flush_ride_the_next_flush(self, tmp_path):
        meter = Meter(VirtualClock(), DEFAULT_COSTS)
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

    def test_readers_never_see_counts_change_mid_read(self):
        """``snapshot`` / ``time_ns`` / ``now_ns`` merge the tallies under
        the registry lock that ``charge_ns`` and ``reset`` take: a reader
        racing charges and resets neither trips over a tally that changes
        size under it nor sees the clock run backwards."""
        clock = VirtualClock()
        meter = Meter(clock, DEFAULT_COSTS)
        barrier = threading.Barrier(2)
        errors: list[BaseException] = []
        readings: list[int] = []

        def charger() -> None:
            barrier.wait()
            for _ in range(3000):
                for event in DEFAULT_COSTS.unit_costs:
                    meter.charge(event)
                meter.charge_ns("mprotect_call", 5)
                meter.reset()

        def reader() -> None:
            # A fixed number of reads, not "until the charger is done":
            # the mutex is not fair, and a reader that re-takes it in a
            # tight loop can hold the charger off for minutes.
            barrier.wait()
            for _ in range(READS):
                try:
                    meter.snapshot()
                    meter.time_ns
                    readings.append(clock.now_ns)
                except Exception as exc:  # noqa: BLE001 - every failure is reported
                    errors.append(exc)

        threads = [threading.Thread(target=charger), threading.Thread(target=reader)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive(), "stress worker deadlocked"
        assert errors == []
        assert readings == sorted(readings)
        per_round = sum(DEFAULT_COSTS.unit_costs.values()) + 5
        assert clock.now_ns == 3000 * per_round

    def test_exited_threads_tallies_retire_when_a_thread_registers(self):
        """A run that keeps starting short-lived charging threads and never
        reads the meter holds no tally of a thread that has exited."""
        meter = Meter(VirtualClock(), DEFAULT_COSTS)
        add = meter.counter("log_record")
        for _ in range(20):
            thread = threading.Thread(target=add, args=(1,))
            thread.start()
            thread.join()
        assert len(meter._tallies) <= 2  # this thread's and the last one's
        assert meter.counts["log_record"] == 20

    def test_adders_compiled_before_the_threads_count_exactly(self):
        """Adders compiled on this thread and called from ``THREADS``
        others count into each caller's own tally.  One thread exits
        before the first read while the rest stay alive; the totals and
        the clock are exact at that read and after every thread exits."""
        meter = Meter(VirtualClock(), DEFAULT_COSTS)
        one = meter.counter("latch_pair")
        two = meter.counter("log_record", "log_byte")
        three = meter.counter("cw_maint_fixed", "cw_maint_word", "flush_fixed")
        start, charged = threading.Barrier(THREADS), threading.Barrier(THREADS + 1)
        release = threading.Event()

        def worker(thread_id: int) -> None:
            start.wait()
            for _ in range(ROUNDS):
                one(1)
                two(1, 3)
                three(1, 16, 2)
            charged.wait()
            if thread_id:  # thread 0 exits before the first read
                release.wait(120)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(THREADS)]
        for thread in threads:
            thread.start()
        total = THREADS * ROUNDS
        expected = {
            "latch_pair": total,
            "log_record": total,
            "log_byte": 3 * total,
            "cw_maint_fixed": total,
            "cw_maint_word": 16 * total,
            "flush_fixed": 2 * total,
        }
        expected_ns = sum(DEFAULT_COSTS.unit_ns(e) * count for e, count in expected.items())
        try:
            charged.wait()
            threads[0].join(120)
            assert not threads[0].is_alive() and all(t.is_alive() for t in threads[1:])
            assert meter.counts == expected
            assert meter.clock.now_ns == expected_ns
        finally:
            release.set()
        for thread in threads:
            thread.join(120)
            assert not thread.is_alive(), "stress worker deadlocked"
        assert meter.counts == expected
        assert meter.clock.now_ns == expected_ns

    def test_readers_racing_adders_never_raise_or_run_the_clock_backwards(self):
        """Two threads charge every priced event through adders compiled
        before they started, one more event each round (so their tallies
        keep growing rows while being read), and two readers merge them
        throughout: no read raises, each reader's clock never decreases,
        and the totals come out exact once the chargers have exited."""
        clock = VirtualClock()
        meter = Meter(clock, DEFAULT_COSTS)
        events = sorted(DEFAULT_COSTS.unit_costs)
        adders = [meter.counter(event) for event in events]
        chargers, readers = 2, 2
        barrier = threading.Barrier(chargers + readers)
        errors: list[BaseException] = []
        readings: list[list[int]] = [[] for _ in range(readers)]

        def charger() -> None:
            barrier.wait()
            for round_ in range(ROUNDS):
                for add in adders[: round_ + 1]:
                    add(round_ % 3)

        def reader(index: int) -> None:
            barrier.wait()
            for _ in range(READS // 3):
                try:
                    meter.snapshot()
                    meter.counts
                    meter.time_ns
                    readings[index].append(clock.now_ns)
                except Exception as exc:  # noqa: BLE001 - every failure is reported
                    errors.append(exc)

        threads = [threading.Thread(target=charger) for _ in range(chargers)]
        threads += [threading.Thread(target=reader, args=(i,)) for i in range(readers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive(), "stress worker deadlocked"
        assert errors == []
        assert all(mine == sorted(mine) for mine in readings)
        expected = {
            event: chargers * sum(round_ % 3 for round_ in range(index, ROUNDS))
            for index, event in enumerate(events)
        }
        assert meter.counts == expected
        assert clock.now_ns == sum(
            DEFAULT_COSTS.unit_ns(event) * count for event, count in expected.items()
        )
