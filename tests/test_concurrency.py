"""Latch-mode concurrency semantics of Section 3.1/3.2.

"If so, a new latch, the codeword latch, may be introduced to guard the
update to the actual codewords, and the protection latch for a region
need only be held in shared mode by updaters.  During audit, the
protection latch must be taken in exclusive mode."

These tests drive a one-member pipeline's window hooks (or its
maintainer's ``open_window`` / ``close_window``) directly from two
threads, each with its own transaction object, and verify who blocks
whom:

* Data Codeword: two updaters share a region's protection latch;
* Read Prechecking: updaters exclude each other and readers;
* audits exclude updaters under both.

Because Data Codeword updaters share the protection latch, the codeword
latch is the *only* thing serializing the read-modify-write of a stored
codeword: ``TestCodewordLatchGuardsTheFold`` checks that it is held at
the moment the table is written, and that concurrent committers to their
own records never trip a false corruption alarm.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro import Database, DBConfig
from repro.core.data_codeword import DataCodewordScheme
from repro.core.pipeline import ProtectionPipeline
from repro.core.precheck import ReadPrecheckScheme
from repro.core.regions import CodewordTable
from repro.errors import LatchError
from repro.mem.memory import MemoryImage
from repro.sim.clock import Meter, VirtualClock
from repro.sim.costs import CostModel
from repro.txn.transaction import Transaction
from repro.wal.local_log import PhysicalUndo
from tests.conftest import ACCT_SCHEMA, insert_accounts

REGION = 4096


def _assert_held_across_table_writes(db, monkeypatch, latches) -> None:
    """Run an update, a multi-field update and an insert; every codeword
    table write must find each region it spans latched exclusively in
    ``latches``."""
    slots = insert_accounts(db, 2)
    seen: list[bool] = []

    real = CodewordTable.fold_updates

    def spy(table, items, *args):
        seen.append(
            all(
                latches.latch(r).held_exclusive()
                for address, old, _new in items
                for r in table.regions_spanning(address, len(old))
            )
        )
        return real(table, items, *args)

    monkeypatch.setattr(CodewordTable, "fold_updates", spy)
    table = db.table("acct")
    operations = {
        "single-field update": lambda txn: table.update(txn, slots[0], {"balance": 1}),
        "multi-field update": lambda txn: table.update(
            txn, slots[1], {"balance": 2, "name": "two"}
        ),
        "insert": lambda txn: table.insert(txn, {"id": 9, "balance": 3, "name": "nine"}),
    }
    for label, operation in operations.items():
        del seen[:]
        txn = db.begin()
        operation(txn)
        db.commit(txn)
        assert seen and all(seen), (label, seen)
    assert db.audit().clean


def make_scheme(cls, **kwargs):
    """A one-member pipeline over ``cls`` on a two-region image."""
    memory = MemoryImage(page_size=4096)
    memory.add_segment("data", 2 * REGION)
    pipeline = ProtectionPipeline([cls(region_size=REGION, **kwargs)])
    pipeline.attach(memory, Meter(VirtualClock(), CostModel.free()))
    pipeline.startup()
    return pipeline, memory


def window_in_thread(scheme, address, entered: threading.Event, release: threading.Event):
    """Open an update window in a thread; signal entry, wait to close."""
    txn = Transaction(txn_id=999)

    def work():
        window = scheme.on_begin_update_batch(txn, [(address, 8)])
        entered.set()
        release.wait(timeout=5)
        old = scheme.memory.read(address, 8)
        new = b"\x01" * 8
        scheme.memory.write(address, new)
        scheme.on_end_update_batch(txn, window, [(address, old, new)])

    thread = threading.Thread(target=work)
    thread.start()
    return thread


class TestDataCodewordSharing:
    def test_two_updaters_share_one_region(self):
        """Both windows open concurrently in the SAME region."""
        scheme, _memory = make_scheme(DataCodewordScheme)
        entered_a, release_a = threading.Event(), threading.Event()
        entered_b, release_b = threading.Event(), threading.Event()
        thread_a = window_in_thread(scheme, 0, entered_a, release_a)
        assert entered_a.wait(timeout=5)
        thread_b = window_in_thread(scheme, 64, entered_b, release_b)
        # B enters while A still holds its window: shared latch mode.
        assert entered_b.wait(timeout=5)
        release_a.set()
        release_b.set()
        thread_a.join(timeout=5)
        thread_b.join(timeout=5)
        assert scheme.codeword_table.scan_mismatches() == []

    def test_audit_excluded_while_updater_active(self):
        """The auditor needs the protection latch exclusively."""
        scheme, _memory = make_scheme(DataCodewordScheme)
        entered, release = threading.Event(), threading.Event()
        thread = window_in_thread(scheme, 0, entered, release)
        assert entered.wait(timeout=5)
        audit_done = threading.Event()
        result = {}

        def audit():
            result["corrupt"] = scheme.audit_regions([0])
            audit_done.set()

        auditor = threading.Thread(target=audit)
        auditor.start()
        # The audit must NOT complete while the window is open.
        assert not audit_done.wait(timeout=0.2)
        release.set()
        thread.join(timeout=5)
        assert audit_done.wait(timeout=5)
        auditor.join(timeout=5)
        assert result["corrupt"] == []


class TestPrecheckExclusion:
    def test_updaters_exclude_each_other_in_a_region(self):
        scheme, _memory = make_scheme(ReadPrecheckScheme)
        entered_a, release_a = threading.Event(), threading.Event()
        entered_b, release_b = threading.Event(), threading.Event()
        thread_a = window_in_thread(scheme, 0, entered_a, release_a)
        assert entered_a.wait(timeout=5)
        thread_b = window_in_thread(scheme, 64, entered_b, release_b)
        # B must block: exclusive protection latch.
        assert not entered_b.wait(timeout=0.2)
        release_a.set()
        thread_a.join(timeout=5)
        assert entered_b.wait(timeout=5)
        release_b.set()
        thread_b.join(timeout=5)
        assert scheme.codeword_table.scan_mismatches() == []

    def test_updaters_in_different_regions_do_not_interact(self):
        scheme, _memory = make_scheme(ReadPrecheckScheme)
        entered_a, release_a = threading.Event(), threading.Event()
        entered_b, release_b = threading.Event(), threading.Event()
        thread_a = window_in_thread(scheme, 0, entered_a, release_a)
        assert entered_a.wait(timeout=5)
        thread_b = window_in_thread(scheme, REGION, entered_b, release_b)
        assert entered_b.wait(timeout=5)  # different region: no conflict
        release_a.set()
        release_b.set()
        thread_a.join(timeout=5)
        thread_b.join(timeout=5)

    def test_reader_blocks_behind_open_window(self):
        """Prechecking readers take the latch exclusively too."""
        scheme, _memory = make_scheme(ReadPrecheckScheme)
        entered, release = threading.Event(), threading.Event()
        writer = window_in_thread(scheme, 0, entered, release)
        assert entered.wait(timeout=5)
        read_done = threading.Event()

        def read():
            txn = Transaction(txn_id=1000)
            scheme.on_read(txn, 16, 8)
            read_done.set()

        reader = threading.Thread(target=read)
        reader.start()
        assert not read_done.wait(timeout=0.2)
        release.set()
        writer.join(timeout=5)
        assert read_done.wait(timeout=5)
        reader.join(timeout=5)


class TestCodewordLatchGuardsTheFold:
    def test_codeword_latch_held_while_table_is_written(self, db_factory, monkeypatch):
        """Every region a table write spans has its codeword latch held
        exclusively at that moment -- whatever the window's shape."""
        db = db_factory(scheme="data_cw", region_size=64)
        _assert_held_across_table_writes(
            db, monkeypatch, db.pipeline.maintainer.codeword_latches
        )

    def test_protection_latch_guards_a_prechecking_stack(self, db_factory, monkeypatch):
        """A stack that prechecks reads holds its window's protection latch
        exclusively across the table write, so its codeword latch is
        priced but not taken."""
        db = db_factory(scheme="precheck+read_logging", region_size=64)
        _assert_held_across_table_writes(
            db, monkeypatch, db.pipeline.maintainer.protection_latches
        )

    def test_concurrent_single_field_updates_raise_no_false_alarm(self, tmp_path):
        """Four threads commit single-field updates, each to its *own*
        record; no wild write anywhere.  All four records share region 0,
        whose codeword is a read-modify-write under a *shared* protection
        latch -- a fold outside the codeword latch loses a delta and the
        audit convicts the region with no fault injected.  (Needs the
        volume: 4 x 300 does not reproduce the lost update.)"""
        threads, rounds = 4, 3000
        db = Database(
            DBConfig(dir=str(tmp_path), scheme="data_cw", scheduler_mode="threaded")
        )
        db.create_table("acct", ACCT_SCHEMA, 16, key_field="id")
        db.start()
        slots = insert_accounts(db, threads)
        table = db.table("acct")
        failures: list[Exception] = []

        def work(worker: int) -> None:
            try:
                for i in range(rounds):
                    txn = db.begin()
                    table.update(txn, slots[worker], {"balance": worker * rounds + i})
                    db.commit(txn)
            except Exception as exc:  # surfaced below, on the test thread
                failures.append(exc)

        workers = [threading.Thread(target=work, args=(w,)) for w in range(threads)]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in workers:
                thread.start()
            for thread in workers:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(previous)
        try:
            assert not any(thread.is_alive() for thread in workers)
            assert not failures
            report = db.audit()
            assert report.clean, report.corrupt_regions
            txn = db.begin()
            balances = [table.read(txn, slots[w])["balance"] for w in range(threads)]
            db.commit(txn)
            assert balances == [w * rounds + rounds - 1 for w in range(threads)]
        finally:
            db.close()



def _fail_acquire_of(monkeypatch, latches, failing_key) -> None:
    """Make ``latches``' acquire of ``failing_key`` raise, as a timeout would."""
    real = latches.acquire

    def acquire(key, mode, timeout=10.0):
        if key == failing_key:
            raise LatchError(f"injected timeout on {key}")
        real(key, mode, timeout)

    monkeypatch.setattr(latches, "acquire", acquire)


def _assert_nothing_held(maintainer) -> None:
    assert len(maintainer.protection_latches) == 0
    assert len(maintainer.codeword_latches) == 0


class TestFailedAcquireReleasesTakenLatches:
    """A latch loop whose second acquire fails releases the first."""

    def test_physical_undo(self, monkeypatch):
        scheme, _memory = make_scheme(ReadPrecheckScheme)
        maintainer = scheme.maintainer
        _fail_acquire_of(monkeypatch, maintainer.protection_latches, 1)
        # Eight bytes across the boundary of regions 0 and 1.
        entry = PhysicalUndo(seq=0, op_id=0, address=REGION - 4, image=bytes(8))
        with pytest.raises(LatchError):
            maintainer.apply_physical_undo(entry)
        _assert_nothing_held(maintainer)

    def test_maintain(self, monkeypatch):
        scheme, memory = make_scheme(DataCodewordScheme)
        maintainer = scheme.maintainer
        ranges = [(0, 8), (REGION, 8)]
        window = maintainer.open_window(ranges)
        _fail_acquire_of(monkeypatch, maintainer.codeword_latches, 1)
        items = [(a, memory.read(a, n), b"\x01" * n) for a, n in ranges]
        with pytest.raises(LatchError):
            maintainer.close_window(window, items)
        # The window's owner closes it after a failed end_update.
        maintainer.release_window(window)
        _assert_nothing_held(maintainer)


def _pause_after_first_latch(monkeypatch, latches, names: tuple[str, str]) -> None:
    """Each named thread, once it holds its first latch of ``latches``,
    waits up to a second for the other thread to hold its own first
    latch; every acquire gives up after two seconds instead of ten."""
    first = {name: threading.Event() for name in names}
    real = latches.acquire

    def acquire(key, mode, timeout=10.0):
        real(key, mode, 2.0)
        me = threading.current_thread().name
        if not first[me].is_set():
            first[me].set()
            (other,) = set(names) - {me}
            first[other].wait(timeout=1.0)

    monkeypatch.setattr(latches, "acquire", acquire)


class TestAscendingLatchOrder:
    """Two windows over regions (A, B) and (B, A), no record locks: with
    latches taken in ascending region id they cannot deadlock."""

    @pytest.mark.parametrize(
        "cls, probed",
        [
            (ReadPrecheckScheme, "protection_latches"),  # exclusive update latches
            (DataCodewordScheme, "codeword_latches"),  # exclusive codeword latches
        ],
    )
    def test_crossed_windows_both_complete(self, monkeypatch, cls, probed):
        scheme, memory = make_scheme(cls)
        maintainer = scheme.maintainer
        _pause_after_first_latch(monkeypatch, getattr(maintainer, probed), ("ab", "ba"))
        windows = {
            "ab": [(0, 8), (REGION, 8)],
            "ba": [(REGION + 64, 8), (64, 8)],
        }
        failures: list[Exception] = []

        def window(name: str, txn_id: int) -> None:
            ranges = windows[name]
            try:
                opened = maintainer.open_window(ranges)
                items = []
                for address, length in ranges:
                    old = memory.read(address, length)
                    new = bytes([txn_id]) * length
                    memory.write(address, new)
                    items.append((address, old, new))
                maintainer.close_window(opened, items)
            except Exception as exc:  # a dying thread must fail the test
                failures.append(exc)

        threads = [
            threading.Thread(target=window, args=(name, n), name=name)
            for n, name in enumerate(windows, start=1)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures
        _assert_nothing_held(maintainer)
        assert scheme.codeword_table.scan_mismatches() == []


class TestWindowCrossesRepair:
    """A two-range window over regions (A, B) crossed with
    ``repair_regions`` over the same two regions: both latch in ascending
    region id, the repair exclusively, so neither waits on the other for
    good.  A window that latched its regions in descending id would hold
    B while the repair holds A, and one of the two would time out."""

    def test_window_and_repair_both_complete(self, db_factory, monkeypatch):
        from repro.recovery.cache_recovery import repair_regions

        db = db_factory(scheme="data_cw", region_size=64)
        table = db.table("acct")
        slots = insert_accounts(db, 8)
        db.checkpoint()
        maintainer = db.pipeline.maintainer
        codewords = maintainer.table
        first = table.record_address(slots[0])
        region_a = codewords.region_of(first)
        second = next(
            table.record_address(s)
            for s in slots
            if codewords.region_of(table.record_address(s)) == region_a + 1
        )
        # Ranges listed B first: only the window's own sort orders them.
        ranges = [(second, 8), (first, 8)]
        _pause_after_first_latch(
            monkeypatch, maintainer.protection_latches, ("window", "repair")
        )
        failures: list[Exception] = []

        def window() -> None:
            try:
                opened = maintainer.open_window(ranges)
                items = [(a, db.memory.read(a, n), db.memory.read(a, n)) for a, n in ranges]
                maintainer.close_window(opened, items)
            except Exception as exc:  # a dying thread must fail the test
                failures.append(exc)

        def repair() -> None:
            try:
                repair_regions(db, [region_a, region_a + 1])
            except Exception as exc:
                failures.append(exc)

        threads = [
            threading.Thread(target=window, name="window"),
            threading.Thread(target=repair, name="repair"),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures
        _assert_nothing_held(maintainer)
        assert db.audit().clean
