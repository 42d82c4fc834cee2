"""Hardware Protection: trap-based prevention of direct corruption."""

import pytest

from repro import FaultInjector
from repro.errors import ProtectionFault
from repro.mem.mprotect import MprotectCosts

from tests.conftest import insert_accounts


@pytest.fixture
def hdb(db_factory):
    return db_factory(scheme="hardware")


class TestPrevention:
    def test_wild_write_trapped_and_prevented(self, hdb):
        slots = insert_accounts(hdb, 3)
        table = hdb.table("acct")
        address = table.record_address(slots[1])
        before = hdb.memory.read(address, 8)
        injector = FaultInjector(hdb, seed=1)
        with pytest.raises(ProtectionFault):
            injector.wild_write(address, 8)
        assert hdb.memory.read(address, 8) == before

    def test_prescribed_updates_still_work(self, hdb):
        slots = insert_accounts(hdb, 2)
        table = hdb.table("acct")
        txn = hdb.begin()
        table.update(txn, slots[0], {"balance": 555})
        hdb.commit(txn)
        txn = hdb.begin()
        assert table.read(txn, slots[0])["balance"] == 555
        hdb.commit(txn)

    def test_whole_image_protected_after_startup(self, hdb):
        mmu = hdb.pipeline.member("hardware").mmu
        assert mmu.enforcing
        assert mmu.protected_page_count == hdb.memory.page_count

    def test_pages_reprotected_after_update(self, hdb):
        slots = insert_accounts(hdb, 1)
        table = hdb.table("acct")
        txn = hdb.begin()
        table.update(txn, slots[0], {"balance": 1})
        hdb.commit(txn)
        assert hdb.pipeline.member("hardware").mmu.protected_page_count == hdb.memory.page_count

    def test_corruption_during_open_window_not_prevented(self, hdb):
        """The Ng/Chen residual-risk window (Section 4): while a page is
        exposed for a legitimate update, a wild write to it succeeds."""
        slots = insert_accounts(hdb, 1)
        table = hdb.table("acct")
        address = table.record_address(slots[0])
        txn = hdb.begin()
        hdb.manager.begin_operation(txn, "w")
        hdb.manager.begin_update(txn, address, 8)
        injector = FaultInjector(hdb, seed=2)
        event = injector.wild_write(address, 4)  # same page, exposed
        assert hdb.memory.read(address, 4) == event.new
        hdb.manager.end_update(txn)
        from repro.wal.records import LogicalUndo

        hdb.manager.commit_operation(txn, LogicalUndo("noop"))
        hdb.commit(txn)

    def test_rollback_goes_through_expose_cover(self, hdb):
        slots = insert_accounts(hdb, 1)
        table = hdb.table("acct")
        txn = hdb.begin()
        table.update(txn, slots[0], {"balance": 9})
        hdb.abort(txn)  # undo must expose pages to restore the image
        txn = hdb.begin()
        assert table.read(txn, slots[0])["balance"] == 100
        hdb.commit(txn)
        assert hdb.pipeline.member("hardware").mmu.protected_page_count == hdb.memory.page_count


class TestCosts:
    def test_update_charges_two_calls_and_penalties(self, hdb):
        slots = insert_accounts(hdb, 1)
        table = hdb.table("acct")
        hdb.meter.reset()
        txn = hdb.begin()
        table.update(txn, slots[0], {"balance": 1})
        hdb.commit(txn)
        # One update window plus allocator is_allocated read: exactly one
        # begin_update/end_update pair for the balance field.
        assert hdb.meter.counts["mprotect_call"] >= 2
        assert (
            hdb.meter.counts["mprotect_workload_penalty"]
            == hdb.meter.counts["mprotect_call"]
        )

    def test_platform_costs_flow_through(self, db_factory):
        slow = MprotectCosts(syscall_fixed_ns=1_000_000, per_page_ns=0)
        db = db_factory(scheme="hardware", mprotect_costs=slow)
        slots = insert_accounts(db, 1)
        before = db.clock.now_ns
        txn = db.begin()
        db.table("acct").update(txn, slots[0], {"balance": 1})
        db.commit(txn)
        # Two syscalls at 1 ms each must dominate this tiny transaction.
        assert db.clock.now_ns - before > 2_000_000

    def test_audit_is_trivially_clean(self, hdb):
        insert_accounts(hdb, 1)
        assert hdb.audit().clean
        assert hdb.pipeline.codeword_table is None
