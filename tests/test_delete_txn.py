"""Delete-transaction corruption recovery (Section 4.3)."""

import pytest

from repro import FaultInjector
from repro.recovery.history import (
    check_conflict_consistent,
    check_view_consistent,
    expected_final_state,
)
from repro.recovery.restart import CorruptDataTable

from tests.conftest import insert_accounts


class TestCorruptDataTable:
    def test_empty_overlaps_nothing(self):
        assert not CorruptDataTable().overlaps(0, 100)

    def test_basic_overlap(self):
        cdt = CorruptDataTable()
        cdt.add(100, 50)
        assert cdt.overlaps(120, 10)
        assert cdt.overlaps(90, 20)
        assert cdt.overlaps(149, 1)
        assert not cdt.overlaps(150, 10)
        assert not cdt.overlaps(0, 100)

    def test_merge_adjacent(self):
        cdt = CorruptDataTable()
        cdt.add(0, 10)
        cdt.add(10, 10)
        assert len(cdt) == 1
        assert cdt.ranges == [(0, 20)]

    def test_merge_overlapping_and_swallowing(self):
        cdt = CorruptDataTable()
        cdt.add(0, 10)
        cdt.add(30, 10)
        cdt.add(5, 30)  # bridges both
        assert cdt.ranges == [(0, 40)]

    def test_disjoint_ranges_stay_separate(self):
        cdt = CorruptDataTable()
        cdt.add(0, 10)
        cdt.add(100, 10)
        assert len(cdt) == 2

    def test_zero_length_ignored(self):
        cdt = CorruptDataTable()
        cdt.add(5, 0)
        assert len(cdt) == 0
        assert not cdt.overlaps(5, 0)


def corrupted_db(db_factory, scheme, n_accounts=12, region_size=None):
    params = {} if region_size is None else {"region_size": region_size}
    db = db_factory(scheme=scheme, **params)
    slots = insert_accounts(db, n_accounts)
    db.checkpoint()
    return db, slots


@pytest.fixture
def recover_corrupt(recover):
    """Audit (it must fail), crash with the corruption note, recover."""

    def run(db):
        report = db.audit()
        assert not report.clean
        db.crash_with_corruption(report)
        return recover(db.config)

    return run


def run_carrier_scenario(db, slots):
    """Wild write on account 1; T_carrier reads it and writes account 2."""
    table = db.table("acct")
    injector = FaultInjector(db, seed=7)
    injector.wild_write(table.record_address(slots[1]) + 8, 8)
    txn = db.begin()
    bad_balance = table.read(txn, slots[1])["balance"]
    table.update(txn, slots[2], {"balance": bad_balance})
    db.commit(txn)
    return txn.txn_id


class TestViewConsistentRecovery:
    """The checksum extension: precise, view-consistent delete histories."""

    def test_only_carrier_deleted(self, db_factory, recover_corrupt):
        db, slots = corrupted_db(db_factory, "cw_read_logging")
        table = db.table("acct")
        carrier = run_carrier_scenario(db, slots)
        txn = db.begin()
        table.update(txn, slots[5], {"balance": 555})  # clean bystander
        db.commit(txn)
        clean_txn = txn.txn_id
        db2, report = recover_corrupt(db)
        assert report.mode == "delete-transaction-view"
        assert report.deleted_set == {carrier}
        assert clean_txn not in report.deleted_set
        txn = db2.begin()
        t2 = db2.table("acct")
        assert t2.read(txn, slots[2])["balance"] == 100  # carried write undone
        assert t2.read(txn, slots[5])["balance"] == 555  # bystander survives
        assert t2.read(txn, slots[1])["balance"] == 100  # direct corruption gone
        db2.commit(txn)

    def test_transitive_corruption_traced(self, db_factory, recover_corrupt):
        """T2 reads what the carrier wrote -> T2 is deleted too."""
        db, slots = corrupted_db(db_factory, "cw_read_logging")
        table = db.table("acct")
        carrier = run_carrier_scenario(db, slots)
        txn = db.begin()
        v = table.read(txn, slots[2])["balance"]  # reads carried corruption
        table.update(txn, slots[3], {"balance": v + 1})
        db.commit(txn)
        second_carrier = txn.txn_id
        db2, report = recover_corrupt(db)
        assert report.deleted_set == {carrier, second_carrier}
        txn = db2.begin()
        assert db2.table("acct").read(txn, slots[3])["balance"] == 100
        db2.commit(txn)

    def test_history_oracles_hold(self, db_factory, recover_corrupt):
        db, slots = corrupted_db(db_factory, "cw_read_logging")
        table = db.table("acct")
        run_carrier_scenario(db, slots)
        txn = db.begin()
        table.update(txn, slots[6], {"balance": 606})
        db.commit(txn)
        history = db.history
        _db2, report = recover_corrupt(db)
        # The checksum variant guarantees view-consistency (Section 4.3);
        # in this particular schedule conflict-consistency holds too.
        assert check_view_consistent(history, report.deleted_set) == []
        assert check_conflict_consistent(history, report.deleted_set) == []

    def test_final_state_matches_delete_history(self, db_factory, recover_corrupt):
        db, slots = corrupted_db(db_factory, "cw_read_logging")
        table = db.table("acct")
        run_carrier_scenario(db, slots)
        history = db.history
        db2, report = recover_corrupt(db)
        expected = expected_final_state(history, report.deleted_set)
        txn = db2.begin()
        t2 = db2.table("acct")
        for (tbl, slot), value in expected.items():
            if tbl != "acct" or value is None:
                continue
            assert t2.read_bytes(txn, slot) == value
        db2.commit(txn)

    def test_recovery_runs_even_without_corruption_note(self, db_factory, recover):
        """With checksummed read logs, every restart traces corruption."""
        db, slots = corrupted_db(db_factory, "cw_read_logging")
        carrier = run_carrier_scenario(db, slots)
        db.crash()  # a 'true' crash: no failed audit, no note
        db2, report = recover(db.config)
        assert report.mode == "delete-transaction-view"
        assert carrier in report.deleted_set
        txn = db2.begin()
        assert db2.table("acct").read(txn, slots[2])["balance"] == 100
        db2.commit(txn)

    def test_post_recovery_database_is_certified(self, db_factory, recover_corrupt):
        db, slots = corrupted_db(db_factory, "cw_read_logging")
        run_carrier_scenario(db, slots)
        db2, _report = recover_corrupt(db)
        assert db2.audit().clean
        # and the corruption note is gone
        import os

        assert not os.path.exists(db2.path("corruption.note"))


class TestViewNotConflictConsistent:
    """Section 4.3, last paragraph: the checksum algorithm produces a
    schedule that is view-consistent but NOT conflict-consistent -- it
    does not propagate deletion "when the corrupt transaction wrote the
    same data to a data item as it would have had in the delete-history".
    """

    def test_same_value_writer_does_not_recruit_reader(self, db_factory, recover):
        db = db_factory(scheme="cw_read_logging")
        slots = insert_accounts(db, 4)
        db.checkpoint()
        table = db.table("acct")
        # Direct corruption on account 0's balance.
        FaultInjector(db, seed=1).wild_write(table.record_address(slots[0]) + 8, 8)
        # T_w reads corrupt account 0 (recruited later) but writes the
        # value account 1 ALREADY holds -- the same value it would have in
        # the delete history.
        txn = db.begin()
        table.read(txn, slots[0])
        table.update(txn, slots[1], {"balance": 100})  # writes 100 over 100
        db.commit(txn)
        writer = txn.txn_id
        # T_r reads account 1: conflict-wise it read from T_w, value-wise
        # it read exactly what the delete history holds.
        txn = db.begin()
        value = table.read(txn, slots[1])["balance"]
        table.update(txn, slots[2], {"balance": value + 1})
        db.commit(txn)
        reader = txn.txn_id
        report = db.audit()
        db.crash_with_corruption(report)
        _db2, recovery = recover(db.config)
        assert writer in recovery.deleted_set
        assert reader not in recovery.deleted_set  # kept: view-consistent
        history = db.history
        from repro.recovery.history import (
            check_conflict_consistent as conflict_check,
            check_view_consistent as view_check,
        )

        assert view_check(history, recovery.deleted_set) == []
        # ...and the schedule genuinely violates conflict-consistency,
        # which is the paper's point, not a bug.
        assert conflict_check(history, recovery.deleted_set) != []


class TestConflictConsistentRecovery:
    """Plain read logging: region-granular CorruptDataTable tracing."""

    def test_carrier_deleted_conservatively(self, db_factory, recover_corrupt):
        # Small regions keep the corrupt range focused on one record.
        db, slots = corrupted_db(db_factory, "read_logging", region_size=32)
        carrier = run_carrier_scenario(db, slots)
        db2, report = recover_corrupt(db)
        assert report.mode == "delete-transaction"
        assert carrier in report.deleted_set
        txn = db2.begin()
        assert db2.table("acct").read(txn, slots[2])["balance"] == 100
        db2.commit(txn)

    def test_conflict_consistency_oracle_holds(self, db_factory, recover_corrupt):
        db, slots = corrupted_db(db_factory, "read_logging", region_size=32)
        table = db.table("acct")
        run_carrier_scenario(db, slots)
        txn = db.begin()
        table.update(txn, slots[8], {"balance": 808})
        db.commit(txn)
        history = db.history
        _db2, report = recover_corrupt(db)
        assert check_conflict_consistent(history, report.deleted_set) == []

    def test_reader_of_untouched_region_survives(self, db_factory, recover_corrupt):
        db, slots = corrupted_db(db_factory, "read_logging", region_size=32)
        table = db.table("acct")
        carrier = run_carrier_scenario(db, slots)
        txn = db.begin()
        table.update(txn, slots[9], {"balance": 909})
        db.commit(txn)
        bystander = txn.txn_id
        _db2, report = recover_corrupt(db)
        assert carrier in report.deleted_set
        assert bystander not in report.deleted_set

    def test_writes_of_corrupt_txn_suppressed(self, db_factory, recover_corrupt):
        db, slots = corrupted_db(db_factory, "read_logging", region_size=32)
        carrier = run_carrier_scenario(db, slots)
        _db2, report = recover_corrupt(db)
        assert report.writes_suppressed > 0
        assert report.recruited[carrier].startswith("read data")


class TestConflictRecruitment:
    def test_op_conflicting_with_corrupt_undo_recruited(self, db_factory, recover):
        """A later op on the same object as a corrupt txn's undone op must
        be recruited, or the corrupt op could not be rolled back."""
        db, slots = corrupted_db(db_factory, "read_logging", region_size=32)
        table = db.table("acct")
        injector = FaultInjector(db, seed=9)
        injector.wild_write(table.record_address(slots[1]) + 8, 8)
        # T_carrier reads corrupt account 1, writes account 2, stays open
        # long enough for T_bystander to also write account 2?  Locks
        # prevent that; instead: carrier writes acct 2 and commits, then a
        # clean txn operates on acct 2 WITHOUT reading the corrupt value
        # region...  write_fields reads the bytes it overwrites, so use an
        # insert-style conflict: carrier deletes a record; a later txn
        # re-inserts into the freed slot.
        txn = db.begin()
        table.read(txn, slots[1])  # becomes corrupt at recovery
        table.delete(txn, slots[4])
        db.commit(txn)
        carrier = txn.txn_id
        txn = db.begin()
        new_slot = table.insert(txn, {"id": 200, "balance": 7})
        db.commit(txn)
        reuser = txn.txn_id
        assert new_slot == slots[4]  # allocator reused the freed slot
        report = db.audit()
        db.crash_with_corruption(report)
        db2, rec = recover(db.config)
        assert carrier in rec.deleted_set
        assert reuser in rec.deleted_set
        reason = rec.recruited[reuser]
        assert "conflict" in reason or "read data" in reason
        # account 4 is back (delete was deleted from history)
        txn = db2.begin()
        assert db2.table("acct").lookup(txn, 4) == slots[4]
        db2.commit(txn)


    @pytest.mark.parametrize("scheme", ["read_logging", "cw_read_logging"])
    def test_conflict_alone_recruits_a_txn_the_cdt_cannot(
        self, db_factory, recover, scheme
    ):
        """The carrier updates account 8 before it reads the corrupt
        account 1, so that write is redone, stays on its frozen undo log
        and never enters the CDT.  A later transaction that only updates
        account 8 touches nothing the CDT holds and passes every read
        checksum; the conflict rule alone recruits it, or the carrier's
        rollback of account 8 would land on top of the later write."""
        db, slots = corrupted_db(db_factory, scheme, region_size=32)
        table = db.table("acct")
        FaultInjector(db, seed=9).wild_write(table.record_address(slots[1]) + 8, 8)
        txn = db.begin()
        table.update(txn, slots[8], {"balance": 800})
        table.read(txn, slots[1])  # becomes corrupt at recovery
        db.commit(txn)
        carrier = txn.txn_id
        txn = db.begin()
        table.update(txn, slots[8], {"balance": 801})
        db.commit(txn)
        later = txn.txn_id
        report = db.audit()
        assert not report.clean
        db.crash_with_corruption(report)
        db2, rec = recover(db.config)
        assert rec.recruited[carrier].startswith("read")
        assert rec.recruited[later] == f"conflicts with corrupt undo on acct:{slots[8]}"
        assert rec.deleted_set == {carrier, later}
        txn = db2.begin()
        assert db2.table("acct").read(txn, slots[8])["balance"] == 100
        db2.commit(txn)


class TestHardwareNeedsNoRecovery:
    def test_trap_leaves_nothing_to_recover(self, db_factory, recover):
        from repro.errors import ProtectionFault

        db = db_factory(scheme="hardware")
        slots = insert_accounts(db, 3)
        db.checkpoint()
        injector = FaultInjector(db, seed=3)
        with pytest.raises(ProtectionFault):
            injector.wild_write(db.table("acct").record_address(slots[1]), 8)
        db.crash()
        db2, report = recover(db.config)
        assert report.mode == "normal"
        txn = db2.begin()
        assert db2.table("acct").read(txn, slots[1])["balance"] == 100
        db2.commit(txn)
