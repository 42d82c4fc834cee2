"""Prior-state recovery, and its contrast with the delete-transaction model."""

import pytest

from repro import Database, FaultInjector
from repro.errors import RecoveryError
from repro.recovery.prior_state import recover_prior_state

from tests.conftest import insert_accounts


def corrupted_run(db_factory, scheme="cw_read_logging"):
    """Checkpoint, clean txn, wild write, carrier txn, clean txn, audit."""
    db = db_factory(scheme=scheme)
    slots = insert_accounts(db, 10)
    db.checkpoint()
    table = db.table("acct")
    txn = db.begin()
    table.update(txn, slots[0], {"balance": 111})
    db.commit(txn)
    pre_corruption_txn = txn.txn_id
    FaultInjector(db, seed=1).wild_write(table.record_address(slots[1]) + 8, 8)
    txn = db.begin()
    value = table.read(txn, slots[1])["balance"]
    table.update(txn, slots[2], {"balance": value})
    db.commit(txn)
    carrier_txn = txn.txn_id
    txn = db.begin()
    table.update(txn, slots[3], {"balance": 333})
    db.commit(txn)
    clean_txn = txn.txn_id
    report = db.audit()
    assert not report.clean
    db.crash_with_corruption(report)
    return db, slots, pre_corruption_txn, carrier_txn, clean_txn


class TestPriorStateRecovery:
    def test_everything_after_cutoff_lost(self, db_factory):
        db, slots, pre, carrier, clean = corrupted_run(db_factory)
        db2, report = recover_prior_state(db.config)
        # The cutoff is the last clean audit, taken at the checkpoint --
        # BEFORE the pre-corruption transaction, which is therefore lost
        # too: the whole point of the paper's finer-grained model.
        assert pre in report.lost_set
        assert carrier in report.lost_set
        assert clean in report.lost_set
        txn = db2.begin()
        table = db2.table("acct")
        for i in range(4):
            assert table.read(txn, slots[i])["balance"] == 100
        db2.commit(txn)
        assert db2.audit().clean
        db2.close()

    def test_prior_state_loses_superset_of_delete_transaction(self, db_factory):
        """The quantitative contrast of Section 4.1."""
        db, _slots, pre, carrier, clean = corrupted_run(db_factory)
        _db_d, delete_report = Database.recover(db.config)
        _db_d.close()

        db2, _, pre2, carrier2, clean2 = corrupted_run(db_factory)
        _db_p, prior_report = recover_prior_state(db2.config)
        _db_p.close()

        # Same scenario: delete-transaction deletes only the carrier;
        # prior-state loses all three.
        assert delete_report.deleted_set == {carrier}
        assert prior_report.lost_set >= {pre2, carrier2, clean2}
        assert len(prior_report.lost_set) > len(delete_report.deleted_set)

    def test_recovered_database_usable(self, db_factory):
        db, slots, *_ = corrupted_run(db_factory)
        db2, _report = recover_prior_state(db.config)
        txn = db2.begin()
        db2.table("acct").update(txn, slots[0], {"balance": 5})
        db2.commit(txn)
        db2.checkpoint()
        db2.close()

    def test_requires_corruption_note(self, db_factory):
        db = db_factory()
        insert_accounts(db, 2)
        db.crash()
        with pytest.raises(RecoveryError):
            recover_prior_state(db.config)

    def test_open_transaction_at_checkpoint_rolled_back(self, db_factory):
        db = db_factory(scheme="data_cw")
        slots = insert_accounts(db, 5)
        txn_open = db.begin()
        db.table("acct").update(txn_open, slots[4], {"balance": 444})
        db.checkpoint()  # open txn's undo goes into the checkpoint ATT
        FaultInjector(db, seed=2).wild_write(
            db.table("acct").record_address(slots[1]) + 8, 8
        )
        report = db.audit()
        db.crash_with_corruption(report)
        db2, _report = recover_prior_state(db.config)
        txn = db2.begin()
        assert db2.table("acct").read(txn, slots[4])["balance"] == 100
        db2.commit(txn)
        assert db2.audit().clean
        db2.close()


@pytest.mark.parametrize("index_type", ["hash", "btree"])
@pytest.mark.parametrize("scheme", ["cw_read_logging", "data_cw"])
def test_lost_transaction_leaves_no_phantom_row(db_factory, scheme, index_type):
    """History is repeated to the cutoff, never replayed filtered by
    transaction: T1 (kept) allocated its slot *after* T2 (lost) did, so
    T1's after-images of the allocator and index embed T2's insert.
    Skipping T2's records while applying T1's used to certify a 12th,
    all-zero row in the slot T2 allocated."""
    db = db_factory(scheme=scheme, index_type=index_type)
    slots = insert_accounts(db, 10)
    db.checkpoint()
    table = db.table("acct")
    t2 = db.begin()
    table.insert(t2, {"id": 1000, "balance": 1, "name": "lost"})
    t1 = db.begin()
    table.insert(t1, {"id": 2000, "balance": 2, "name": "kept"})
    db.commit(t1)
    assert db.audit().clean  # the cutoff: T1 committed, T2 in flight
    db.commit(t2)
    t3 = db.begin()
    table.delete(t3, slots[3])
    db.commit(t3)
    FaultInjector(db, seed=1).wild_write(table.record_address(slots[1]) + 8, 8)
    report = db.audit()
    assert not report.clean
    db.crash_with_corruption(report)

    db2, prior = recover_prior_state(db.config)
    assert prior.lost_set == {t2.txn_id, t3.txn_id}
    table = db2.table("acct")
    txn = db2.begin()
    assert table.row_count(txn) == 11
    rows = {slot: table.read(txn, slot) for slot in table.scan_slots(txn)}
    assert sorted(row["id"] for row in rows.values()) == [*range(10), 2000]
    assert table.lookup(txn, 1000) is None
    kept = table.read(txn, table.lookup(txn, 2000))
    assert (kept["balance"], kept["name"]) == (2, b"kept")
    assert table.read(txn, slots[3])["id"] == 3  # T3's delete is undone
    for slot, row in rows.items():
        assert table.lookup(txn, row["id"]) == slot
    db2.commit(txn)
    assert db2.audit().clean
    db2.close()
