"""Logical corruption repair: delete named transactions + taint tracing."""

import pytest

from repro.errors import RecoveryError
from repro.recovery.logical import delete_transactions, trace_readers

from tests.conftest import insert_accounts


def setup_history(db_factory, scheme="read_logging"):
    """bad txn writes acct 1; carrier reads acct 1 and writes acct 2;
    bystander writes acct 3."""
    db = db_factory(scheme=scheme, region_size=32)
    slots = insert_accounts(db, 6)
    db.checkpoint()
    table = db.table("acct")
    txn = db.begin()
    table.update(txn, slots[1], {"balance": 9_999_999})  # fat-fingered entry
    db.commit(txn)
    bad = txn.txn_id
    txn = db.begin()
    value = table.read(txn, slots[1])["balance"]
    table.update(txn, slots[2], {"balance": value // 100})
    db.commit(txn)
    carrier = txn.txn_id
    txn = db.begin()
    table.update(txn, slots[3], {"balance": 333})
    db.commit(txn)
    bystander = txn.txn_id
    return db, slots, bad, carrier, bystander


class TestDeleteTransactions:
    def test_root_and_taint_deleted(self, db_factory):
        db, slots, bad, carrier, bystander = setup_history(db_factory)
        db.crash()
        db2, report = delete_transactions(db.config, [bad])
        assert report.mode == "delete-transaction-logical"
        assert bad in report.deleted_set
        assert carrier in report.deleted_set
        assert bystander not in report.deleted_set
        txn = db2.begin()
        table = db2.table("acct")
        assert table.read(txn, slots[1])["balance"] == 100  # bad entry gone
        assert table.read(txn, slots[2])["balance"] == 100  # taint gone
        assert table.read(txn, slots[3])["balance"] == 333  # bystander kept
        db2.commit(txn)
        assert db2.audit().clean
        db2.close()

    def test_deleting_untainted_transaction_only(self, db_factory):
        db, slots, bad, carrier, bystander = setup_history(db_factory)
        db.crash()
        db2, report = delete_transactions(db.config, [bystander])
        assert report.deleted_set == {bystander}
        txn = db2.begin()
        assert db2.table("acct").read(txn, slots[3])["balance"] == 100
        # bad chain untouched (we only deleted the bystander)
        assert db2.table("acct").read(txn, slots[1])["balance"] == 9_999_999
        db2.commit(txn)
        db2.close()

    def test_works_under_checksummed_read_logging(self, db_factory):
        db, slots, bad, carrier, _b = setup_history(db_factory, "cw_read_logging")
        db.crash()
        db2, report = delete_transactions(db.config, [bad])
        assert {bad, carrier} <= report.deleted_set
        db2.close()

    def test_requires_read_logging(self, db_factory):
        db = db_factory(scheme="data_cw")
        insert_accounts(db, 2)
        db.crash()
        with pytest.raises(RecoveryError, match="read logging"):
            delete_transactions(db.config, [1])

    def test_empty_root_set_rejected(self, db_factory):
        db = db_factory(scheme="read_logging")
        db.crash()
        with pytest.raises(RecoveryError):
            delete_transactions(db.config, [])

    def test_amendment_keeps_archives_valid(self, db_factory):
        from repro.recovery.archive import create_archive, recover_from_archive

        db, slots, bad, carrier, bystander = setup_history(db_factory)
        # (the archive must predate the bad transaction for the test to
        # be interesting; setup_history checkpoints before it, so archive
        # from a second db copy isn't possible -- re-run with archive)
        db.close()
        db2 = None
        db3 = None
        dbf = db_factory(scheme="read_logging", region_size=32)
        slots = insert_accounts(dbf, 6)
        info = create_archive(dbf, dbf.path("arch"))
        table = dbf.table("acct")
        txn = dbf.begin()
        table.update(txn, slots[1], {"balance": 77777})
        dbf.commit(txn)
        bad = txn.txn_id
        txn = dbf.begin()
        v = table.read(txn, slots[1])["balance"]
        table.update(txn, slots[2], {"balance": v + 1})
        dbf.commit(txn)
        carrier = txn.txn_id
        dbf.crash()
        db2, report = delete_transactions(dbf.config, [bad])
        assert {bad, carrier} <= report.deleted_set
        db2.crash()
        db3, replay = recover_from_archive(db2.config, info.path)
        assert {bad, carrier} <= replay.deleted_set
        txn = db3.begin()
        assert db3.table("acct").read(txn, slots[1])["balance"] == 100
        assert db3.table("acct").read(txn, slots[2])["balance"] == 100
        db3.commit(txn)
        db3.close()


class TestTraceReaders:
    def test_readers_of_range_reported(self, db_factory):
        db, slots, bad, carrier, bystander = setup_history(db_factory)
        address = db.table("acct").record_address(slots[1])
        hits = trace_readers(db, [(address, 32)])
        assert carrier in hits
        assert bystander not in hits
        lsn, addr, length = hits[carrier][0]
        assert addr <= address < addr + length

    def test_from_lsn_filters(self, db_factory):
        db, slots, bad, carrier, _b = setup_history(db_factory)
        address = db.table("acct").record_address(slots[1])
        all_hits = trace_readers(db, [(address, 32)])
        late_hits = trace_readers(db, [(address, 32)], from_lsn=10**9)
        assert all_hits and not late_hits

    def test_empty_ranges(self, db_factory):
        db, *_ = setup_history(db_factory)
        assert trace_readers(db, []) == {}

    def test_builds_only_read_records(self, db_factory, request):
        from repro.wal.records import RecordType

        db, slots, _bad, carrier, _b = setup_history(db_factory)
        address = db.table("acct").record_address(slots[1])
        built = request.getfixturevalue("built_record_codes")  # spy from here on
        assert carrier in trace_readers(db, [(address, 32)])
        assert built and set(built) == {RecordType.READ}
