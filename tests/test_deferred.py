"""Deferred codeword maintenance (extension scheme)."""

from tests.conftest import insert_accounts


def make(db_factory):
    return db_factory(scheme="deferred", region_size=4096)


class TestDeferral:
    def test_updates_accumulate_pending_deltas(self, db_factory):
        db = make(db_factory)
        insert_accounts(db, 5)
        assert db.pipeline.member("deferred").pending_region_count > 0

    def test_stored_codewords_stale_until_flush(self, db_factory):
        db = make(db_factory)
        insert_accounts(db, 5)
        table = db.pipeline.codeword_table
        assert table.scan_mismatches() != []  # stale before flush
        db.pipeline.member("deferred").flush_pending()
        assert table.scan_mismatches() == []

    def test_audit_flushes_then_checks(self, db_factory):
        db = make(db_factory)
        insert_accounts(db, 5)
        assert db.audit().clean
        assert db.pipeline.member("deferred").pending_region_count == 0

    def test_flush_is_idempotent(self, db_factory):
        db = make(db_factory)
        insert_accounts(db, 3)
        db.pipeline.member("deferred").flush_pending()
        assert db.pipeline.member("deferred").flush_pending() == 0
        assert db.pipeline.codeword_table.scan_mismatches() == []


class TestDetection:
    def test_wild_write_detected_despite_deferral(self, db_factory):
        db = make(db_factory)
        insert_accounts(db, 5)
        db.memory.poke(db.table("acct").record_address(2), b"\x99\x98")
        report = db.audit()
        assert not report.clean

    def test_abort_paths_keep_deferred_deltas_consistent(self, db_factory):
        db = make(db_factory)
        table = db.table("acct")
        slots = insert_accounts(db, 3)
        txn = db.begin()
        table.update(txn, slots[0], {"balance": 1})
        table.delete(txn, slots[1])
        db.abort(txn)
        assert db.audit().clean


class TestCostProfile:
    def test_deferred_charges_no_per_update_fixed_cost(self, db_factory):
        db = make(db_factory)
        slots = insert_accounts(db, 1)
        db.meter.reset()
        txn = db.begin()
        db.table("acct").update(txn, slots[0], {"balance": 5})
        db.commit(txn)
        assert db.meter.counts.get("cw_maint_fixed", 0) == 0
        assert db.meter.counts["deferred_update"] > 0

    def test_deferred_cheaper_per_update_than_inline(self, db_factory):
        costs_of = {}
        for scheme in ("data_cw", "deferred"):
            db = db_factory(scheme=scheme, region_size=4096)
            slots = insert_accounts(db, 1)
            db.meter.reset()
            start = db.clock.now_ns
            txn = db.begin()
            db.table("acct").update(txn, slots[0], {"balance": 5})
            db.commit(txn)
            costs_of[scheme] = db.clock.now_ns - start
        assert costs_of["deferred"] < costs_of["data_cw"]
