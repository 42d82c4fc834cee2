"""Cross-cutting end-to-end scenarios."""

from repro import Database, DBConfig, FaultInjector

from tests.conftest import insert_accounts


class TestSchemeMigration:
    """Protection is a runtime choice: the on-disk format is scheme-free."""

    def test_recover_under_a_different_scheme(self, db_factory):
        db = db_factory(scheme="baseline")
        slots = insert_accounts(db, 5)
        db.crash()
        upgraded = DBConfig(
            dir=db.config.dir,
            scheme="data_cw",
            scheme_params={"region_size": 4096},
        )
        db2, report = Database.recover(upgraded)
        assert report.mode == "normal"
        assert db2.audit().clean  # codewords rebuilt over recovered image
        txn = db2.begin()
        assert db2.table("acct").read(txn, slots[0])["balance"] == 100
        db2.commit(txn)
        # ...and the new protection actually works.
        FaultInjector(db2, seed=1).wild_write(
            db2.table("acct").record_address(slots[0]), 8
        )
        assert not db2.audit().clean
        db2.close()

    def test_downgrade_to_baseline(self, db_factory):
        db = db_factory(scheme="precheck", region_size=64)
        slots = insert_accounts(db, 3)
        db.crash()
        db2, _ = Database.recover(DBConfig(dir=db.config.dir, scheme="baseline"))
        txn = db2.begin()
        assert db2.table("acct").read(txn, slots[1])["balance"] == 100
        db2.commit(txn)
        db2.close()


class TestRepeatedCrashCycles:
    def test_five_crash_recover_cycles_accumulate_work(self, db_factory):
        db = db_factory(scheme="data_cw")
        slots = insert_accounts(db, 3)
        config = db.config
        expected = 100
        for round_no in range(5):
            txn = db.begin()
            db.table("acct").update(
                txn, slots[0], {"balance": lambda b: b + 1}
            )
            db.commit(txn)
            expected += 1
            db.crash()
            db, _ = Database.recover(config)
            txn = db.begin()
            assert db.table("acct").read(txn, slots[0])["balance"] == expected
            db.commit(txn)
            assert db.audit().clean
        db.close()

    def test_corruption_recovery_then_normal_crash(self, db_factory):
        db = db_factory(scheme="cw_read_logging")
        slots = insert_accounts(db, 5)
        db.checkpoint()
        FaultInjector(db, seed=1).wild_write(
            db.table("acct").record_address(slots[1]) + 8, 8
        )
        report = db.audit()
        db.crash_with_corruption(report)
        db2, rec1 = Database.recover(db.config)
        assert rec1.mode == "delete-transaction-view"
        txn = db2.begin()
        db2.table("acct").update(txn, slots[0], {"balance": 7})
        db2.commit(txn)
        db2.crash()
        db3, rec2 = Database.recover(db2.config)
        # corruption recovery's final checkpoint means the same corruption
        # is never rediscovered
        assert rec2.deleted_set == set()
        txn = db3.begin()
        assert db3.table("acct").read(txn, slots[0])["balance"] == 7
        db3.commit(txn)
        db3.close()

    def test_recovery_is_idempotent(self, db_factory):
        """Crash immediately after recovery: same state again."""
        db = db_factory(scheme="data_cw")
        slots = insert_accounts(db, 4)
        txn = db.begin()
        db.table("acct").update(txn, slots[2], {"balance": 222})
        db.commit(txn)
        db.crash()
        db2, _ = Database.recover(db.config)
        state_after_first = db2.memory.snapshot_segments()
        db2.crash()
        db3, _ = Database.recover(db2.config)
        assert db3.memory.snapshot_segments() == state_after_first
        db3.close()


class TestDeferredSchemeCrash:
    def test_pending_deltas_survive_crash_via_rebuild(self, db_factory):
        """Deferred maintenance loses its in-memory delta buffer at crash;
        startup() rebuilds codewords from the recovered image, so audits
        stay clean and detection still works afterwards."""
        db = db_factory(scheme="deferred", region_size=4096)
        slots = insert_accounts(db, 5)
        assert db.pipeline.member("deferred").pending_region_count > 0  # deltas in memory only
        db.crash()
        db2, _ = Database.recover(db.config)
        assert db2.audit().clean
        FaultInjector(db2, seed=1).wild_write(
            db2.table("acct").record_address(slots[0]), 8
        )
        assert not db2.audit().clean
        db2.close()


class TestCorruptionInControlStructures:
    def test_bitmap_corruption_traced_through_inserts(self, db_factory):
        """A wild write on the allocation bitmap is carried by an insert
        that reads it; delete-transaction recovery removes the insert."""
        db = db_factory(scheme="cw_read_logging")
        insert_accounts(db, 5)
        db.checkpoint()
        table = db.table("acct")
        # Corrupt the bitmap byte covering slots 0-7: the next insert's
        # free-slot scan reads it (current value 0b00011111 for 5 rows).
        db.memory.poke(table.allocator.bitmap_base, b"\x55")
        txn = db.begin()
        table.insert(txn, {"id": 99, "balance": 1})
        db.commit(txn)
        inserter = txn.txn_id
        report = db.audit()
        assert not report.clean
        db.crash_with_corruption(report)
        db2, rec = Database.recover(db.config)
        assert inserter in rec.deleted_set
        txn = db2.begin()
        assert db2.table("acct").lookup(txn, 99) is None
        assert db2.table("acct").row_count(txn) == 5
        db2.commit(txn)
        assert db2.audit().clean
        db2.close()


class TestMultiTableCorruption:
    def test_corruption_confined_to_one_table(self, db_factory):
        from repro.storage.schema import Field, FieldType, Schema

        other = Schema([Field("k", FieldType.INT64), Field("v", FieldType.INT64)])
        db = db_factory(
            scheme="cw_read_logging",
            tables=[
                ("acct", __import__("tests.conftest", fromlist=["ACCT_SCHEMA"]).ACCT_SCHEMA, 100, "id"),
                ("other", other, 100, "k"),
            ],
        )
        acct = db.table("acct")
        other_t = db.table("other")
        txn = db.begin()
        for i in range(5):
            acct.insert(txn, {"id": i, "balance": 100})
            other_t.insert(txn, {"k": i, "v": i * 10})
        db.commit(txn)
        db.checkpoint()
        FaultInjector(db, seed=1).wild_write(acct.record_address(1) + 8, 8)
        txn = db.begin()
        other_t.update(txn, 2, {"v": 999})  # never touches acct
        db.commit(txn)
        clean_txn = txn.txn_id
        report = db.audit()
        db.crash_with_corruption(report)
        db2, rec = Database.recover(db.config)
        assert clean_txn not in rec.deleted_set
        txn = db2.begin()
        assert db2.table("other").read(txn, 2)["v"] == 999
        db2.commit(txn)
        db2.close()
