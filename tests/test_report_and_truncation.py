"""Status reporting and log truncation."""

import pytest

from repro import Database, DBConfig

from tests.conftest import ACCT_SCHEMA, insert_accounts


class TestStatusReport:
    def test_report_structure(self, db_factory):
        db = db_factory(scheme="precheck", region_size=64)
        insert_accounts(db, 5)
        report = db.report()
        assert report["scheme"]["name"] == "precheck"
        assert report["scheme"]["region_size"] == 64
        assert report["scheme"]["space_overhead_pct"] == pytest.approx(6.25)
        assert report["transactions"]["committed"] >= 1
        assert report["tables"]["acct"]["capacity"] == 200
        assert report["events"]  # meter breakdown present
        assert report["memory"]["size_bytes"] > 0

    def test_report_tracks_activity(self, db):
        before = db.report()
        insert_accounts(db, 3)
        db.checkpoint()
        db.audit()
        after = db.report()
        assert after["transactions"]["committed"] > before["transactions"]["committed"]
        assert after["checkpoints"]["taken"] > before["checkpoints"]["taken"]
        assert after["audits"]["runs"] > before["audits"]["runs"]
        assert after["virtual_time_s"] > before["virtual_time_s"]

    def test_tail_records_counts_unflushed_commits(self, tmp_path):
        db = Database(DBConfig(dir=str(tmp_path / "db"), group_commit_size=8))
        db.create_table("acct", ACCT_SCHEMA, 16, key_field="id")
        db.start()
        db.system_log.flush()
        for key in range(3):
            txn = db.begin()
            db.table("acct").insert(txn, {"id": key, "balance": 1, "name": "a"})
            db.commit(txn)
        tail = len(db.system_log.tail)
        assert tail > 3  # the commits wait in the tail for their group
        assert db.report()["log"]["tail_records"] == tail
        db.close()

    def test_status_text(self, db_factory):
        db = db_factory(scheme="data_cw")
        insert_accounts(db, 2)
        text = db.status()
        assert "scheme: data_cw" in text
        assert "transactions:" in text
        assert "top cost events" in text

    def test_index_types_reported(self, tmp_path):
        from repro import DBConfig
        from tests.conftest import ACCT_SCHEMA

        db = Database(DBConfig(dir=str(tmp_path / "r")))
        db.create_table("h", ACCT_SCHEMA, 10, key_field="id")
        db.create_table("b", ACCT_SCHEMA, 10, key_field="id", index_type="btree")
        db.create_table("n", ACCT_SCHEMA, 10, indexed=False)
        db.start()
        tables = db.report()["tables"]
        assert tables["h"]["index"] == "HashIndex"
        assert tables["b"]["index"] == "BTreeIndex"
        assert tables["n"]["index"] is None
        db.close()


class TestLogTruncation:
    def test_truncation_reclaims_old_records(self, db):
        slots = insert_accounts(db, 5)
        db.checkpoint()
        before = db.system_log.stable_record_count
        removed = db.truncate_log()
        assert removed > 0
        assert db.system_log.stable_record_count == before - removed

    def test_recovery_works_after_truncation(self, db):
        slots = insert_accounts(db, 3)
        db.checkpoint()
        db.truncate_log()
        txn = db.begin()
        db.table("acct").update(txn, slots[0], {"balance": 404})
        db.commit(txn)
        db.crash()
        db2, report = Database.recover(db.config)
        txn = db2.begin()
        assert db2.table("acct").read(txn, slots[0])["balance"] == 404
        db2.commit(txn)
        db2.close()

    def test_keep_from_lsn_preserves_archive_window(self, db):
        from repro.recovery.archive import create_archive, recover_from_archive

        slots = insert_accounts(db, 3)
        info = create_archive(db, db.path("arch"))
        txn = db.begin()
        db.table("acct").update(txn, slots[1], {"balance": 55})
        db.commit(txn)
        db.checkpoint()
        # Truncate but keep the log the archive needs.
        db.truncate_log(keep_from_lsn=info.ck_end)
        db.crash()
        db2, _ = recover_from_archive(db.config, info.path)
        txn = db2.begin()
        assert db2.table("acct").read(txn, slots[1])["balance"] == 55
        db2.commit(txn)
        db2.close()

    def test_truncating_nothing_returns_zero(self, db):
        insert_accounts(db, 1)
        db.checkpoint()
        db.truncate_log()
        assert db.truncate_log() == 0
