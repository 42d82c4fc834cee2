"""Records larger than a page: a Dali design benefit (Section 2).

"Benefits of this approach include ... the ability to store objects
larger than a page contiguously, and thus access them directly without
reassembly and copying."
"""

import pytest

from repro import Database, DBConfig, FaultInjector, Field, FieldType, Schema

BLOB = Schema(
    [
        Field("oid", FieldType.INT64),
        Field("payload", FieldType.CHAR, 20_000),  # ~2.5 pages at 8 KB
    ]
)


@pytest.fixture
def blob_db(tmp_path):
    def make(scheme="data_cw", **params):
        db = Database(
            DBConfig(dir=str(tmp_path / scheme), scheme=scheme, scheme_params=params)
        )
        db.create_table("blob", BLOB, capacity=8, key_field="oid")
        db.start()
        return db

    return make


class TestMultiPageRecords:
    def test_insert_and_read_contiguously(self, blob_db):
        db = blob_db()
        payload = bytes(range(256)) * 78  # 19,968 bytes
        txn = db.begin()
        slot = db.table("blob").insert(txn, {"oid": 1, "payload": payload})
        row = db.table("blob").read(txn, slot)
        assert row["payload"].rstrip(b"\x00") == payload.rstrip(b"\x00")
        db.commit(txn)
        db.close()

    def test_record_really_spans_pages(self, blob_db):
        db = blob_db()
        table = db.table("blob")
        from repro.mem.pages import page_span

        assert page_span(table.record_address(0), BLOB.record_size, db.config.page_size) >= 3
        db.close()

    def test_codewords_cover_multi_page_update(self, blob_db):
        db = blob_db("data_cw", region_size=65536)
        txn = db.begin()
        db.table("blob").insert(txn, {"oid": 1, "payload": b"x" * 20_000})
        db.table("blob").update(txn, 0, {"payload": b"y" * 20_000})
        db.commit(txn)
        assert db.audit().clean

    def test_wild_write_deep_inside_blob_detected(self, blob_db):
        db = blob_db("data_cw", region_size=4096)
        txn = db.begin()
        db.table("blob").insert(txn, {"oid": 1, "payload": b"z" * 20_000})
        db.commit(txn)
        address = db.table("blob").record_address(0) + 15_000
        FaultInjector(db, seed=1).wild_write(address, 4)
        report = db.audit()
        assert not report.clean

    def test_hardware_unprotects_all_spanned_pages(self, blob_db):
        db = blob_db("hardware")
        txn = db.begin()
        db.table("blob").insert(txn, {"oid": 1, "payload": b"p" * 20_000})
        db.commit(txn)
        assert db.pipeline.member("hardware").mmu.protected_page_count == db.memory.page_count
        txn = db.begin()
        assert db.table("blob").read(txn, 0)["oid"] == 1
        db.commit(txn)
        db.close()

    def test_recovery_of_multi_page_records(self, blob_db):
        db = blob_db()
        txn = db.begin()
        db.table("blob").insert(txn, {"oid": 1, "payload": b"q" * 20_000})
        db.commit(txn)
        db.crash()
        db2, _ = Database.recover(db.config)
        txn = db2.begin()
        row = db2.table("blob").read(txn, 0)
        assert row["payload"] == b"q" * 20_000
        db2.commit(txn)
        db2.close()
