"""Edge cases and error paths across the stack."""

import pytest

from repro import Database
from repro.errors import ConfigError, TransactionError
from repro.wal.records import LogicalUndo

from tests.conftest import insert_accounts


class TestTransactionStateMachine:
    def test_operations_on_committed_txn_rejected(self, db):
        slots = insert_accounts(db, 1)
        txn = db.begin()
        db.commit(txn)
        with pytest.raises(TransactionError):
            db.table("acct").read(txn, slots[0])
        with pytest.raises(TransactionError):
            db.table("acct").update(txn, slots[0], {"balance": 1})

    def test_abort_of_committed_txn_rejected(self, db):
        txn = db.begin()
        db.commit(txn)
        with pytest.raises(TransactionError):
            db.abort(txn)

    def test_commit_operation_without_open_op_rejected(self, db):
        txn = db.begin()
        with pytest.raises(TransactionError):
            db.manager.commit_operation(txn, LogicalUndo("noop"))
        db.abort(txn)

    def test_commit_operation_with_open_window_rejected(self, db):
        slots = insert_accounts(db, 1)
        address = db.table("acct").record_address(slots[0])
        txn = db.begin()
        db.manager.begin_operation(txn, "w")
        db.manager.begin_update(txn, address, 4)
        with pytest.raises(TransactionError):
            db.manager.commit_operation(txn, LogicalUndo("noop"))
        db.manager.end_update(txn)
        db.manager.commit_operation(txn, LogicalUndo("noop"))
        db.commit(txn)

    def test_unknown_logical_undo_rejected(self, db):
        txn = db.begin()
        db.manager.begin_operation(txn, "x")
        db.manager.commit_operation(txn, LogicalUndo("undo_frobnicate", ("t", 1)))
        with pytest.raises(TransactionError):
            db.abort(txn)  # executing the unknown undo fails loudly

    def test_missing_undo_executor_rejected(self, db):
        db.manager.undo_executor = None
        txn = db.begin()
        db.manager.begin_operation(txn, "x")
        db.manager.commit_operation(txn, LogicalUndo("undo_insert", ("acct", 0)))
        with pytest.raises(TransactionError, match="no undo executor"):
            db.abort(txn)


class TestGracefulShutdown:
    def test_close_then_recover(self, db):
        slots = insert_accounts(db, 2)
        db.close()
        db2, report = Database.recover(db.config)
        assert report.mode == "normal"
        txn = db2.begin()
        assert db2.table("acct").read(txn, slots[0])["balance"] == 100
        db2.commit(txn)
        db2.close()

    def test_double_close_is_safe(self, db):
        db.close()
        db.close()


class TestWriteFields:
    def test_write_fields_roundtrip_and_undo(self, db):
        slots = insert_accounts(db, 1)
        table = db.table("acct")
        offset, size = table.schema.field_range("balance")
        txn = db.begin()
        table.write_fields(txn, slots[0], [(offset, (777).to_bytes(8, "little"))])
        assert table.read(txn, slots[0])["balance"] == 777
        db.abort(txn)
        txn = db.begin()
        assert table.read(txn, slots[0])["balance"] == 100
        db.commit(txn)


class TestSchemaValidationInTables:
    def test_key_field_must_be_integer(self, tmp_path):
        from repro import DBConfig, Field, FieldType, Schema

        schema = Schema([Field("name", FieldType.CHAR, 8)])
        db = Database(DBConfig(dir=str(tmp_path / "d")))
        db.create_table("t", schema, 10, key_field="name")
        with pytest.raises(ConfigError, match="integer"):
            db.start()


class TestAuditEveryScheme:
    @pytest.mark.parametrize(
        "scheme", ["baseline", "hardware", "data_cw", "precheck", "deferred"]
    )
    def test_audit_runs_under_every_scheme(self, db_factory, scheme):
        db = db_factory(scheme=scheme)
        insert_accounts(db, 2)
        report = db.audit()
        assert report.clean
        assert report.audit_id >= 1


class TestStatsAndRepr:
    def test_reprs_do_not_crash(self, db):
        insert_accounts(db, 1)
        txn = db.begin()
        repr(txn)
        repr(db.pipeline)
        repr(db.memory.dirty_pages)
        repr(db.clock)
        repr(db.table("acct").schema)
        db.commit(txn)
