"""Cache-recovery model: in-place repair of directly corrupted regions."""

import pytest

from repro import FaultInjector
from repro.errors import RecoveryError
from repro.recovery.cache_recovery import repair_regions

from tests.conftest import insert_accounts


@pytest.fixture
def cdb(db_factory):
    db = db_factory(scheme="data_cw", region_size=4096)
    return db


class TestRepair:
    def test_repair_restores_checkpointed_data(self, cdb):
        slots = insert_accounts(cdb, 5)
        cdb.checkpoint()
        table = cdb.table("acct")
        injector = FaultInjector(cdb, seed=1)
        injector.wild_write(table.record_address(slots[2]) + 8, 8)
        report = cdb.audit()
        assert not report.clean
        repaired = repair_regions(cdb, list(report.corrupt_regions))
        assert repaired == len(report.corrupt_regions)
        assert cdb.audit().clean
        txn = cdb.begin()
        assert table.read(txn, slots[2])["balance"] == 100
        cdb.commit(txn)

    def test_repair_replays_post_checkpoint_commits(self, cdb):
        slots = insert_accounts(cdb, 3)
        cdb.checkpoint()
        table = cdb.table("acct")
        txn = cdb.begin()
        table.update(txn, slots[0], {"balance": 424})
        cdb.commit(txn)
        injector = FaultInjector(cdb, seed=2)
        injector.wild_write(table.record_address(slots[0]) + 16, 4)
        report = cdb.audit()
        repair_regions(cdb, list(report.corrupt_regions))
        txn = cdb.begin()
        assert table.read(txn, slots[0])["balance"] == 424
        cdb.commit(txn)

    def test_repair_builds_only_update_records(self, cdb, request):
        """A repair replays the update frames it needs from the frame
        bytes: no record object at all is built (it runs once per
        repaired region)."""
        slots = insert_accounts(cdb, 3)
        cdb.checkpoint()
        table = cdb.table("acct")
        txn = cdb.begin()
        table.update(txn, slots[0], {"balance": 424})
        cdb.commit(txn)
        FaultInjector(cdb, seed=2).wild_write(table.record_address(slots[0]) + 16, 4)
        report = cdb.audit()
        built = request.getfixturevalue("built_record_codes")  # spy from here on
        repair_regions(cdb, list(report.corrupt_regions))
        assert built == []
        txn = cdb.begin()
        assert table.read(txn, slots[0])["balance"] == 424  # the update replayed
        cdb.commit(txn)

    def test_repair_replays_unflushed_tail(self, cdb):
        slots = insert_accounts(cdb, 3)
        cdb.checkpoint()
        table = cdb.table("acct")
        txn = cdb.begin()
        table.update(txn, slots[1], {"balance": 77})
        # op committed -> record is in the (unflushed) system log tail
        injector = FaultInjector(cdb, seed=3)
        injector.wild_write(table.record_address(slots[1]) + 16, 4)
        report = cdb.audit()
        repair_regions(cdb, list(report.corrupt_regions))
        assert table.read(txn, slots[1])["balance"] == 77
        cdb.commit(txn)

    def test_repair_replays_open_operation_local_records(self, cdb):
        """Updates of an open operation live only in the local redo log."""
        slots = insert_accounts(cdb, 3)
        cdb.checkpoint()
        table = cdb.table("acct")
        address = table.record_address(slots[1])
        txn = cdb.begin()
        cdb.manager.begin_operation(txn, "w")
        offset, _ = table.schema.field_range("balance")
        cdb.manager.update(txn, address + offset, (999).to_bytes(8, "little"))
        injector = FaultInjector(cdb, seed=4)
        injector.wild_write(address + 16, 4)
        report = cdb.audit()
        repair_regions(cdb, list(report.corrupt_regions))
        from repro.wal.records import LogicalUndo

        cdb.manager.commit_operation(txn, LogicalUndo("noop"))
        cdb.commit(txn)
        txn = cdb.begin()
        assert table.read(txn, slots[1])["balance"] == 999
        cdb.commit(txn)

    def test_precheck_failure_then_online_repair(self, db_factory):
        """The Read Prechecking + cache recovery flow: no crash needed."""
        from repro.errors import CorruptionDetected

        db = db_factory(scheme="precheck", region_size=64)
        slots = insert_accounts(db, 5)
        db.checkpoint()
        table = db.table("acct")
        db.memory.poke(table.record_address(slots[3]), b"\x66" * 8)
        txn = db.begin()
        with pytest.raises(CorruptionDetected) as exc:
            table.read(txn, slots[3])
        repair_regions(db, exc.value.region_ids)
        assert table.read(txn, slots[3])["balance"] == 100
        db.commit(txn)

    def test_repair_needs_codewords(self, db):
        insert_accounts(db, 1)
        db.checkpoint()
        with pytest.raises(RecoveryError):
            repair_regions(db, [0])
