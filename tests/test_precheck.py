"""Read Prechecking: prevention of transaction-carried corruption."""

import pytest

from repro.errors import CorruptionDetected

from tests.conftest import insert_accounts


@pytest.fixture
def pdb(db_factory):
    return db_factory(scheme="precheck", region_size=64)


class TestPrevention:
    def test_read_of_corrupted_record_raises(self, pdb):
        slots = insert_accounts(pdb, 5)
        table = pdb.table("acct")
        pdb.memory.poke(table.record_address(slots[2]), b"\xbb" * 8)
        txn = pdb.begin()
        with pytest.raises(CorruptionDetected) as exc:
            table.read(txn, slots[2])
        assert exc.value.region_ids  # names the failing region

    def test_clean_records_still_readable(self, pdb):
        slots = insert_accounts(pdb, 5)
        table = pdb.table("acct")
        # Corrupt record 4 (its own 64-byte region), record 0 unaffected.
        pdb.memory.poke(table.record_address(slots[4]), b"\xbb" * 8)
        txn = pdb.begin()
        assert table.read(txn, slots[0])["balance"] == 100
        pdb.commit(txn)

    def test_update_of_corrupted_record_raises(self, pdb):
        """Updates read the old record first, so the precheck fires."""
        slots = insert_accounts(pdb, 6)
        table = pdb.table("acct")
        # Records are 32 bytes, regions 64: records 4-5 share a region
        # disjoint from records 0-1's region.
        pdb.memory.poke(table.record_address(slots[4]), b"\xbb" * 4)
        txn = pdb.begin()
        with pytest.raises(CorruptionDetected):
            table.update(txn, slots[4], {"balance": 1})
        # The failed operation was rolled back; transaction is still usable.
        table.update(txn, slots[0], {"balance": 1})
        pdb.commit(txn)

    def test_corruption_of_control_segment_detected_on_read(self, pdb):
        """Allocation bitmaps are protected data too."""
        table = pdb.table("acct")
        insert_accounts(pdb, 3)
        pdb.memory.poke(table.allocator.bitmap_base, b"\xff")
        txn = pdb.begin()
        with pytest.raises(CorruptionDetected):
            table.insert(txn, {"id": 99, "balance": 0})  # reads the bitmap
        pdb.abort(txn)

    def test_failure_counters(self, pdb):
        slots = insert_accounts(pdb, 2)
        table = pdb.table("acct")
        pdb.memory.poke(table.record_address(slots[0]), b"\xee")
        txn = pdb.begin()
        with pytest.raises(CorruptionDetected):
            table.read(txn, slots[0])
        assert pdb.pipeline.member("precheck").precheck_failures == 1
        assert pdb.pipeline.member("precheck").precheck_count > 0


class TestCheckCache:
    def test_region_checked_once_per_operation(self, pdb):
        slots = insert_accounts(pdb, 1)
        table = pdb.table("acct")
        txn = pdb.begin()
        before = pdb.pipeline.member("precheck").precheck_count
        pdb.manager.begin_operation(txn, "op")
        pdb.manager.read(txn, table.record_address(slots[0]), 8)
        mid = pdb.pipeline.member("precheck").precheck_count
        pdb.manager.read(txn, table.record_address(slots[0]), 8)
        assert pdb.pipeline.member("precheck").precheck_count == mid > before
        from repro.wal.records import LogicalUndo

        pdb.manager.commit_operation(txn, LogicalUndo("noop"))
        pdb.commit(txn)

    def test_cache_cleared_at_operation_boundary(self, pdb):
        slots = insert_accounts(pdb, 1)
        table = pdb.table("acct")
        address = table.record_address(slots[0])
        from repro.wal.records import LogicalUndo

        txn = pdb.begin()
        pdb.manager.begin_operation(txn, "op1")
        pdb.manager.read(txn, address, 8)
        pdb.manager.commit_operation(txn, LogicalUndo("noop"))
        count_after_op1 = pdb.pipeline.member("precheck").precheck_count
        pdb.manager.begin_operation(txn, "op2")
        pdb.manager.read(txn, address, 8)
        assert pdb.pipeline.member("precheck").precheck_count > count_after_op1
        pdb.manager.commit_operation(txn, LogicalUndo("noop"))
        pdb.commit(txn)


class TestRegionGranularity:
    def test_read_spanning_regions_checks_both(self, db_factory):
        """A 32-byte record in 16-byte regions spans two regions."""
        db = db_factory(scheme="precheck", region_size=16)
        slots = insert_accounts(db, 1)
        table = db.table("acct")
        address = table.record_address(slots[0])
        regions = db.pipeline.codeword_table.regions_spanning(
            address, table.schema.record_size
        )
        assert len(regions) == 2
        txn = db.begin()
        before = db.pipeline.member("precheck").precheck_count
        db.manager.begin_operation(txn, "op")
        db.manager.read(txn, address, table.schema.record_size)
        assert db.pipeline.member("precheck").precheck_count - before == len(regions)
        from repro.wal.records import LogicalUndo

        db.manager.commit_operation(txn, LogicalUndo("noop"))
        db.commit(txn)

    def test_corruption_in_sibling_region_not_reported_for_other_read(
        self, db_factory
    ):
        """With 32-byte regions each record is exactly one region."""
        db = db_factory(scheme="precheck", region_size=32)
        slots = insert_accounts(db, 10)
        table = db.table("acct")
        db.memory.poke(table.record_address(slots[5]) + 8, b"\x11")
        txn = db.begin()
        assert table.read(txn, slots[9])["balance"] == 100
        with pytest.raises(CorruptionDetected):
            table.read(txn, slots[5])
        db.abort(txn)
