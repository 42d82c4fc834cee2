"""Read Logging: the limited audit trail of Section 4.2."""

from repro.core.codeword import fold_words
from repro.wal.records import ReadRecord, UpdateRecord

from tests.conftest import insert_accounts


def stable_reads(db):
    return [r for _l, r in db.system_log.scan() if isinstance(r, ReadRecord)]


def stable_updates(db):
    return [r for _l, r in db.system_log.scan() if isinstance(r, UpdateRecord)]


class TestPlainReadLogging:
    def test_reads_produce_log_records(self, db_factory):
        db = db_factory(scheme="read_logging")
        slots = insert_accounts(db, 3)
        table = db.table("acct")
        txn = db.begin()
        table.read(txn, slots[1])
        db.commit(txn)
        reads = [r for r in stable_reads(db) if r.txn_id == txn.txn_id]
        record_read = [
            r for r in reads if r.address == table.record_address(slots[1])
        ]
        assert record_read, "record read must be logged"
        assert record_read[0].length == table.schema.record_size

    def test_identity_not_value_is_logged(self, db_factory):
        """The read record stores address+length, never the bytes read."""
        db = db_factory(scheme="read_logging")
        slots = insert_accounts(db, 1)
        table = db.table("acct")
        txn = db.begin()
        table.read(txn, slots[0])
        db.commit(txn)
        for r in stable_reads(db):
            assert not hasattr(r, "image")
            assert r.checksum is None  # plain variant logs no checksum

    def test_index_and_allocator_reads_are_traced(self, db_factory):
        """Reads through internal structures also land in the audit trail."""
        db = db_factory(scheme="read_logging")
        insert_accounts(db, 1)
        table = db.table("acct")
        txn = db.begin()
        table.lookup(txn, 0)
        db.commit(txn)
        reads = [r for r in stable_reads(db) if r.txn_id == txn.txn_id]
        index_base = table.index.base
        index_end = index_base + table.index.size
        assert any(index_base <= r.address < index_end for r in reads)

    def test_read_count_statistic(self, db_factory):
        db = db_factory(scheme="read_logging")
        slots = insert_accounts(db, 2)
        before = db.pipeline.member("read_logging").read_records_logged
        txn = db.begin()
        db.table("acct").read(txn, slots[0])
        db.commit(txn)
        assert db.pipeline.member("read_logging").read_records_logged > before


class TestChecksummedReadLogging:
    def test_read_records_carry_checksums(self, db_factory):
        db = db_factory(scheme="cw_read_logging")
        slots = insert_accounts(db, 1)
        table = db.table("acct")
        address = table.record_address(slots[0])
        expected = fold_words(db.memory.read(address, table.schema.record_size))
        txn = db.begin()
        table.read(txn, slots[0])
        db.commit(txn)
        matching = [
            r
            for r in stable_reads(db)
            if r.txn_id == txn.txn_id and r.address == address
        ]
        assert matching and matching[0].checksum == expected

    def test_update_records_carry_old_checksum(self, db_factory):
        """Writes are treated as read-then-write (Section 4.3 extension)."""
        db = db_factory(scheme="cw_read_logging")
        slots = insert_accounts(db, 1)
        table = db.table("acct")
        offset, _ = table.schema.field_range("balance")
        address = table.record_address(slots[0]) + offset
        old_bytes = db.memory.read(address, 8)
        txn = db.begin()
        table.update(txn, slots[0], {"balance": 777})
        db.commit(txn)
        updates = [
            r
            for r in stable_updates(db)
            if r.txn_id == txn.txn_id and r.address == address
        ]
        assert updates and updates[0].old_checksum == fold_words(old_bytes)

    def test_plain_variant_updates_have_no_checksum(self, db_factory):
        db = db_factory(scheme="read_logging")
        slots = insert_accounts(db, 1)
        txn = db.begin()
        db.table("acct").update(txn, slots[0], {"balance": 777})
        db.commit(txn)
        assert all(
            r.old_checksum is None
            for r in stable_updates(db)
            if r.txn_id == txn.txn_id
        )

    def test_checksum_cost_charged(self, db_factory):
        db = db_factory(scheme="cw_read_logging")
        slots = insert_accounts(db, 1)
        db.meter.reset()
        txn = db.begin()
        db.table("acct").read(txn, slots[0])
        db.commit(txn)
        assert db.meter.counts["checksum_word"] > 0
