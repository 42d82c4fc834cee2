"""Normal restart recovery: crash at every interesting moment."""

import pytest

from tests.conftest import insert_accounts


@pytest.fixture
def reopen(recover):
    """Recover a crashed database's directory (closed at teardown)."""
    return lambda db: recover(db.config)


def balances(db, slots):
    table = db.table("acct")
    txn = db.begin()
    result = {i: table.read(txn, slot)["balance"] for i, slot in slots.items()}
    db.commit(txn)
    return result


class TestCommittedWorkSurvives:
    def test_committed_after_checkpoint(self, db, reopen):
        slots = insert_accounts(db, 3)
        db.checkpoint()
        txn = db.begin()
        db.table("acct").update(txn, slots[0], {"balance": 777})
        db.commit(txn)
        db.crash()
        db2, report = reopen(db)
        assert report.mode == "normal"
        assert balances(db2, slots)[0] == 777
        assert report.redo_applied > 0

    def test_committed_without_any_explicit_checkpoint(self, db, reopen):
        """start() takes checkpoint 0; commits after it must replay."""
        slots = insert_accounts(db, 2)
        db.crash()
        db2, _report = reopen(db)
        assert balances(db2, slots) == {0: 100, 1: 100}

    def test_inserts_and_deletes_survive(self, db, reopen):
        slots = insert_accounts(db, 4)
        txn = db.begin()
        db.table("acct").delete(txn, slots[3])
        db.table("acct").insert(txn, {"id": 40, "balance": 40})
        db.commit(txn)
        db.crash()
        db2, _ = reopen(db)
        txn = db2.begin()
        table = db2.table("acct")
        assert table.lookup(txn, 3) is None
        assert table.read(txn, table.lookup(txn, 40))["balance"] == 40
        db2.commit(txn)

    def test_multiple_checkpoints_then_crash(self, db, reopen):
        slots = insert_accounts(db, 2)
        for value in (10, 20, 30):
            txn = db.begin()
            db.table("acct").update(txn, slots[0], {"balance": value})
            db.commit(txn)
            db.checkpoint()
        txn = db.begin()
        db.table("acct").update(txn, slots[0], {"balance": 40})
        db.commit(txn)
        db.crash()
        db2, _ = reopen(db)
        assert balances(db2, slots)[0] == 40

    def test_recovered_db_is_fully_usable(self, db, reopen):
        slots = insert_accounts(db, 2)
        db.crash()
        db2, _ = reopen(db)
        txn = db2.begin()
        table = db2.table("acct")
        table.update(txn, slots[0], {"balance": 1})
        table.insert(txn, {"id": 90, "balance": 9})
        db2.commit(txn)
        db2.checkpoint()
        db2.crash()
        db3, _ = reopen(db2)
        assert balances(db3, slots)[0] == 1


class TestInFlightWorkRolledBack:
    def test_uncommitted_txn_rolled_back(self, db, reopen):
        slots = insert_accounts(db, 2)
        txn = db.begin()
        db.table("acct").update(txn, slots[0], {"balance": 999})
        # no commit -- but the operation committed, so its records reached
        # the system log only if a flush happened; force one via checkpoint
        db.checkpoint()
        db.crash()
        db2, report = reopen(db)
        assert balances(db2, slots)[0] == 100
        assert txn.txn_id in report.rolled_back

    def test_txn_open_across_checkpoint_rolled_back_from_att(self, db, reopen):
        """The checkpointed ATT's undo log drives rollback."""
        slots = insert_accounts(db, 2)
        txn = db.begin()
        db.table("acct").update(txn, slots[0], {"balance": 555})
        db.checkpoint()  # txn open here; its undo log is in the checkpoint
        txn2 = db.begin()
        db.table("acct").update(txn2, slots[1], {"balance": 666})
        db.commit(txn2)
        db.crash()
        db2, report = reopen(db)
        result = balances(db2, slots)
        assert result[0] == 100   # rolled back
        assert result[1] == 666   # committed work preserved
        assert txn.txn_id in report.rolled_back

    def test_unflushed_commit_is_lost(self, db, reopen):
        """Commit flushes; but operations without commit may be unflushed."""
        slots = insert_accounts(db, 1)
        txn = db.begin()
        db.table("acct").update(txn, slots[0], {"balance": 123})
        # operation committed into the tail, never flushed, txn never
        # committed; crash loses the tail entirely.
        db.crash()
        db2, report = reopen(db)
        assert balances(db2, slots)[0] == 100

    def test_open_update_window_at_checkpoint(self, db, reopen):
        """codeword_applied=False path through checkpointed undo."""
        slots = insert_accounts(db, 1)
        address = db.table("acct").record_address(slots[0])
        txn = db.begin()
        db.manager.begin_operation(txn, "w")
        db.manager.begin_update(txn, address, 8)
        db.manager.write(txn, address, b"\xaa" * 8)
        db.checkpoint()
        db.crash()
        db2, _ = reopen(db)
        txn = db2.begin()
        assert db2.table("acct").read(txn, slots[0])["id"] == 0
        db2.commit(txn)


class TestCodewordsAfterRecovery:
    @pytest.mark.parametrize("scheme", ["data_cw", "precheck", "cw_read_logging"])
    def test_audit_clean_after_recovery(self, db_factory, scheme, recover):
        db = db_factory(scheme=scheme)
        slots = insert_accounts(db, 5)
        txn = db.begin()
        db.table("acct").update(txn, slots[0], {"balance": 1})
        db.commit(txn)
        db.crash()
        db2, _ = recover(db.config)
        assert db2.audit().clean

    def test_hardware_reprotects_after_recovery(self, db_factory, recover):
        db = db_factory(scheme="hardware")
        insert_accounts(db, 2)
        db.crash()
        db2, _ = recover(db.config)
        assert db2.pipeline.member("hardware").mmu.enforcing
        assert db2.pipeline.member("hardware").mmu.protected_page_count == db2.memory.page_count


class TestLogContinuation:
    def test_lsns_continue_after_recovery(self, db, reopen):
        insert_accounts(db, 1)
        db.crash()
        db2, _ = reopen(db)
        lsns = [lsn for lsn, _ in db2.system_log.scan()]
        assert lsns == sorted(set(lsns))
        insert_accounts(db2, 1)  # triggers appends + flush
        lsns2 = [lsn for lsn, _ in db2.system_log.scan()]
        assert lsns2 == sorted(set(lsns2))
        assert len(lsns2) > len(lsns)

    def test_txn_ids_do_not_collide_after_recovery(self, db, reopen):
        txn = db.begin()
        db.commit(txn)
        db.crash()
        db2, _ = reopen(db)
        txn2 = db2.begin()
        assert txn2.txn_id > txn.txn_id
        db2.commit(txn2)
