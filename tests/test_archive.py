"""Archives and media recovery with log amendment (Section 4.3 extension)."""

import pytest

from repro import Database, FaultInjector
from repro.errors import RecoveryError
from repro.recovery.archive import create_archive, read_archive_info, recover_from_archive
from repro.wal.records import AmendRecord

from tests.conftest import frames_of, insert_accounts, records_of


def archive_dir(db, name="arch"):
    return db.path(name)


class TestCreateArchive:
    def test_archive_manifest_and_files(self, db):
        insert_accounts(db, 3)
        info = create_archive(db, archive_dir(db))
        loaded = read_archive_info(info.path)
        assert loaded.ck_end == info.ck_end > 0
        assert loaded.image in ("A", "B")

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(RecoveryError):
            read_archive_info(str(tmp_path / "nope"))

    def test_archive_of_corrupt_image_rejected(self, db_factory):
        db = db_factory(scheme="data_cw")
        insert_accounts(db, 3)
        FaultInjector(db, seed=1).wild_write(
            db.table("acct").record_address(0), 8
        )
        with pytest.raises(RecoveryError):
            create_archive(db, archive_dir(db))


class TestPlainMediaRecovery:
    def test_replay_reaches_current_state(self, db):
        slots = insert_accounts(db, 5)
        info = create_archive(db, archive_dir(db))
        txn = db.begin()
        db.table("acct").update(txn, slots[0], {"balance": 777})
        db.table("acct").insert(txn, {"id": 50, "balance": 50})
        db.commit(txn)
        db.crash()
        db2, report = recover_from_archive(db.config, info.path)
        assert report.mode == "normal"
        txn = db2.begin()
        table = db2.table("acct")
        assert table.read(txn, slots[0])["balance"] == 777
        assert table.lookup(txn, 50) is not None
        db2.commit(txn)
        db2.close()

    def test_replay_rolls_back_in_flight_work(self, db):
        slots = insert_accounts(db, 3)
        info = create_archive(db, archive_dir(db))
        txn = db.begin()
        db.table("acct").update(txn, slots[1], {"balance": 999})
        db.checkpoint()  # records reach the stable log; txn never commits
        db.crash()
        db2, _report = recover_from_archive(db.config, info.path)
        txn = db2.begin()
        assert db2.table("acct").read(txn, slots[1])["balance"] == 100
        db2.commit(txn)
        db2.close()


class TestAmendedMediaRecovery:
    """The core scenario: corruption recovery happens AFTER the archive;
    the amendment keeps the archive usable."""

    def corruption_episode(self, db_factory, scheme):
        # Conflict-consistent mode is region-granular: keep regions at one
        # record so bystander transactions are not conservatively deleted.
        params = {} if scheme == "cw_read_logging" else {"region_size": 32}
        db = db_factory(scheme=scheme, **params)
        slots = insert_accounts(db, 10)
        info = create_archive(db, archive_dir(db))
        table = db.table("acct")
        # Clean committed work after the archive.
        txn = db.begin()
        table.update(txn, slots[0], {"balance": 111})
        db.commit(txn)
        # Corruption + carrier.
        FaultInjector(db, seed=3).wild_write(table.record_address(slots[1]) + 8, 8)
        txn = db.begin()
        bogus = table.read(txn, slots[1])["balance"]
        table.update(txn, slots[2], {"balance": bogus})
        db.commit(txn)
        carrier = txn.txn_id
        report = db.audit()
        assert not report.clean
        db.crash_with_corruption(report)
        db2, recovery = Database.recover(db.config)
        assert carrier in recovery.deleted_set
        # Post-recovery committed work.
        txn = db2.begin()
        db2.table("acct").update(txn, slots[3], {"balance": 333})
        db2.commit(txn)
        return db2, info, slots, carrier

    def test_amendment_written_to_log(self, db_factory):
        db2, _info, _slots, _carrier = self.corruption_episode(
            db_factory, "cw_read_logging"
        )
        amends = [
            r for _l, r in db2.system_log.scan() if isinstance(r, AmendRecord)
        ]
        assert amends, "corruption recovery must amend the log"
        db2.close()

    @pytest.mark.parametrize("scheme", ["cw_read_logging", "read_logging"])
    def test_archive_survives_corruption_recovery(self, db_factory, scheme):
        db2, info, slots, carrier = self.corruption_episode(db_factory, scheme)
        db2.crash()
        db3, report = recover_from_archive(db2.config, info.path)
        txn = db3.begin()
        table = db3.table("acct")
        # Pre-corruption commit survives; carried write deleted again;
        # direct corruption absent; post-recovery work replayed.
        assert table.read(txn, slots[0])["balance"] == 111
        assert table.read(txn, slots[2])["balance"] == 100
        assert table.read(txn, slots[1])["balance"] == 100
        assert table.read(txn, slots[3])["balance"] == 333
        db3.commit(txn)
        assert db3.audit().clean
        db3.close()

    def test_post_recovery_txns_not_wrongly_recruited(self, db_factory):
        """After the amend point the CorruptDataTable is healed, so a
        post-recovery transaction touching the once-corrupt range
        survives the archive replay."""
        db = db_factory(scheme="read_logging", region_size=32)
        slots = insert_accounts(db, 10)
        info = create_archive(db, archive_dir(db))
        table = db.table("acct")
        FaultInjector(db, seed=3).wild_write(table.record_address(slots[1]) + 8, 8)
        report = db.audit()
        db.crash_with_corruption(report)
        db2, _rec = Database.recover(db.config)
        # Post-recovery transaction writes INTO the once-corrupt record.
        txn = db2.begin()
        db2.table("acct").update(txn, slots[1], {"balance": 555})
        db2.commit(txn)
        healed_txn = txn.txn_id
        db2.crash()
        db3, replay = recover_from_archive(db2.config, info.path)
        assert healed_txn not in replay.deleted_set
        txn = db3.begin()
        assert db3.table("acct").read(txn, slots[1])["balance"] == 555
        db3.commit(txn)
        db3.close()


class TestAmendRecordCodec:
    def test_roundtrip(self):
        record = AmendRecord(
            7, corrupt_ranges=((100, 64), (4096, 8192)), audit_sn=42, use_checksums=True
        )
        assert records_of(frames_of(record)) == [(0, record)]

    def test_empty_ranges(self):
        record = AmendRecord(0, corrupt_ranges=(), audit_sn=0, use_checksums=False)
        assert records_of(frames_of(record)) == [(0, record)]


@pytest.mark.xfail(
    strict=True,
    reason="prior-state recovery writes no amendment: the lost tail stays on "
    "the log and an older archive replays it (Section 4.3: the finishing "
    'checkpoint "invalidates all archives"); needs a log-format decision',
)
def test_archive_taken_before_prior_state_recovery_stays_valid(db_factory):
    from repro.recovery.prior_state import recover_prior_state

    db = db_factory(scheme="data_cw")
    slots = insert_accounts(db, 5)
    info = create_archive(db, archive_dir(db))
    table = db.table("acct")
    assert db.audit().clean  # the cutoff
    txn = db.begin()
    table.update(txn, slots[0], {"balance": 111})
    db.commit(txn)
    FaultInjector(db, seed=1).wild_write(table.record_address(slots[1]) + 8, 8)
    report = db.audit()
    assert not report.clean
    db.crash_with_corruption(report)

    db2, prior = recover_prior_state(db.config)
    assert prior.lost_set == {txn.txn_id}
    check = db2.begin()
    assert db2.table("acct").read(check, slots[0])["balance"] == 100
    db2.commit(check)
    db2.crash()

    db3, _report = recover_from_archive(db.config, info.path)
    try:
        check = db3.begin()
        # Today: 111 -- the transaction prior-state recovery lost is back.
        assert db3.table("acct").read(check, slots[0])["balance"] == 100
    finally:
        db3.close()
