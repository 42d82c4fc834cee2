"""Corrupt-region quarantine: detected corruption is never served.

A failed audit or read precheck places the corrupt regions in quarantine.
From then on reads overlapping them raise :class:`QuarantinedRegionError`
(or transparently repair under ``quarantine_repair``), audits skip and
report them without advancing ``Audit_SN``, and checkpoint certification
keeps auditing them -- a corrupt image must never certify.
"""

import pytest

from repro import Database, DBConfig, FaultInjector
from repro.errors import ConfigError, QuarantinedRegionError

from tests.conftest import ACCT_SCHEMA, insert_accounts


def make_db(tmp_path, name, scheme="data_cw", **config_kwargs) -> Database:
    config = DBConfig(
        dir=str(tmp_path / name),
        scheme=scheme,
        scheme_params={"region_size": 256},
        quarantine=True,
        **config_kwargs,
    )
    db = Database(config)
    db.create_table("acct", ACCT_SCHEMA, 64, key_field="id")
    db.start()
    return db


def corrupt_one_record(db, slot) -> int:
    """Corrupt ``slot``'s record; returns its protection-region id."""
    table = db.table("acct")
    address = table.record_address(slot)
    FaultInjector(db, seed=7).wild_write(address + 8, 8)
    cw_table = db.pipeline.maintainer.table
    return next(iter(cw_table.regions_spanning(address, table.schema.record_size)))


class TestConfigValidation:
    def test_quarantine_needs_codeword_scheme(self, tmp_path):
        with pytest.raises(ConfigError):
            Database(DBConfig(dir=str(tmp_path / "q"), scheme="baseline", quarantine=True))

    def test_quarantine_repair_implies_quarantine(self, tmp_path):
        config = DBConfig(
            dir=str(tmp_path / "qr"), scheme="data_cw", quarantine_repair=True
        )
        db = Database(config)
        assert db.quarantine_enabled
        db.close()


class TestQuarantineBlocksReads:
    def test_detected_region_raises_on_read(self, tmp_path):
        db = make_db(tmp_path, "block")
        slots = insert_accounts(db, 4)
        db.checkpoint()
        region = corrupt_one_record(db, slots[1])
        report = db.audit()
        assert not report.clean
        assert region in db.quarantined_regions()
        txn = db.begin()
        with pytest.raises(QuarantinedRegionError) as exc:
            db.table("acct").read(txn, slots[1])
        assert region in exc.value.region_ids
        db.abort(txn)
        db.close()

    def test_unaffected_records_still_readable(self, tmp_path):
        db = make_db(tmp_path, "other")
        slots = insert_accounts(db, 12)
        db.checkpoint()
        corrupt_one_record(db, slots[0])
        db.audit()
        # Records in other regions are not collateral damage.  With
        # 256-byte regions and 32-byte records, slot 11 lives two
        # regions away from slot 0.
        txn = db.begin()
        assert db.table("acct").read(txn, slots[11])["balance"] == 100
        db.commit(txn)
        db.close()

    def test_precheck_detection_quarantines_on_first_read(self, tmp_path):
        db = make_db(tmp_path, "pre", scheme="precheck")
        slots = insert_accounts(db, 4)
        db.checkpoint()
        region = corrupt_one_record(db, slots[1])
        # No audit ran: the *read precheck* makes the conviction, and the
        # region goes straight to quarantine.
        txn = db.begin()
        with pytest.raises(QuarantinedRegionError):
            db.table("acct").read(txn, slots[1])
        db.abort(txn)
        assert region in db.quarantined_regions()
        # The second read fails on the quarantine itself, not a re-check.
        txn = db.begin()
        with pytest.raises(QuarantinedRegionError):
            db.table("acct").read(txn, slots[1])
        db.abort(txn)
        db.close()


class TestDegradedAudits:
    def test_audit_skips_and_reports_quarantined(self, tmp_path):
        db = make_db(tmp_path, "deg")
        slots = insert_accounts(db, 4)
        db.checkpoint()
        region = corrupt_one_record(db, slots[1])
        db.audit()  # convicts and quarantines
        sn_before = db.auditor.last_clean_audit_lsn
        report = db.audit(range(db.pipeline.maintainer.table.region_count))
        # The known-corrupt region is skipped, not re-failed...
        assert report.clean
        assert report.degraded
        assert region in report.quarantined_regions
        # ...and a degraded audit never advances Audit_SN: it certifies
        # only what it actually looked at.
        assert db.auditor.last_clean_audit_lsn == sn_before
        db.close()

    def test_checkpoint_certification_never_skips(self, tmp_path):
        db = make_db(tmp_path, "cert")
        slots = insert_accounts(db, 4)
        db.checkpoint()
        anchor_before = db.checkpointer.read_anchor()
        corrupt_one_record(db, slots[1])
        db.audit()
        result = db.checkpoint()
        # Certification audits everything, quarantine or not: a corrupt
        # image must never become the recovery starting point.
        assert not result.certified
        assert db.checkpointer.read_anchor() == anchor_before
        db.close()


class TestRepair:
    def test_repair_quarantined_restores_and_releases(self, tmp_path):
        db = make_db(tmp_path, "repair")
        slots = insert_accounts(db, 4)
        db.checkpoint()
        corrupt_one_record(db, slots[1])
        db.audit()
        quarantined = db.quarantined_regions()
        assert quarantined
        assert db.repair_quarantined() == len(quarantined)
        assert db.quarantined_regions() == ()
        txn = db.begin()
        assert db.table("acct").read(txn, slots[1])["balance"] == 100
        db.commit(txn)
        assert db.audit().clean
        db.close()

    def test_quarantine_repair_serves_reads_transparently(self, tmp_path):
        db = make_db(tmp_path, "auto", quarantine_repair=True)
        slots = insert_accounts(db, 4)
        db.checkpoint()
        region = corrupt_one_record(db, slots[1])
        db.audit()
        assert region in db.quarantined_regions()
        # The read repairs the region in place instead of raising.
        txn = db.begin()
        assert db.table("acct").read(txn, slots[1])["balance"] == 100
        db.commit(txn)
        assert region not in db.quarantined_regions()
        assert db.audit().clean
        db.close()

    def test_repair_covers_committed_updates(self, tmp_path):
        db = make_db(tmp_path, "redo")
        slots = insert_accounts(db, 4)
        db.checkpoint()
        txn = db.begin()
        db.table("acct").update(txn, slots[1], {"balance": 555})
        db.commit(txn)
        corrupt_one_record(db, slots[1])
        db.audit()
        db.repair_quarantined()
        # Repair replays the post-checkpoint commit, not just the image.
        txn = db.begin()
        assert db.table("acct").read(txn, slots[1])["balance"] == 555
        db.commit(txn)
        db.close()


class TestQuarantineLifecycle:
    def test_rebuild_clears_quarantine(self, tmp_path):
        db = make_db(tmp_path, "rebuild")
        insert_accounts(db, 4)
        maintainer = db.pipeline.maintainer
        maintainer.quarantine([0, 1])
        assert db.quarantined_regions() == (0, 1)
        maintainer.rebuild()
        # Rebuilding recomputes every codeword: old verdicts are stale.
        assert db.quarantined_regions() == ()
        db.close()

    def test_recovery_starts_with_empty_quarantine(self, tmp_path):
        db = make_db(tmp_path, "recover")
        slots = insert_accounts(db, 4)
        db.checkpoint()
        corrupt_one_record(db, slots[1])
        report = db.audit()
        assert db.quarantined_regions()
        db.crash_with_corruption(report)
        db2, _ = Database.recover(db.config)
        # Recovery repaired or deleted the corruption and recomputed the
        # codewords; the quarantine verdicts died with the crash.
        assert db2.quarantined_regions() == ()
        assert db2.audit().clean
        db2.close()
