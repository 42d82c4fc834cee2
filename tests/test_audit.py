"""The auditor: Audit_SN tracking and audit log records."""

import pytest

from repro.errors import ConfigError
from repro.wal.records import AuditBeginRecord, AuditEndRecord

from tests.conftest import insert_accounts


@pytest.fixture
def adb(db_factory):
    return db_factory(scheme="data_cw", region_size=4096)


class TestAuditRuns:
    def test_clean_audit_advances_audit_sn(self, adb):
        insert_accounts(adb, 3)
        before = adb.auditor.last_clean_audit_lsn
        report = adb.audit()
        assert report.clean
        assert adb.auditor.last_clean_audit_lsn == report.begin_lsn > before

    def test_failed_audit_does_not_advance_audit_sn(self, adb):
        insert_accounts(adb, 3)
        clean = adb.audit()
        adb.memory.poke(adb.table("acct").record_address(0), b"\x01\x02")
        failed = adb.audit()
        assert not failed.clean
        assert adb.auditor.last_clean_audit_lsn == clean.begin_lsn
        assert adb.auditor.failures == 1

    def test_audit_records_in_stable_log(self, adb):
        insert_accounts(adb, 1)
        report = adb.audit()
        records = [r for _l, r in adb.system_log.scan()]
        begins = [r for r in records if isinstance(r, AuditBeginRecord)]
        ends = [r for r in records if isinstance(r, AuditEndRecord)]
        assert any(r.txn_id == report.audit_id for r in begins)
        assert any(r.txn_id == report.audit_id and r.clean for r in ends)

    def test_failed_audit_end_record_names_regions(self, adb):
        insert_accounts(adb, 1)
        adb.memory.poke(adb.table("acct").record_address(0), b"\xff")
        report = adb.audit()
        ends = [
            r
            for _l, r in adb.system_log.scan()
            if isinstance(r, AuditEndRecord) and r.txn_id == report.audit_id
        ]
        assert ends[0].corrupt_regions == report.corrupt_regions
        assert ends[0].region_size == 4096

    def test_subset_audit(self, adb):
        insert_accounts(adb, 1)
        adb.memory.poke(adb.table("acct").record_address(0), b"\xff")
        corrupt_region = adb.pipeline.codeword_table.region_of(
            adb.table("acct").record_address(0)
        )
        clean_subset = adb.auditor.run([corrupt_region + 1])
        assert clean_subset.clean
        dirty_subset = adb.auditor.run([corrupt_region])
        assert not dirty_subset.clean

    def test_corrupt_byte_ranges(self, adb):
        insert_accounts(adb, 1)
        adb.memory.poke(adb.table("acct").record_address(0), b"\xff")
        report = adb.audit()
        (start, length) = report.corrupt_byte_ranges[0]
        address = adb.table("acct").record_address(0)
        assert start <= address < start + length

    def test_corrupt_byte_ranges_fallback_clamps_last_region(self):
        """Regression: the fallback (no precomputed corrupt_ranges) must
        clamp the final ragged region to the image size, exactly like
        CodewordTable.region_bounds."""
        from repro.core.audit import AuditReport

        report = AuditReport(
            audit_id=1,
            begin_lsn=0,
            clean=False,
            corrupt_regions=(0, 2),
            region_size=4096,
            regions_checked=3,
            image_size=10_000,  # last region holds only 10_000 - 8192 bytes
        )
        assert report.corrupt_byte_ranges == ((0, 4096), (8192, 10_000 - 8192))

    def test_corrupt_byte_ranges_fallback_without_image_size(self):
        """With no image size the fallback keeps the old whole-region span."""
        from repro.core.audit import AuditReport

        report = AuditReport(
            audit_id=1,
            begin_lsn=0,
            clean=False,
            corrupt_regions=(2,),
            region_size=4096,
            regions_checked=3,
        )
        assert report.corrupt_byte_ranges == ((8192, 4096),)


class TestCrashWithCorruption:
    def test_refuses_clean_report(self, adb):
        insert_accounts(adb, 1)
        report = adb.audit()
        with pytest.raises(ConfigError):
            adb.crash_with_corruption(report)

    def test_note_written_and_db_unusable(self, adb, tmp_path):
        import json
        import os

        insert_accounts(adb, 1)
        adb.memory.poke(adb.table("acct").record_address(0), b"\xff")
        report = adb.audit()
        adb.crash_with_corruption(report)
        note_path = adb.path("corruption.note")
        assert os.path.exists(note_path)
        with open(note_path) as fh:
            note = json.load(fh)
        assert note["corrupt_ranges"]
        from repro.errors import TransactionError

        with pytest.raises(TransactionError):
            adb.begin()
