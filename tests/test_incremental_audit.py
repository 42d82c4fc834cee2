"""Incremental (round-robin) auditing."""

import pytest

from repro import FaultInjector

from tests.conftest import insert_accounts


@pytest.fixture
def adb(db_factory):
    # Small regions so the table has plenty of regions to sweep.
    return db_factory(scheme="data_cw", region_size=512)


def region_count(db) -> int:
    return db.pipeline.codeword_table.region_count


class TestSweepMechanics:
    def test_sweep_covers_all_regions(self, adb):
        insert_accounts(adb, 5)
        total = region_count(adb)
        checked = 0
        while True:
            report = adb.auditor.run_incremental(batch=7)
            checked += report.regions_checked
            if adb.auditor._cursor == 0:  # sweep wrapped
                break
        assert checked == total

    def test_audit_sn_advances_only_on_full_clean_sweep(self, adb):
        insert_accounts(adb, 5)
        before = adb.auditor.last_clean_audit_lsn
        sweep_start = adb.system_log.next_lsn
        total = region_count(adb)
        batch = max(1, total // 3)
        while adb.auditor.run_incremental(batch) and adb.auditor._cursor != 0:
            assert adb.auditor.last_clean_audit_lsn == before  # mid-sweep
        assert adb.auditor.last_clean_audit_lsn >= sweep_start

    def test_audit_sn_is_sweep_start_not_end(self, adb):
        """Conservative: corruption during the sweep might postdate only
        the sweep's start, so Audit_SN is the start LSN."""
        insert_accounts(adb, 5)
        sweep_start = adb.system_log.next_lsn
        total = region_count(adb)
        # interleave work between batches
        table = adb.table("acct")
        batch = max(1, total // 4 + 1)
        done = False
        while not done:
            adb.auditor.run_incremental(batch)
            done = adb.auditor._cursor == 0
            txn = adb.begin()
            table.update(txn, 0, {"balance": lambda b: b + 1})
            adb.commit(txn)
        assert adb.auditor.last_clean_audit_lsn >= sweep_start
        assert adb.auditor.last_clean_audit_lsn < adb.system_log.next_lsn - 1

    def test_bad_batch_rejected(self, adb):
        with pytest.raises(ValueError):
            adb.auditor.run_incremental(0)


class TestIncrementalDetection:
    def test_corruption_found_when_cursor_reaches_it(self, adb):
        slots = insert_accounts(adb, 20)
        table = adb.table("acct")
        FaultInjector(adb, seed=1).wild_write(table.record_address(slots[10]) + 8, 8)
        found = None
        for _ in range(region_count(adb) + 1):
            report = adb.auditor.run_incremental(batch=3)
            if not report.clean:
                found = report
                break
        assert found is not None
        assert adb.auditor.failures == 1

    def test_failed_sweep_restarts_from_zero(self, adb):
        slots = insert_accounts(adb, 20)
        table = adb.table("acct")
        FaultInjector(adb, seed=1).wild_write(table.record_address(slots[1]) + 8, 8)
        report = adb.auditor.run_incremental(batch=region_count(adb))
        assert not report.clean
        assert adb.auditor._cursor == 0

    def test_baseline_scheme_trivially_clean(self, db):
        insert_accounts(db, 2)
        report = db.auditor.run_incremental(batch=5)
        assert report.clean
