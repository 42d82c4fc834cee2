"""Dirty-region incremental audits (``DBConfig(full_sweep_every=K > 1)``).

The maintainer records which protection regions updates touched; an
incremental audit folds only those through the vectorized kernel.  Wild
writes bypass the prescribed interface and never land in the dirty set,
so the periodic full sweep (``full_sweep_every``) is a *correctness*
knob, not a tuning knob -- this suite pins both halves of that contract,
plus the meter/result equivalence of the run-grouped fast path against
the scalar per-region loop.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database, DBConfig, FaultInjector
from repro.core.maintainer import _contiguous_runs

from tests.conftest import ACCT_SCHEMA, insert_accounts


def make_incremental_db(tmp_path, name="idb", **overrides) -> Database:
    kwargs = dict(
        dir=str(tmp_path / name),
        scheme="data_cw",
        scheme_params={"region_size": 512},
        full_sweep_every=3,
    )
    kwargs.update(overrides)
    db = Database(DBConfig(**kwargs))
    db.create_table("acct", ACCT_SCHEMA, 200, key_field="id")
    db.start()
    return db


def maintainer_of(db: Database):
    return db.scheme.maintainer


def deposit(db: Database, slot: int, balance: int) -> None:
    txn = db.begin()
    db.table("acct").update(txn, slot, {"balance": balance})
    db.commit(txn)


class TestDirtySet:
    def test_updates_feed_the_dirty_set(self, tmp_path):
        db = make_incremental_db(tmp_path)
        slots = insert_accounts(db, 8)
        maintainer = maintainer_of(db)
        maintainer.clear_dirty()
        deposit(db, slots[0], 7)
        dirty = maintainer.dirty_region_list()
        assert dirty  # the touched region is tracked
        address = db.table("acct").record_address(slots[0])
        table = db.scheme.codeword_table
        assert set(dirty) >= set(table.regions_spanning(address, 8))
        db.close()

    def test_incremental_audit_checks_only_dirty_regions(self, tmp_path):
        db = make_incremental_db(tmp_path, full_sweep_every=100)
        slots = insert_accounts(db, 8)
        maintainer = maintainer_of(db)
        maintainer.clear_dirty()
        deposit(db, slots[3], 9)
        dirty = maintainer.dirty_region_list()
        before = db.meter.counts["cw_check_fixed"]
        report = db.audit()
        assert report.clean
        assert report.regions_checked == len(dirty)
        assert db.meter.counts["cw_check_fixed"] - before == len(dirty)
        # A clean dirty pass retires the audited regions from the set.
        assert maintainer.dirty_region_list() == []
        db.close()

    def test_clean_dirty_audit_clears_only_audited_regions(self, tmp_path):
        db = make_incremental_db(tmp_path, full_sweep_every=100)
        insert_accounts(db, 8)
        maintainer = maintainer_of(db)
        maintainer.clear_dirty()
        maintainer.dirty_regions.update({1, 4})
        report = db.auditor.run(region_ids=[1])
        assert report.clean
        maintainer.clear_dirty([1])
        assert maintainer.dirty_region_list() == [4]
        db.close()

    def test_physical_undo_marks_dirty(self, tmp_path):
        db = make_incremental_db(tmp_path, full_sweep_every=100)
        slots = insert_accounts(db, 8)
        maintainer = maintainer_of(db)
        maintainer.clear_dirty()
        txn = db.begin()
        db.table("acct").update(txn, slots[2], {"balance": 1234})
        db.abort(txn)  # rollback applies physical/logical undo
        assert maintainer.dirty_region_list()  # undo writes are tracked too
        db.close()


class TestWildWriteVsDirtySet:
    def _clean_region_not_in(self, db, dirty: set[int]) -> int:
        table = db.scheme.codeword_table
        for region_id in range(table.region_count):
            if region_id not in dirty:
                return region_id
        pytest.skip("no clean region available")

    def test_wild_write_in_clean_region_needs_the_full_sweep(self, tmp_path):
        db = make_incremental_db(tmp_path, full_sweep_every=3)
        slots = insert_accounts(db, 8)
        maintainer = maintainer_of(db)
        db.audit()  # whatever its phase, a clean pass settles the dirty set
        maintainer.clear_dirty()
        db.auditor._dirty_audits_since_sweep = 0

        table = db.scheme.codeword_table
        target = self._clean_region_not_in(db, set(maintainer.dirty_region_list()))
        start, length = table.region_bounds(target)
        FaultInjector(db, seed=3).wild_write(start, min(8, length))
        assert target not in maintainer.dirty_regions  # poke bypassed the hooks

        # Dirty passes are blind to it: the corrupted region is not in
        # the set, so the incremental audits report clean.
        first = db.audit()
        second = db.audit()
        assert first.clean and second.clean
        # The third audit hits the full-sweep cadence and catches it.
        third = db.audit()
        assert not third.clean
        assert target in third.corrupt_regions
        db.close()

    def test_corruption_in_dirty_region_caught_immediately(self, tmp_path):
        db = make_incremental_db(tmp_path, full_sweep_every=100)
        slots = insert_accounts(db, 8)
        maintainer = maintainer_of(db)
        maintainer.clear_dirty()
        db.auditor._dirty_audits_since_sweep = 0
        deposit(db, slots[5], 77)  # marks the region dirty
        dirty = maintainer.dirty_region_list()
        address = db.table("acct").record_address(slots[5])
        FaultInjector(db, seed=4).wild_write(address, 8)
        report = db.audit()  # dirty pass, no full sweep needed
        assert not report.clean
        assert set(report.corrupt_regions) <= set(dirty)
        db.close()

    def test_audit_sn_advances_only_on_full_sweeps(self, tmp_path):
        db = make_incremental_db(tmp_path, full_sweep_every=3)
        slots = insert_accounts(db, 8)
        db.audit()
        db.auditor._dirty_audits_since_sweep = 0
        sn = db.auditor.last_clean_audit_lsn
        deposit(db, slots[0], 1)
        assert db.audit().clean  # dirty pass 1
        assert db.auditor.last_clean_audit_lsn == sn
        deposit(db, slots[1], 2)
        assert db.audit().clean  # dirty pass 2
        assert db.auditor.last_clean_audit_lsn == sn
        assert db.audit().clean  # full sweep
        assert db.auditor.last_clean_audit_lsn > sn
        db.close()

    def test_checkpoint_can_force_a_full_audit(self, tmp_path):
        db = make_incremental_db(tmp_path, full_sweep_every=1000)
        insert_accounts(db, 8)
        db.audit()
        maintainer = maintainer_of(db)
        maintainer.clear_dirty()
        target = self._clean_region_not_in(db, set())
        table = db.scheme.codeword_table
        start, length = table.region_bounds(target)
        FaultInjector(db, seed=6).wild_write(start, min(8, length))
        # The routine incremental checkpoint audit misses it...
        assert db.checkpointer.checkpoint().certified
        # ...but a forced full certification does not.
        result = db.checkpointer.checkpoint(force_full_audit=True)
        assert not result.certified
        assert target in result.audit_report.corrupt_regions
        db.close()


class TestRunGroupedEquivalence:
    """``audit_regions`` over an ascending list must be indistinguishable
    (results AND meter) from the scalar per-region loop."""

    @pytest.fixture(scope="class")
    def eqdb(self, tmp_path_factory):
        db = make_incremental_db(tmp_path_factory.mktemp("eq"), "eqdb")
        slots = insert_accounts(db, 40)
        for i in range(0, 40, 7):
            deposit(db, slots[i], 1000 + i)
        yield db
        db.close()

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_grouped_matches_scalar(self, eqdb, data):
        table = eqdb.scheme.codeword_table
        maintainer = maintainer_of(eqdb)
        ids = sorted(
            data.draw(
                st.sets(
                    st.integers(0, table.region_count - 1),
                    max_size=table.region_count,
                )
            )
        )

        def metered(call_ids):
            before = dict(eqdb.meter.counts)
            result = maintainer.audit_regions(call_ids)
            delta = {
                event: count - before.get(event, 0)
                for event, count in eqdb.meter.counts.items()
                if count != before.get(event, 0)
            }
            return result, delta

        # A list rides the vectorized run-grouped kernel; a generator is
        # rejected by _contiguous_runs and walks the scalar loop.
        grouped_result, grouped_delta = metered(ids)
        scalar_result, scalar_delta = metered(iter(ids))
        assert grouped_result == scalar_result
        assert grouped_delta == scalar_delta

    def test_full_range_matches_scalar(self, eqdb):
        table = eqdb.scheme.codeword_table
        maintainer = maintainer_of(eqdb)
        before = dict(eqdb.meter.counts)
        grouped = maintainer.audit_regions(range(table.region_count))
        mid = dict(eqdb.meter.counts)
        scalar = maintainer.audit_regions(iter(range(table.region_count)))
        after = dict(eqdb.meter.counts)
        assert grouped == scalar
        grouped_delta = {k: mid[k] - before.get(k, 0) for k in mid}
        scalar_delta = {k: after[k] - mid.get(k, 0) for k in after}
        assert {k: v for k, v in grouped_delta.items() if v} == {
            k: v for k, v in scalar_delta.items() if v
        }


class TestContiguousRuns:
    def test_range_and_lists(self):
        assert _contiguous_runs(range(3, 7), 10) == [(3, 7)]
        assert _contiguous_runs(range(0, 0), 10) == []
        assert _contiguous_runs([0, 1, 2, 5, 6, 9], 10) == [(0, 3), (5, 7), (9, 10)]
        assert _contiguous_runs([4], 10) == [(4, 5)]

    def test_rejects_non_ascending_or_out_of_bounds(self):
        assert _contiguous_runs([2, 1], 10) is None
        assert _contiguous_runs([1, 1], 10) is None
        assert _contiguous_runs([-1, 0], 10) is None
        assert _contiguous_runs([8, 9, 10], 10) is None
        assert _contiguous_runs(range(2, 12), 10) is None
        assert _contiguous_runs(range(0, 10, 2), 10) is None
        assert _contiguous_runs(iter([1, 2]), 10) is None
