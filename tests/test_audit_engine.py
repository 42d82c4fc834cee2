"""The audit engine: one bracket, one verdict, one ``Audit_SN`` rule.

Every audit policy -- inline runs, routine dirty-region passes,
background sweeps, round-robin slices -- opens and closes through the
same bracket in :class:`~repro.core.audit.Auditor`.  This suite pins the
places where policies used to disagree:

* a background full sweep reports and charges exactly what the inline
  full sweep does, quarantine or not;
* a promoted standby records ``Audit_SN`` in its replicated log's LSN
  space, so prior-state recovery after failover cuts off where the
  primary's does;
* ``full_sweep_every=1`` is the paper's full-audit policy: the routine
  is meter-, log- and report-identical to calling ``Auditor.run``
  directly.
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database, DBConfig
from repro.errors import QuarantinedRegionError
from repro.recovery.archive import create_archive
from repro.recovery.prior_state import recover_prior_state
from repro.replication import LogShipper, Replica, ShipTransport

from tests.conftest import ACCT_SCHEMA, insert_accounts

ACCOUNTS = 8
#: Allocated-but-never-touched slot (see tests/test_replication.py).
COLD_SLOT = ACCOUNTS + 3


def _make_db(path, **config_kwargs) -> Database:
    config_kwargs.setdefault("scheme", "data_cw")
    config_kwargs.setdefault("scheme_params", {"region_size": 64})
    db = Database(DBConfig(dir=str(path), **config_kwargs))
    db.create_table("acct", ACCT_SCHEMA, 64, key_field="id")
    db.start()
    return db


def _update(db: Database, slot: int, balance: int) -> None:
    txn = db.begin()
    db.table("acct").update(txn, slot, {"balance": balance})
    db.commit(txn)


def _flip_one_word(db: Database, address: int) -> None:
    """Wild write that changes exactly one word (never XOR-cancels)."""
    old = db.memory.read(address, 1)
    db.memory.poke(address, bytes([old[0] ^ 0x5A]))


def _meter_delta(db: Database, mark: dict) -> dict:
    return {
        event: (count - mark.get(event, (0, 0))[0], ns - mark.get(event, (0, 0))[1])
        for event, (count, ns) in db.meter.snapshot().items()
        if (count, ns) != mark.get(event, (0, 0))
    }


class TestBackgroundSweepMatchesInline:
    def test_reports_and_charges_equal_with_and_without_quarantine(self, tmp_path):
        for quarantine in (False, True):
            outcomes = {}
            for mode in ("inline", "background"):
                db = _make_db(tmp_path / f"{mode}-{quarantine}", quarantine=quarantine)
                slots = insert_accounts(db, 24)
                _flip_one_word(db, db.table("acct").record_address(slots[1]) + 8)
                convicted = db.audit()  # under quarantine: fenced off
                assert not convicted.clean
                mark = db.meter.snapshot()
                if mode == "inline":
                    report = db.auditor.run(skip_quarantined=quarantine)
                else:
                    assert db.auditor.start_background_sweep()
                    report = db.auditor.join_background_sweep(
                        skip_quarantined=quarantine
                    )
                outcomes[mode] = (
                    dataclasses.replace(report, audit_id=0, begin_lsn=0),
                    _meter_delta(db, mark),
                    db.auditor.last_clean_audit_lsn,
                )
                db.close()
            inline, background = outcomes["inline"], outcomes["background"]
            assert background == inline
            report = inline[0]
            region_count = report.image_size // report.region_size
            if quarantine:
                assert report.clean and report.degraded
                assert report.regions_checked == region_count - 1
            else:
                assert not report.clean
                assert report.regions_checked == region_count


class TestPromotedStandbyAuditSN:
    def _config(self, path) -> DBConfig:
        # Full routine audits (the default cadence).
        return DBConfig(
            dir=str(path),
            scheme="data_cw+cw_read_logging",
            scheme_params={"region_size": 256},
            quarantine=True,
        )

    def _convict_and_recover(self, db: Database, slots: dict):
        _update(db, slots[0], 424242)
        _flip_one_word(db, db.table("acct").record_address(COLD_SLOT))
        report = db.audit()
        assert not report.clean
        db.crash_with_corruption(report)
        return recover_prior_state(db.config)

    def test_prior_state_recovery_after_failover(self, tmp_path):
        primary = Database(self._config(tmp_path / "primary"))
        primary.create_table("acct", ACCT_SCHEMA, 64, key_field="id")
        primary.start()
        slots = insert_accounts(primary, ACCOUNTS)
        create_archive(primary, str(tmp_path / "archive"))
        replica = Replica.bootstrap(
            self._config(tmp_path / "replica"), str(tmp_path / "archive")
        )
        shipper = LogShipper(
            primary, ShipTransport(), replica, window=4, batch_records=8
        )
        for op in range(20):
            _update(primary, slots[op % ACCOUNTS], 1000 + op)
            shipper.pump()
            if op % 5 == 4:
                assert primary.checkpoint().certified
        assert shipper.drain()

        primary_ck_end = primary.checkpointer.anchored_ck_end()
        assert primary.auditor.last_clean_audit_lsn >= primary_ck_end
        primary_db, primary_report = self._convict_and_recover(primary, slots)

        replica.promote(primary_end_lsn=primary.system_log.end_of_stable_lsn)
        standby = replica.db
        promotion_ck_end = standby.checkpointer.anchored_ck_end()
        # Audit_SN is an LSN of the replicated log, not the scratch log.
        assert standby.auditor.last_clean_audit_lsn >= promotion_ck_end
        standby_db, standby_report = self._convict_and_recover(standby, slots)
        assert standby_report.cutoff_lsn >= promotion_ck_end

        # Same history, same prior state: the post-checkpoint update is
        # lost on both nodes, every earlier commit survives.
        for db in (primary_db, standby_db):
            txn = db.begin()
            balances = [
                db.table("acct").read(txn, slots[acct])["balance"]
                for acct in range(ACCOUNTS)
            ]
            db.abort(txn)
            assert balances == [1016, 1017, 1018, 1019, 1012, 1013, 1014, 1015]
        assert primary_report.lost_committed and standby_report.lost_committed
        primary_db.close()
        standby_db.close()


OPS = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["update", "abort"]), st.integers(0, 11), st.integers(0, 9999)),
        st.tuples(st.just("wild"), st.integers(0, 63), st.integers(0, 31)),
        st.tuples(st.sampled_from(["audit", "checkpoint"]), st.just(0), st.just(0)),
    ),
    min_size=1,
    max_size=14,
)


class TestFullCadenceIsTheFullAuditPath:
    """``full_sweep_every=1`` is the full-audit policy: the routine is
    indistinguishable from a twin whose routine calls :meth:`Auditor.run`
    directly (what every routine audit did under the old
    ``audit_mode="full"`` switch)."""

    @given(
        ops=OPS,
        quarantine=st.booleans(),
        scheme=st.sampled_from(["data_cw", "deferred"]),
    )
    @settings(max_examples=25, deadline=None)
    def test_routine_equals_direct_full_runs(
        self, ops, quarantine, scheme, tmp_path_factory
    ):
        base = tmp_path_factory.mktemp("fullid")
        routine = _make_db(base / "routine", scheme=scheme, quarantine=quarantine)
        direct = _make_db(base / "direct", scheme=scheme, quarantine=quarantine)
        auditor = direct.auditor
        auditor.run_routine = lambda skip_quarantined=False: auditor.run(
            skip_quarantined=skip_quarantined
        )
        trails = {}
        for db in (routine, direct):
            slots = insert_accounts(db, 12)
            table = db.table("acct")
            trail = []
            for kind, a, b in ops:
                if kind in ("update", "abort"):
                    txn = db.begin()
                    try:
                        table.update(txn, slots[a], {"balance": b})
                    except QuarantinedRegionError as exc:
                        trail.append(exc.region_ids)
                        kind = "abort"
                    (db.commit if kind == "update" else db.abort)(txn)
                elif kind == "wild":
                    _flip_one_word(db, table.record_address(a) + b)
                elif kind == "audit":
                    trail.append(db.audit())
                else:
                    result = db.checkpoint()
                    trail.append((result.certified, result.audit_report))
            db.system_log.flush()
            with open(db.path("system.log"), "rb") as handle:
                log_bytes = handle.read()
            trails[db] = (
                trail,
                db.meter.snapshot(),
                log_bytes,
                db.auditor.last_clean_audit_lsn,
                db.quarantined_regions(),
            )
            db.close()
        assert trails[routine] == trails[direct]
