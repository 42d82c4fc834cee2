"""Background full-sweep audits: off-thread folds with a tracked-touch
handshake, joined on cadence or at checkpoint certification.

Under ``DBConfig(full_sweep_every=K > 1, background_sweeps=True)`` the
periodic full sweep of :meth:`Auditor.run_routine` runs its
fold (one GIL-releasing numpy reduction) in a worker thread.  The
correctness core is the snapshot/epoch handshake: any region whose bytes
or stored codeword change while the fold is in flight lands in the
maintainer's touched set and is re-audited synchronously at join, so the
racing fold can neither convict an innocent region nor clear a guilty
one.  The join charges the meter exactly what a synchronous full sweep
charges -- wall-clock optimisation, not a cost-model change.
"""

from __future__ import annotations

import pytest

from repro import Database, DBConfig, Field, FieldType, Schema

ACCT_SCHEMA = Schema(
    [
        Field("id", FieldType.INT64),
        Field("balance", FieldType.INT64),
        Field("name", FieldType.CHAR, 16),
    ]
)


def _make_db(dirname: str, *, background: bool = True, **config_kwargs) -> Database:
    config = DBConfig(
        dir=dirname,
        scheme="data_cw",
        scheme_params={"region_size": 64},
        full_sweep_every=2,
        background_sweeps=background,
        **config_kwargs,
    )
    db = Database(config)
    db.create_table("acct", ACCT_SCHEMA, 64, key_field="id")
    db.start()
    txn = db.begin()
    table = db.table("acct")
    for i in range(24):
        table.insert(txn, {"id": i, "balance": 1000 + i, "name": f"a{i}"})
    db.commit(txn)
    # Startup certification already spent cadence ticks; reset so each
    # test counts escalations from a known point.
    db.auditor.abandon_background_sweep()
    db.auditor._dirty_audits_since_sweep = 0
    return db


def _touch(db: Database, slot: int, balance: int) -> None:
    txn = db.begin()
    db.table("acct").update(txn, slot, {"balance": balance})
    db.commit(txn)


class TestSweepCadence:
    def test_escalation_starts_then_joins(self, tmp_path):
        db = _make_db(str(tmp_path / "db"))
        auditor = db.auditor
        table = db.pipeline.codeword_table

        _touch(db, 0, 11)
        r1 = db.audit()  # dirty pass #1
        assert r1.clean and auditor._sweep is None
        assert r1.regions_checked < table.region_count

        _touch(db, 1, 22)
        r2 = db.audit()  # cadence hit: launches the sweep, serves a dirty pass
        assert r2.clean and auditor._sweep is not None
        assert r2.regions_checked < table.region_count

        _touch(db, 2, 33)
        r3 = db.audit()  # dirty pass again; the fold keeps running
        assert r3.clean and auditor._sweep is not None

        r4 = db.audit()  # cadence hit with a sweep in flight: join it
        assert r4.clean and auditor._sweep is None
        assert r4.regions_checked == table.region_count
        db.close()

    def test_clean_join_advances_audit_sn_to_begin_lsn(self, tmp_path):
        db = _make_db(str(tmp_path / "db"))
        auditor = db.auditor
        before = auditor.last_clean_audit_lsn
        assert auditor.start_background_sweep()
        report = auditor.join_background_sweep()
        assert report.clean
        assert report.begin_lsn > before
        assert auditor.last_clean_audit_lsn == report.begin_lsn
        db.close()

    def test_join_with_no_sweep_is_none(self, tmp_path):
        db = _make_db(str(tmp_path / "db"))
        assert db.auditor.join_background_sweep() is None
        db.close()


class TestSweepVerdicts:
    def test_corruption_before_sweep_is_convicted_at_join(self, tmp_path):
        db = _make_db(str(tmp_path / "db"))
        address = db.table("acct").record_address(3) + 8
        db.memory.poke(address, b"\x99" * 8)
        region = db.pipeline.codeword_table.region_of(address)
        assert db.auditor.start_background_sweep()
        report = db.auditor.join_background_sweep()
        assert not report.clean
        assert region in report.corrupt_regions
        db.close()

    def test_committed_update_mid_sweep_no_false_positive(self, tmp_path):
        db = _make_db(str(tmp_path / "db"))
        auditor = db.auditor
        maintainer = db.pipeline.maintainer
        assert auditor.start_background_sweep()
        # Mutate while the fold is (or was) racing memory: the touched
        # set forces a synchronous re-check of these regions at join.
        for slot in range(6):
            _touch(db, slot, 7000 + slot)
        assert maintainer.sweep_tracking
        report = auditor.join_background_sweep()
        assert report.clean
        assert not maintainer.sweep_tracking
        db.close()

    def test_corruption_after_fold_is_caught_by_next_sweep(self, tmp_path):
        """A sweep certifies the image as of its begin LSN.  A wild write
        landing after the fold has passed the region is invisible to
        *this* sweep (fold and stored codeword both predate it) -- the
        detection-latency bound is one full-sweep period, exactly as for
        the inline escalation."""
        db = _make_db(str(tmp_path / "db"))
        auditor = db.auditor
        assert auditor.start_background_sweep()
        auditor._sweep.handle.result()  # let the fold finish with the old bytes
        address = db.table("acct").record_address(5) + 8
        db.memory.poke(address, b"\xaa" * 8)
        region = db.pipeline.codeword_table.region_of(address)
        report = auditor.join_background_sweep()
        assert report.clean  # the sweep predates the corruption
        assert auditor.start_background_sweep()
        report = auditor.join_background_sweep()
        assert not report.clean and region in report.corrupt_regions
        db.close()


class TestCheckpointJoin:
    def test_checkpoint_joins_in_flight_sweep(self, tmp_path):
        db = _make_db(str(tmp_path / "db"))
        auditor = db.auditor
        assert auditor.start_background_sweep()
        result = db.checkpoint()
        assert result.certified
        assert auditor._sweep is None
        assert (
            result.audit_report.regions_checked
            == db.pipeline.codeword_table.region_count
        )
        db.close()

    def test_checkpoint_without_sweep_uses_dirty_pass(self, tmp_path):
        db = _make_db(str(tmp_path / "db"))
        _touch(db, 0, 42)
        result = db.checkpoint()
        assert result.certified
        assert (
            result.audit_report.regions_checked
            < db.pipeline.codeword_table.region_count
        )
        db.close()


class TestMeterIdentity:
    def test_join_charges_equal_synchronous_full_sweep(self, tmp_path):
        """On a quiescent database the background sweep's meter bill is
        identical to the inline full sweep's -- same latches, same fixed
        costs, same per-word fold charges."""
        deltas = {}
        for mode in ("background", "inline"):
            db = _make_db(
                str(tmp_path / mode), background=(mode == "background")
            )
            for slot in range(8):
                _touch(db, slot, 4000 + slot)
            before = dict(db.meter.counts)
            ns_before = db.meter.clock.now_ns
            if mode == "background":
                assert db.auditor.start_background_sweep()
                report = db.auditor.join_background_sweep()
            else:
                report = db.auditor.run()
            assert report.clean
            deltas[mode] = (
                {
                    event: count - before.get(event, 0)
                    for event, count in db.meter.counts.items()
                    if count != before.get(event, 0)
                },
                db.meter.clock.now_ns - ns_before,
            )
            db.close()
        assert deltas["background"] == deltas["inline"]


class TestShutdownAndRecovery:
    def test_close_abandons_in_flight_sweep(self, tmp_path):
        db = _make_db(str(tmp_path / "db"))
        assert db.auditor.start_background_sweep()
        db.close()  # must not raise or deadlock
        assert db.auditor._sweep is None

    def test_crash_with_unmatched_audit_begin_recovers(self, tmp_path):
        db = _make_db(str(tmp_path / "db"))
        _touch(db, 0, 77)
        db.checkpoint()
        assert db.auditor.start_background_sweep()
        db.crash()  # abandons the sweep: AUDIT_BEGIN with no AUDIT_END
        db2, _report = Database.recover(db.config)
        txn = db2.begin()
        assert db2.table("acct").read(txn, 0)["balance"] == 77
        db2.commit(txn)
        assert db2.audit().clean
        db2.close()


class TestConfigValidation:
    def test_background_requires_incremental_mode(self, tmp_path):
        from repro.errors import ConfigError

        config = DBConfig(
            dir=str(tmp_path / "bad"),
            scheme="data_cw",
            full_sweep_every=1,
            background_sweeps=True,
        )
        with pytest.raises(ConfigError):
            Database(config)
