"""Deferred work: the interval ticker, the mode knob and the sweep fold.

* ``repro.runtime.scheduler`` -- the ``"interval"`` ticker the shard
  supervisor runs on, and the resolution of ``DBConfig.scheduler_mode``;
* the auditor's background sweep fold in both forms: *deferred* (runs at
  join, never on abandon) and *threaded* (runs on a worker thread);
* the group-commit flush a commit runs inline when the window fills.
"""

from __future__ import annotations

import threading

import pytest

from repro import Database, DBConfig
from repro.errors import ConfigError
from repro.runtime.scheduler import (
    DETERMINISTIC,
    THREADED,
    Scheduler,
    resolve_scheduler_mode,
)

from tests.conftest import ACCT_SCHEMA, insert_accounts


def make_db(base, name, **config_kwargs) -> Database:
    config_kwargs.setdefault("scheme", "baseline")
    config = DBConfig(dir=str(base / name), **config_kwargs)
    db = Database(config)
    db.create_table("acct", ACCT_SCHEMA, 64, key_field="id")
    db.start()
    return db


def sweeping_db(base, name, mode) -> tuple[Database, list[str]]:
    """A background-sweep database whose fold records the thread it ran on."""
    db = make_db(
        base,
        name,
        scheme="data_codeword",
        full_sweep_every=2,
        background_sweeps=True,
        scheduler_mode=mode,
    )
    insert_accounts(db, 4)
    db.auditor.abandon_background_sweep()  # one startup certification may be in flight
    table = db.pipeline.codeword_table
    fold_all = table.fold_all
    ran: list[str] = []

    def recording_fold():
        ran.append(threading.current_thread().name)
        return fold_all()

    table.fold_all = recording_fold
    return db, ran


class TestSchedulerMechanics:
    def test_tick_runs_subscribed_tasks_in_registration_order(self):
        sched = Scheduler(tick_interval_s=3600)  # the ticker never fires here
        ran = []
        sched.register_tick("a", ("interval",), lambda e: ran.append(("a", e)))
        sched.register_tick("b", ("interval",), lambda e: ran.append(("b", e)))
        sched.tick("interval")
        sched.tick("interval")
        sched.shutdown()
        assert ran == [("a", "interval"), ("b", "interval")] * 2

    def test_duplicate_or_unknown_tick_rejected(self):
        sched = Scheduler(tick_interval_s=3600)
        sched.register_tick("t", ("interval",), lambda e: None)
        with pytest.raises(ConfigError):
            sched.register_tick("t", ("interval",), lambda e: None)
        for event in ("commit", "replay", "no-such-event"):
            with pytest.raises(ConfigError):
                sched.register_tick("u", (event,), lambda e: None)
        sched.shutdown()

    def test_threaded_ticker_runs_interval_tasks_until_shutdown(self):
        sched = Scheduler(tick_interval_s=0.001)
        fired = threading.Event()
        threads = []

        def task(event):
            threads.append(threading.current_thread().name)
            fired.set()

        sched.register_tick("t", ("interval",), task)
        assert fired.wait(5)
        sched.shutdown()
        settled = len(threads)
        assert set(threads) == {"scheduler-ticker"}
        sched.register_tick("late", ("interval",), task)  # no ticker restarts
        assert len(threads) == settled

    def test_deterministic_spawn_defers_until_result(self, tmp_path):
        db, ran = sweeping_db(tmp_path, "deferred", DETERMINISTIC)
        assert db.auditor.start_background_sweep()
        assert ran == []  # nothing ran yet
        first = db.auditor._sweep.handle.result()
        assert db.auditor._sweep.handle.result() is first  # runs once
        assert ran == [threading.current_thread().name]
        assert db.auditor.join_background_sweep().clean
        assert len(ran) == 1
        db.close()

    def test_threaded_spawn_runs_on_worker(self, tmp_path):
        db, ran = sweeping_db(tmp_path, "threaded", THREADED)
        assert db.auditor.start_background_sweep()
        assert db.auditor.join_background_sweep().clean
        assert len(ran) == 1
        assert ran[0].startswith("audit.sweep.")
        assert ran[0] != threading.current_thread().name
        db.close()

    def test_deterministic_abandon_never_runs_the_work(self, tmp_path):
        db, ran = sweeping_db(tmp_path, "abandon", DETERMINISTIC)
        assert db.auditor.start_background_sweep()
        db.auditor.abandon_background_sweep()
        assert db.auditor._sweep is None
        assert ran == []
        db.close()
        assert ran == []

    def test_duplicate_live_name_rejected(self, tmp_path):
        """A second sweep is refused while one is in flight."""
        db, ran = sweeping_db(tmp_path, "twice", DETERMINISTIC)
        assert db.auditor.start_background_sweep()
        in_flight = db.auditor._sweep
        assert not db.auditor.start_background_sweep()
        assert db.auditor._sweep is in_flight
        assert db.auditor.join_background_sweep().clean
        assert len(ran) == 1
        db.close()

    def test_drain_runs_steps_in_order_and_settles_live_work(self, tmp_path):
        """close flushes the group-commit window, then settles the sweep."""
        db, ran = sweeping_db(tmp_path, "drain", DETERMINISTIC)
        steps = []
        for owner, name in ((db.manager, "flush_commits"), (db.auditor, "close")):
            step = getattr(owner, name)
            setattr(owner, name, lambda step=step, name=name: steps.append(name) or step())
        assert db.auditor.start_background_sweep()
        db.close()
        db.close()
        assert steps == ["flush_commits", "close"]
        assert db.auditor._sweep is None
        assert ran == []  # abandoned, not run

    def test_mode_resolution(self):
        assert resolve_scheduler_mode("auto", background_sweeps=False) == DETERMINISTIC
        assert resolve_scheduler_mode("auto", background_sweeps=True) == THREADED
        assert resolve_scheduler_mode("threaded", False) == THREADED
        assert resolve_scheduler_mode("deterministic", True) == DETERMINISTIC
        with pytest.raises(ConfigError):
            resolve_scheduler_mode("bogus", False)


class TestDatabaseWiring:
    def test_database_has_no_scheduler(self, tmp_path):
        db = make_db(tmp_path, "wiring")
        assert not hasattr(db, "scheduler")
        assert not hasattr(db.manager, "scheduler")
        db.close()

    def test_auto_mode_maps_to_modes(self, tmp_path):
        plain = make_db(tmp_path, "plain")
        assert not plain.auditor.threaded
        sweeping = make_db(
            tmp_path, "sweeping", full_sweep_every=8, background_sweeps=True
        )
        assert sweeping.auditor.threaded
        forced = make_db(tmp_path, "forced", scheduler_mode="threaded")
        assert forced.auditor.threaded
        plain.close()
        sweeping.close()
        forced.close()

    def test_commit_flushes_a_full_window_inline(self, tmp_path):
        db = make_db(tmp_path, "window", group_commit_size=3)
        slots = insert_accounts(db, 3)
        db.manager.flush_commits()
        table = db.table("acct")

        def flushes():
            return db.meter.snapshot().get("flush_fixed", (0, 0))[0]

        before = flushes()
        for i in range(3):
            txn = db.begin()
            table.update(txn, slots[i], {"balance": i})
            db.commit(txn)
            assert flushes() == before + (i == 2)
            assert bool(db.system_log.tail) == (i < 2)
        db.close()

    def test_deterministic_background_sweep_is_deferred_inline(self, tmp_path):
        """Explicit deterministic mode + background_sweeps: the fold runs
        at the certification join -- same verdict, no threads."""
        db, ran = sweeping_db(tmp_path, "detsweep", DETERMINISTIC)
        for _ in range(2):
            db.audit()  # second call hits the cadence -> sweep launched
        assert db.auditor._sweep is not None
        assert ran == []  # deferred, not yet run
        report = db.auditor.join_background_sweep()
        assert report is not None and report.clean
        assert ran == [threading.current_thread().name]
        db.close()
