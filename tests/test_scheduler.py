"""The runtime scheduler (``repro.runtime``).

Two families of guarantees:

* scheduler mechanics -- tick registration/dispatch, background handles
  in both modes, drain ordering, mode resolution;
* refactor purity -- a database whose deferred work runs through the
  deterministic scheduler is *meter-identical* to the pre-scheduler
  inline code (kept alive as the ``scheduler=None`` fallback inside
  ``TransactionManager``), property-tested over random workloads and
  group-commit windows.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database, DBConfig
from repro.errors import ConfigError
from repro.runtime.scheduler import (
    DETERMINISTIC,
    THREADED,
    InlineHandle,
    Scheduler,
    ThreadHandle,
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


class TestSchedulerMechanics:
    def test_tick_runs_subscribed_tasks_in_registration_order(self):
        sched = Scheduler(DETERMINISTIC)
        ran = []
        sched.register_tick("a", ("commit",), lambda e: ran.append(("a", e)))
        sched.register_tick("b", ("commit", "replay"), lambda e: ran.append(("b", e)))
        sched.register_tick("c", ("replay",), lambda e: ran.append(("c", e)))
        sched.tick("commit")
        sched.tick("replay")
        assert ran == [("a", "commit"), ("b", "commit"), ("b", "replay"), ("c", "replay")]
        assert sched.tick_count == 2

    def test_duplicate_or_unknown_tick_rejected(self):
        sched = Scheduler(DETERMINISTIC)
        sched.register_tick("t", ("commit",), lambda e: None)
        with pytest.raises(ConfigError):
            sched.register_tick("t", ("commit",), lambda e: None)
        with pytest.raises(ConfigError):
            sched.register_tick("u", ("no-such-event",), lambda e: None)

    def test_deterministic_spawn_defers_until_result(self):
        sched = Scheduler(DETERMINISTIC)
        ran = []
        handle = sched.spawn("work", lambda: ran.append(1) or 41 + 1)
        assert isinstance(handle, InlineHandle)
        assert ran == []  # nothing ran yet
        assert handle.result() == 42
        assert handle.result() == 42  # idempotent, runs once
        assert ran == [1]

    def test_threaded_spawn_runs_on_worker(self):
        sched = Scheduler(THREADED)
        handle = sched.spawn("work", lambda: 7)
        assert isinstance(handle, ThreadHandle)
        assert handle.result() == 7
        sched.shutdown()

    def test_deterministic_abandon_never_runs_the_work(self):
        sched = Scheduler(DETERMINISTIC)
        ran = []
        handle = sched.spawn("work", lambda: ran.append(1))
        handle.abandon()
        assert ran == []

    def test_duplicate_live_name_rejected(self):
        sched = Scheduler(DETERMINISTIC)
        sched.spawn("work", lambda: 1)
        with pytest.raises(ConfigError):
            sched.spawn("work", lambda: 2)

    def test_drain_runs_steps_in_order_and_settles_live_work(self):
        sched = Scheduler(DETERMINISTIC)
        ran = []
        sched.add_drain_step("first", on_close=lambda: ran.append("first"))
        sched.add_drain_step(
            "second",
            on_close=lambda: ran.append("second.close"),
            on_crash=lambda: ran.append("second.crash"),
        )
        leftover = sched.spawn("leftover", lambda: ran.append("never"))
        assert sched.drain() == ["first", "second"]
        assert ran == ["first", "second.close"]
        assert leftover.done  # abandoned, not run
        assert sched.live_background == ()
        assert sched.drain(crash=True) == ["second"]
        assert ran[-1] == "second.crash"

    def test_mode_resolution(self):
        assert resolve_scheduler_mode("auto", background_sweeps=False) == DETERMINISTIC
        assert resolve_scheduler_mode("auto", background_sweeps=True) == THREADED
        assert resolve_scheduler_mode("threaded", False) == THREADED
        assert resolve_scheduler_mode("deterministic", True) == DETERMINISTIC
        with pytest.raises(ConfigError):
            resolve_scheduler_mode("bogus", False)
        with pytest.raises(ConfigError):
            Scheduler("bogus")


class TestDatabaseWiring:
    def test_database_registers_runtime_tasks(self, tmp_path):
        db = make_db(tmp_path, "wiring")
        rows = {(info.name, info.kind) for info in db.scheduler.tasks()}
        assert ("group_commit.flush", "tick") in rows
        assert ("group_commit.flush", "drain") in rows
        assert ("audit.sweeps", "drain") in rows
        drain_names = [i.name for i in db.scheduler.tasks() if i.kind == "drain"]
        assert drain_names == ["group_commit.flush", "audit.sweeps"]
        db.close()

    def test_auto_mode_maps_to_modes(self, tmp_path):
        plain = make_db(tmp_path, "plain")
        assert plain.scheduler.mode == DETERMINISTIC
        sweeping = make_db(
            tmp_path, "sweeping", full_sweep_every=8, background_sweeps=True
        )
        assert sweeping.scheduler.mode == THREADED
        plain.close()
        sweeping.close()

    def test_commit_fires_the_commit_tick(self, tmp_path):
        db = make_db(tmp_path, "ticks")
        before = db.scheduler.tick_count
        insert_accounts(db, 2)
        assert db.scheduler.tick_count == before + 1  # one commit
        db.close()

    def test_deterministic_background_sweep_is_deferred_inline(self, tmp_path):
        """Explicit deterministic mode + background_sweeps: the fold is an
        InlineHandle that runs at the certification join -- same verdict,
        no threads."""
        db = make_db(
            tmp_path,
            "detsweep",
            scheme="data_codeword",
            full_sweep_every=2,
            background_sweeps=True,
            scheduler_mode="deterministic",
        )
        insert_accounts(db, 4)
        for _ in range(2):
            db.audit()  # second call hits the cadence -> sweep launched
        assert db.auditor._sweep is not None
        assert isinstance(db.auditor._sweep.handle, InlineHandle)
        assert not db.auditor._sweep.handle.done  # deferred, not yet run
        report = db.auditor.join_background_sweep()
        assert report is not None and report.clean
        db.close()


def run_workload(db: Database, deposits: list[int], abort_mask: int = 0) -> None:
    table = db.table("acct")
    for i, amount in enumerate(deposits):
        txn = db.begin()
        table.update(txn, i % 3, {"balance": 100 + amount})
        if abort_mask & (1 << i):
            db.abort(txn)
        else:
            db.commit(txn)


class TestMeterIdentity:
    """Deterministic scheduler vs the pre-refactor inline fallback."""

    @given(
        deposits=st.lists(st.integers(0, 1000), min_size=1, max_size=10),
        abort_mask=st.integers(0, 1023),
        group=st.sampled_from([1, 3, 4]),
    )
    @settings(max_examples=20, deadline=None)
    def test_scheduled_commit_path_is_meter_identical(
        self, deposits, abort_mask, group, tmp_path_factory
    ):
        base = tmp_path_factory.mktemp("meterid")
        scheduled = make_db(base, "scheduled", group_commit_size=group)
        legacy = make_db(base, "legacy", group_commit_size=group)
        # Sever the legacy manager from its scheduler: commit() falls back
        # to the historical inline group-commit flush -- the exact
        # pre-refactor code path.
        legacy.manager.scheduler = None
        for db in (scheduled, legacy):
            insert_accounts(db, 3)
        marks = {
            id(scheduled): scheduled.meter.snapshot(),
            id(legacy): legacy.meter.snapshot(),
        }

        def delta(db):
            mark = marks[id(db)]
            return {
                event: (count - mark.get(event, (0, 0))[0], ns - mark.get(event, (0, 0))[1])
                for event, (count, ns) in db.meter.snapshot().items()
                if (count, ns) != mark.get(event, (0, 0))
            }

        run_workload(scheduled, deposits, abort_mask)
        run_workload(legacy, deposits, abort_mask)
        assert delta(scheduled) == delta(legacy)
        scheduled.close()
        legacy.close()

    @given(deposits=st.lists(st.integers(0, 500), min_size=1, max_size=8))
    @settings(max_examples=10, deadline=None)
    def test_checkpoint_tick_is_meter_identical(self, deposits, tmp_path_factory):
        base = tmp_path_factory.mktemp("ckid")
        scheduled = make_db(base, "scheduled", scheme="data_codeword")
        legacy = make_db(base, "legacy", scheme="data_codeword")
        legacy.manager.scheduler = None
        for db in (scheduled, legacy):
            insert_accounts(db, 3)
        marks = {
            id(scheduled): scheduled.meter.snapshot(),
            id(legacy): legacy.meter.snapshot(),
        }

        def delta(db):
            mark = marks[id(db)]
            return {
                event: (count - mark.get(event, (0, 0))[0], ns - mark.get(event, (0, 0))[1])
                for event, (count, ns) in db.meter.snapshot().items()
                if (count, ns) != mark.get(event, (0, 0))
            }

        run_workload(scheduled, deposits)
        run_workload(legacy, deposits)
        assert scheduled.checkpoint().certified
        assert legacy.checkpoint().certified
        assert delta(scheduled) == delta(legacy)
        scheduled.close()
        legacy.close()
