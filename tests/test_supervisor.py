"""The shard supervisor: crash detection, certified restart, in-doubt
decision repair, degraded-mode serving, and the wait-for graph.

Inproc shards make the lifecycle deterministic (``crash_shard`` is the
exact stand-in for a dead worker); a small set of process-mode tests
covers the real thing -- SIGKILLed workers, hung workers detected by
pipe timeout, and heartbeat probes.
"""

from __future__ import annotations

import time
from types import SimpleNamespace

import pytest

from repro import Field, FieldType, Schema
from repro.errors import (
    ShardTimeoutError,
    ShardUnavailableError,
    TwoPhaseCommitError,
)
from repro.faults.workers import hang_worker, kill_worker
from repro.shard import (
    ShardSupervisor,
    ShardedConfig,
    ShardedDatabase,
    SupervisorConfig,
    WaitForGraph,
)
from repro.shard.supervisor import DOWN, RECOVERING, SERVING
from tests.gate_probe import until

ACCOUNT_SCHEMA = Schema(
    [
        Field("aid", FieldType.INT64),
        Field("balance", FieldType.INT64),
    ]
)

TRANSFER = [
    ("add", "account", 0, {"balance": -30}),
    ("add", "account", 1, {"balance": 30}),
]


def _build(tmp_path, name: str, mode: str = "inproc",
           config: SupervisorConfig | None = None):
    sharded = ShardedConfig(
        dir=str(tmp_path / name),
        n_shards=2,
        mode=mode,
        branches=2,
        scheme="data_codeword",
    )
    db = ShardedDatabase.create(sharded, [("account", ACCOUNT_SCHEMA, 32, "aid")])
    db.submit_txn([("insert", "account", {"aid": 0, "balance": 100})])
    db.submit_txn([("insert", "account", {"aid": 1, "balance": 100})])
    supervisor = ShardSupervisor(db, config or SupervisorConfig()).attach()
    return db, supervisor


def _balances(db) -> tuple[int, int]:
    a = db.submit_txn([("query", "account", 0)])[0]["balance"]
    b = db.submit_txn([("query", "account", 1)])[0]["balance"]
    return a, b


class TestWaitForGraph:
    def test_no_cycle(self):
        graph = WaitForGraph()
        graph.add(1, 2)
        graph.add(2, 3)
        assert graph.cycle_from(1) is None

    def test_two_cycle(self):
        graph = WaitForGraph()
        graph.add(1, 2)
        graph.add(2, 1)
        assert graph.cycle_from(1) == (1, 2)
        assert graph.cycle_from(2) == (2, 1)

    def test_three_cycle(self):
        graph = WaitForGraph()
        graph.add(1, 2)
        graph.add(2, 3)
        graph.add(3, 1)
        assert graph.cycle_from(1) == (1, 2, 3)

    def test_self_edge_ignored(self):
        graph = WaitForGraph()
        graph.add(1, 1)
        assert graph.cycle_from(1) is None

    def test_clear_waiter_breaks_cycle(self):
        graph = WaitForGraph()
        graph.add(1, 2)
        graph.add(2, 1)
        graph.clear_waiter(2)
        assert graph.cycle_from(1) is None

    def test_clear_holder_breaks_cycle(self):
        graph = WaitForGraph()
        graph.add(1, 2)
        graph.add(2, 1)
        graph.clear_holder(1)
        assert graph.cycle_from(1) is None
        assert graph.edges() == {1: (2,)}


class TestCrashDetectionAndRestart:
    def test_routed_call_reports_crash_and_fails_fast(self, tmp_path):
        db, supervisor = _build(tmp_path, "report")
        db.crash_shard(1)
        # The next routed call discovers the death, reports it, and the
        # caller gets the fail-fast retryable error -- not ShardCrashed.
        with pytest.raises(ShardUnavailableError) as err:
            db.submit_txn([("query", "account", 1)])
        assert err.value.retryable
        assert supervisor.state_of(1) == RECOVERING
        # Surviving shard serves throughout.
        assert db.submit_txn([("query", "account", 0)])[0]["balance"] == 100
        db.close()

    def test_heartbeat_detects_silent_death(self, tmp_path):
        db, supervisor = _build(tmp_path, "heartbeat")
        db.crash_shard(0)
        assert supervisor.state_of(0) == SERVING  # not yet noticed
        supervisor.tick()
        # One tick: heartbeat flags it AND the restart pass recovers it.
        assert supervisor.heartbeat_failures == 1
        assert supervisor.state_of(0) == SERVING
        assert _balances(db) == (100, 100)
        db.close()

    def test_restart_recovers_committed_state(self, tmp_path):
        db, supervisor = _build(tmp_path, "restart")
        db.submit_txn(TRANSFER)
        db.crash_shard(1)
        supervisor.tick()
        assert supervisor.state_of(1) == SERVING
        assert _balances(db) == (70, 130)
        assert supervisor.summary()["restarts"] == 1
        db.close()

    def test_stale_crash_report_ignored(self, tmp_path):
        db, supervisor = _build(tmp_path, "stale")
        old_handle = db.shards[0]
        db.crash_shard(0)
        supervisor.tick()  # restarts; db.shards[0] is a new handle
        supervisor.report_crash(0, old_handle, reason="stale")
        assert supervisor.state_of(0) == SERVING
        db.close()

    def test_max_restarts_parks_shard_down(self, tmp_path):
        db, supervisor = _build(
            tmp_path, "down", config=SupervisorConfig(max_restarts=2)
        )
        db.crash_shard(1)
        supervisor.report_crash(1, db.shards[1], reason="test")

        def broken(shard_id):
            raise RuntimeError("recovery keeps failing")

        supervisor._recover_handle = broken
        supervisor.tick()
        supervisor.tick()
        assert supervisor.state_of(1) == RECOVERING  # still trying
        supervisor.tick()
        assert supervisor.state_of(1) == DOWN
        with pytest.raises(ShardUnavailableError) as err:
            db.submit_txn([("query", "account", 1)])
        assert err.value.state == "down"
        # The survivor still serves; heal() reports the node degraded.
        assert db.submit_txn([("query", "account", 0)])[0]["balance"] == 100
        assert supervisor.heal(timeout_s=0.2) is False
        db.close()

    def test_unavailability_window_recorded(self, tmp_path):
        db, supervisor = _build(tmp_path, "window")
        db.crash_shard(0)
        supervisor.report_crash(0, db.shards[0], reason="test")
        assert len(supervisor.unavailability_windows(0)) == 1  # open
        supervisor.tick()
        windows = supervisor.unavailability_windows(0)
        assert len(windows) == 1
        start, end = windows[0]
        assert end >= start
        shard_summary = supervisor.summary()["shards"][0]
        assert shard_summary["unavailability_windows"] == 1
        assert shard_summary["state"] == SERVING
        db.close()

    def test_crashed_database_is_not_revived(self, tmp_path):
        """A crashed node stays down: crash() stops scheduled ticks, and
        a manual tick opens no shard of a closed database (the owner may
        be about to reopen the directory)."""
        db, supervisor = _build(tmp_path, "no-revive")
        supervisor.start()
        handles = list(db.shards)
        db.crash()
        assert supervisor.tick() == {"skipped": True}
        assert db.shards == handles
        assert not any(handle.is_alive() for handle in db.shards)
        assert supervisor.summary()["restarts"] == 0

    def test_detach_restores_unsupervised_contract(self, tmp_path):
        from repro.shard.shard import ShardCrashed

        db, supervisor = _build(tmp_path, "detach")
        supervisor.detach()
        assert db.supervisor is None
        db.crash_shard(1)
        with pytest.raises(ShardCrashed):
            db.submit_txn([("query", "account", 1)])
        db.close()


class TestDecisionRepair:
    def test_pending_decision_delivered_to_serving_shard(self, tmp_path):
        db, supervisor = _build(tmp_path, "repair")
        # A decide for an unknown gid answers "unknown" (already
        # resolved), which counts as delivered.
        db.coordinator.queue("g9.9", [0])
        assert db.coordinator.pending == {"g9.9": (0,)}
        result = supervisor.tick()
        assert result["decisions_delivered"] == 1
        assert db.coordinator.pending == {}
        assert supervisor.summary()["decisions_repaired"] == 1
        db.close()

    def test_restart_resolves_pending_decisions(self, tmp_path):
        db, supervisor = _build(tmp_path, "restart-repair")
        # The decision is durable (that is the only way a delivery can
        # be pending), so the restart's snapshot contains it and the
        # rejoin cleanup may drop the entry.
        db.decisions.append("g1.1")
        db.crash_shard(1)
        supervisor.report_crash(1, db.shards[1], reason="test")
        db.coordinator.queue("g1.1", [1])
        supervisor.tick()  # restart path drops the shard's pending entry
        assert supervisor.state_of(1) == SERVING
        assert db.coordinator.pending == {}
        db.close()

    def test_rejoin_keeps_decisions_newer_than_snapshot(self, tmp_path):
        """A decision fsync'd *after* a restart's snapshot was read must
        survive the rejoin cleanup: that restart's recovery never saw
        it, so only the coordinator's redelivery (to the new
        incarnation) can settle it."""
        db, supervisor = _build(tmp_path, "rejoin-fresh")
        db.crash_shard(1)
        supervisor.report_crash(1, db.shards[1], reason="test")

        original = supervisor._recover_handle

        def recover_then_decide(shard_id):
            handle_and_snapshot = original(shard_id)
            # Appended after the snapshot read: simulates a concurrent
            # coordinator landing a decision mid-recovery.
            db.decisions.append("g7.7")
            db.coordinator.queue("g7.7", [1])
            return handle_and_snapshot

        supervisor._recover_handle = recover_then_decide
        supervisor._restart_pass()
        supervisor._recover_handle = original
        assert supervisor.state_of(1) == SERVING
        # Not dropped by the rejoin; the redelivery pass delivers it.
        assert db.coordinator.pending == {"g7.7": (1,)}
        supervisor.tick()
        assert db.coordinator.pending == {}
        db.close()


class TestIncarnationFence:
    """The commit decision must be fenced on participant incarnation: a
    participant restarted between its prepare and the decision resolved
    the branch against a decision-log snapshot that predates the
    decision, so committing anyway would ack a transaction whose branch
    is already rolled back (REVIEW: restart recovery racing a live
    coordinator)."""

    def test_restart_between_prepare_and_decision_aborts(self, tmp_path):
        db, supervisor = _build(tmp_path, "fence")
        original = db.shards[1].call

        def racing(cmd, timeout=None):
            result = original(cmd, timeout=timeout)
            if cmd[0] == "txn_prepare":
                # The participant dies right after voting yes and its
                # restart completes -- snapshot read, branch presumed
                # aborted -- before the coordinator reaches a decision.
                db.shards[1].call = original
                db.crash_shard(1)
                supervisor.report_crash(1, db.shards[1], reason="race")
                supervisor.tick()
            return result

        db.shards[1].call = racing
        with pytest.raises(TwoPhaseCommitError) as err:
            db.submit_txn(TRANSFER)
        # Presumed abort, not a phantom commit: nothing durable names
        # the gid and both branches rolled back.
        assert err.value.retryable
        assert not err.value.committed
        assert len(db.decisions) == 0
        assert supervisor.state_of(1) == SERVING
        assert _balances(db) == (100, 100)
        # The retry (new incarnation prepared the branch) commits.
        db.submit_txn(TRANSFER)
        assert _balances(db) == (70, 130)
        assert len(db.decisions) == 1
        db.close()

    def test_recovering_participant_fences_decision(self, tmp_path):
        db, supervisor = _build(tmp_path, "fence-recovering")
        original = db.shards[1].call

        def racing(cmd, timeout=None):
            result = original(cmd, timeout=timeout)
            if cmd[0] == "txn_prepare":
                # Crash detected but restart not yet run: the shard is
                # RECOVERING at decision time, which must also fence.
                db.shards[1].call = original
                db.crash_shard(1)
                supervisor.report_crash(1, db.shards[1], reason="race")
            return result

        db.shards[1].call = racing
        with pytest.raises(TwoPhaseCommitError) as err:
            db.submit_txn(TRANSFER)
        assert err.value.retryable
        assert len(db.decisions) == 0
        assert supervisor.heal(timeout_s=10.0)
        assert _balances(db) == (100, 100)
        db.close()


class TestSupervisedDrain:
    def test_drain_reports_lost_backlog(self, tmp_path):
        from repro.errors import PartialDrainError
        from repro.shard.shard import ShardCrashed

        db, supervisor = _build(tmp_path, "drain-loss")
        db.submit_txn_nowait([("query", "account", 0)])
        db.submit_txn_nowait([("query", "account", 1)])
        db.submit_txn_nowait([("query", "account", 1)])

        def dead_drain(timeout=None):
            raise ShardCrashed(1, "worker-death", 0)

        db.shards[1].drain = dead_drain
        with pytest.raises(PartialDrainError) as err:
            db.drain()
        # The surviving shard's answers arrive; the crashed shard's
        # backlog is named and counted, not silently dropped.
        assert err.value.retryable
        assert len(err.value.results) == 1
        assert err.value.lost == {1: 2}
        assert supervisor.state_of(1) == RECOVERING
        supervisor.tick()
        assert supervisor.state_of(1) == SERVING
        db.close()


class TestProcessMode:
    """The real thing: SIGKILLed and hung worker processes."""

    def _config(self) -> SupervisorConfig:
        return SupervisorConfig(
            heartbeat_timeout_s=0.5,
            call_timeout_s=1.0,
            prepare_timeout_s=1.0,
            restart_timeout_s=60.0,
        )

    def test_killed_worker_restarts_and_serves(self, tmp_path):
        db, supervisor = _build(
            tmp_path, "kill", mode="process", config=self._config()
        )
        try:
            db.submit_txn(TRANSFER)
            kill_worker(db, 1)
            with pytest.raises(ShardUnavailableError):
                db.submit_txn([("query", "account", 1)])
            assert supervisor.state_of(1) == RECOVERING
            # Survivor keeps serving while the victim restarts.
            assert db.submit_txn([("query", "account", 0)])[0]["balance"] == 70
            assert supervisor.heal(timeout_s=60.0)
            assert _balances(db) == (70, 130)
            assert supervisor.summary()["restarts"] == 1
        finally:
            supervisor.detach()
            db.close()

    def test_hung_worker_times_out_and_restarts(self, tmp_path):
        db, supervisor = _build(
            tmp_path, "hang", mode="process", config=self._config()
        )
        try:
            hang_worker(db, 1, seconds=3.0)
            began = time.monotonic()
            with pytest.raises(ShardUnavailableError):
                db.submit_txn([("query", "account", 1)])
            # Deadline, not the full hang: detection must not wait the
            # sleep out.
            assert time.monotonic() - began < 2.5
            assert supervisor.state_of(1) == RECOVERING
            assert supervisor.heal(timeout_s=60.0)
            assert _balances(db) == (100, 100)
        finally:
            supervisor.detach()
            db.close()

    def test_heartbeat_detects_hung_backlog(self, tmp_path, monkeypatch):
        """A worker that hangs while a pipelined backlog is in flight
        must be caught by heartbeat alone: no later timed call touches
        the shard, so only the probe's backlog-progress watch can see
        that the backlog stopped shrinking (REVIEW: probe returned
        alive whenever _outstanding > 0)."""
        db, supervisor = _build(
            tmp_path, "hang-idle", mode="process", config=self._config()
        )
        # The probe's stall clock stands still unless the test moves it
        # (only the shard module's clock: pipe polls keep real time).
        now = [time.monotonic()]
        monkeypatch.setattr(
            "repro.shard.shard.time", SimpleNamespace(monotonic=lambda: now[0])
        )
        try:
            hang_worker(db, 1, seconds=60.0)
            supervisor.tick()  # the backlog makes no progress: watched
            assert supervisor.heartbeat_failures == 0
            window = self._config().heartbeat_timeout_s
            now[0] += window / 2
            supervisor.tick()  # still none, but inside the window
            assert supervisor.heartbeat_failures == 0
            now[0] += window
            supervisor.tick()  # past it: convicted, restarted this tick
            assert supervisor.heartbeat_failures == 1
            assert supervisor.summary()["restarts"] == 1
            assert supervisor.state_of(1) == SERVING
            assert _balances(db) == (100, 100)
        finally:
            supervisor.detach()
            db.close()

    def test_timeout_poisons_pipe(self, tmp_path):
        sharded = ShardedConfig(
            dir=str(tmp_path / "poison"),
            n_shards=1,
            mode="process",
            branches=1,
            scheme="data_codeword",
        )
        db = ShardedDatabase.create(
            sharded, [("account", ACCOUNT_SCHEMA, 32, "aid")]
        )
        try:
            db.shards[0].call_nowait(("hang", 2.0))
            with pytest.raises(ShardTimeoutError) as err:
                db.shards[0].call(("ping",), timeout=0.2)
            assert err.value.retryable
            assert not db.shards[0].is_alive()  # poisoned
        finally:
            db.crash()

    def test_scheduled_ticks_heal_without_manual_intervention(self, tmp_path):
        db, supervisor = _build(
            tmp_path, "auto", mode="process", config=self._config()
        )
        supervisor.start()
        try:
            kill_worker(db, 0)
            until(
                lambda: supervisor.summary()["restarts"] >= 1
                and supervisor.state_of(0) == SERVING,
                "a scheduled tick to restart shard 0",
            )
            assert _balances(db) == (100, 100)
        finally:
            supervisor.detach()
            db.close()

    def test_closed_database_is_not_revived(self, tmp_path):
        db, supervisor = _build(
            tmp_path, "closed", mode="process", config=self._config()
        )
        handles = list(db.shards)
        db.close()
        # A heartbeat would find both workers gone and restart them.
        assert supervisor.tick() == {"skipped": True}
        assert db.shards == handles
        assert not any(handle.is_alive() for handle in db.shards)
