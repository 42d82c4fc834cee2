"""The 2PC coordinator: gid epochs, one delivery attempt, redelivery.

The crash matrix and the "committed but undelivered" contract live in
``tests/test_twopc.py``, the incarnation fence and the restart side of
decision repair in ``tests/test_supervisor.py``.  These pin what only
the coordinator decides: which epoch a new incarnation mints gids
under, that a commit decision is handed to a participant once and never
slept on in the caller's commit, and the backoff of the one redelivery
queue.
"""

from __future__ import annotations

import os
import time

import pytest

from repro import Field, FieldType, Schema
from repro.shard import ShardedConfig, ShardedDatabase, ShardSupervisor
from repro.shard.coordinator import (
    DECISION_LOG_FILE,
    EPOCH_FILE,
    REPAIR_BACKOFF_CAP_S,
    DecisionLog,
)

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


def _build(tmp_path, name: str) -> tuple[ShardedDatabase, ShardedConfig]:
    config = ShardedConfig(
        dir=str(tmp_path / name),
        n_shards=2,
        mode="inproc",
        branches=2,
        scheme="data_codeword",
    )
    db = ShardedDatabase.create(config, [("account", ACCOUNT_SCHEMA, 32, "aid")])
    # aid 0 -> shard 0, aid 1 -> shard 1.
    db.submit_txn([("insert", "account", {"aid": 0, "balance": 100})])
    db.submit_txn([("insert", "account", {"aid": 1, "balance": 100})])
    return db, config


def _balances(db: ShardedDatabase) -> tuple[int, int]:
    a = db.submit_txn([("query", "account", 0)])[0]["balance"]
    b = db.submit_txn([("query", "account", 1)])[0]["balance"]
    return a, b


def _fail_decides(handle, calls: list):
    """Make ``handle`` lose every decide (a non-crash transport failure);
    returns the original ``call``."""
    original = handle.call

    def failing(cmd, timeout=None):
        if cmd[0] == "decide":
            calls.append(cmd)
            raise RuntimeError("lost response")
        return original(cmd, timeout=timeout)

    handle.call = failing
    return original


class TestGidEpoch:
    LOGGED = [f"g{epoch}.{seq}" for epoch in (1, 2, 3) for seq in range(1, 8)]

    @pytest.mark.parametrize("epoch_file", ["missing", "empty", "stale"])
    def test_first_gid_is_not_in_the_decision_log(self, tmp_path, epoch_file):
        """A crash that tears the epoch bump (or loses the file) must not
        send the next incarnation back to a committed gid: the decision
        log is the floor."""
        db, config = _build(tmp_path, epoch_file)
        db.close()
        log = DecisionLog(os.path.join(config.dir, DECISION_LOG_FILE))
        for gid in self.LOGGED:
            log.append(gid)
        log.close()
        epoch_path = os.path.join(config.dir, EPOCH_FILE)
        if epoch_file == "missing":
            os.remove(epoch_path)
        else:
            with open(epoch_path, "w", encoding="utf-8") as handle:
                handle.write("" if epoch_file == "empty" else "2\n")

        db, _ = ShardedDatabase.recover(config)
        gid = db.coordinator.new_gid()
        assert gid not in self.LOGGED
        assert int(gid[1:].split(".")[0]) > 3
        with open(epoch_path, encoding="utf-8") as handle:
            assert handle.read() == f"{db.coordinator.epoch}\n"
        db.close()


class TestDelivery:
    def test_failed_decide_is_queued_after_one_attempt(self, tmp_path, monkeypatch):
        """Supervised, a decide that fails without a crash is tried once:
        the caller's commit answers success at once (no backoff sleep),
        the gid waits in the queue, and the next tick delivers it."""
        db, _ = _build(tmp_path, "one-attempt")
        supervisor = ShardSupervisor(db).attach()
        slept: list = []
        monkeypatch.setattr(time, "sleep", slept.append)
        calls: list = []
        original = _fail_decides(db.shards[0], calls)

        db.submit_txn(TRANSFER)  # no exception: committed

        assert len(calls) == 1
        assert slept == []
        assert len(db.decisions) == 1
        assert list(db.coordinator.pending.values()) == [(0,)]
        monkeypatch.undo()
        db.shards[0].call = original
        result = supervisor.tick()
        assert result["decisions_delivered"] == 1
        assert db.coordinator.pending == {}
        assert _balances(db) == (70, 130)
        db.close()

    def test_redelivery_backoff_defers_retry(self, tmp_path, monkeypatch):
        db, _ = _build(tmp_path, "backoff")
        ShardSupervisor(db).attach()
        calls: list = []
        # The coordinator's clock stands still unless the test moves it.
        now = [time.monotonic()]
        monkeypatch.setattr("repro.shard.coordinator.time.monotonic", lambda: now[0])
        original = _fail_decides(db.shards[0], calls)
        db.coordinator.queue("g2.2", [0])
        assert db.coordinator.redeliver() == 0
        assert len(calls) == 1
        # Non-crash failure: the entry stays queued with a future retry time.
        assert db.coordinator.pending == {"g2.2": (0,)}
        db.coordinator.redeliver()  # inside backoff -> no new attempt
        assert len(calls) == 1
        db.shards[0].call = original
        now[0] += REPAIR_BACKOFF_CAP_S  # past any backoff
        assert db.coordinator.redeliver() == 1
        assert db.coordinator.pending == {}
        monkeypatch.undo()
        db.close()
