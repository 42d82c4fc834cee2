"""Opening shards: every ``DBConfig`` setting reaches each shard, and the
one opener refuses what a mode cannot honour."""

from __future__ import annotations

import os
from dataclasses import replace

import pytest

from repro import CrashPointRegistry, Field, FieldType, Schema
from repro.errors import ConfigError
from repro.recovery.history import check_conflict_consistent
from repro.shard import ShardedConfig, ShardedDatabase

ACCOUNT_SCHEMA = Schema(
    [
        Field("aid", FieldType.INT64),
        Field("balance", FieldType.INT64),
    ]
)
TABLE_DEFS = [("account", ACCOUNT_SCHEMA, 32, "aid")]
TRANSFER = [
    ("add", "account", 0, {"balance": -30}),
    ("add", "account", 1, {"balance": 30}),
]


def _funded(config: ShardedConfig) -> ShardedDatabase:
    """Two shards, one account each (aid 0 on shard 0, aid 1 on shard 1)."""
    db = ShardedDatabase.create(config, TABLE_DEFS)
    for aid in (0, 1):
        db.submit_txn([("insert", "account", {"aid": aid, "balance": 100})])
    return db


def _config(tmp_path, name: str, **kwargs) -> ShardedConfig:
    return ShardedConfig(dir=str(tmp_path / name), n_shards=2, branches=2, **kwargs)


class TestSettingsReachEveryShard:
    def test_record_history(self, tmp_path):
        db = _funded(_config(tmp_path, "history", record_history=True))
        db.submit_txn(TRANSFER)  # cross-shard: one 2PC branch per shard
        for shard in db.shards:
            history = shard.core.db.history
            transfer = history.events[-1]
            assert (transfer.kind, transfer.table) == ("w", "account")
            assert transfer.txn_id in history.committed
            assert check_conflict_consistent(history, set()) == []
        db.close()

    def test_mmap_image_path_is_per_shard(self, tmp_path):
        image = tmp_path / "image"
        config = _config(
            tmp_path, "mmap", image_backing="mmap", image_path=str(image)
        )
        db = _funded(config)
        db.submit_txn(TRANSFER)
        assert sorted(os.listdir(image)) == ["shard-00", "shard-01"]
        for sid, shard in enumerate(db.shards):
            backing = image / f"shard-{sid:02d}"
            assert shard.core.db.config.image_path == str(backing)
            assert "account.data.seg" in os.listdir(backing)
        assert db.sum_field("account", "balance") == 200
        assert all(clean for clean, _, _ in db.audit_all())
        db.close()


class TestProcessShardsRefuseCrashPoints:
    """A worker process cannot see the caller's registry: an armed point
    would never fire, so the opener refuses it instead of dropping it."""

    def test_create(self, tmp_path):
        config = _config(tmp_path, "create", mode="process")
        with pytest.raises(ConfigError, match="inproc"):
            ShardedDatabase.create(
                config,
                TABLE_DEFS,
                shard_crashpoints=[CrashPointRegistry(), CrashPointRegistry()],
            )

    def test_recover(self, tmp_path):
        config = _config(tmp_path, "recover")
        _funded(config).close()
        with pytest.raises(ConfigError, match="inproc"):
            ShardedDatabase.recover(
                replace(config, mode="process"),
                shard_crashpoints=[CrashPointRegistry(), CrashPointRegistry()],
            )
