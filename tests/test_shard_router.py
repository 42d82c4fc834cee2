"""The shard router: partitioning, quarantine isolation, the serve-protocol
front-end, and process-mode workers."""

from __future__ import annotations

import pytest

from repro import Field, FieldType, Schema
from repro.errors import LockError, QuarantinedRegionError
from repro.serve import Request, ShardServer
from repro.serve.protocol import DATA_OPS
from repro.shard import (
    PartitionSpec,
    ShardedConfig,
    ShardedDatabase,
    shard_capacity,
)

ACCOUNT_SCHEMA = Schema(
    [
        Field("aid", FieldType.INT64),
        Field("balance", FieldType.INT64),
    ]
)
TABLE_DEFS = [("account", ACCOUNT_SCHEMA, 64, "aid")]


def _make(tmp_path, name, n_shards=2, mode="inproc", branches=4, **kwargs):
    config = ShardedConfig(
        dir=str(tmp_path / name),
        n_shards=n_shards,
        mode=mode,
        branches=branches,
        scheme="data_codeword",
        **kwargs,
    )
    return ShardedDatabase.create(config, TABLE_DEFS), config


def _load_accounts(db, count=12, balance=100):
    for aid in range(count):
        db.submit_txn([("insert", "account", {"aid": aid, "balance": balance})])


class TestPartitionSpec:
    def test_branch_then_shard(self):
        spec = PartitionSpec(branches=4, n_shards=2)
        assert spec.shard_for_key("account", 5) == (5 % 4) % 2
        assert spec.shard_for_key("branch", 3) == 3 % 2
        assert spec.shard_for_row("history", {"bid": 2, "hid": 9}) == 0

    def test_single_branch_op_is_single_shard(self):
        spec = PartitionSpec(branches=8, n_shards=4)
        for b in range(8):
            shards = {
                spec.shard_for_key("account", b + 8 * 3),
                spec.shard_for_key("teller", b + 8 * 1),
                spec.shard_for_key("branch", b),
                spec.shard_for_row("history", {"bid": b}),
            }
            assert len(shards) == 1

    def test_capacity_exact_at_one_shard(self):
        assert shard_capacity(100, 1) == 100
        # With more shards: even split plus slack, never losing rows.
        assert shard_capacity(100, 4) >= 25
        assert shard_capacity(1, 4) >= 1

    def test_resharded_keeps_branch_mapping(self):
        spec = PartitionSpec(branches=6, n_shards=2)
        wider = spec.resharded(3)
        assert wider.branches == 6
        for key in range(12):
            assert spec.branch_for_key("account", key) == wider.branch_for_key(
                "account", key
            )


class TestRouting:
    def test_ops_group_by_shard(self, tmp_path):
        db, _ = _make(tmp_path, "split")
        groups = db._split(
            [
                ("add", "account", 0, {"balance": 1}),  # branch 0 -> shard 0
                ("add", "account", 1, {"balance": 1}),  # branch 1 -> shard 1
                ("add", "account", 2, {"balance": 1}),  # branch 2 -> shard 0
            ]
        )
        assert set(groups) == {0, 1}
        assert len(groups[0]) == 2 and len(groups[1]) == 1
        db.close()

    def test_op_and_session_route_each_field_role_alike(self, tmp_path):
        """One rule routes a row, a key and a tagged slot: a served
        request runs on the shard ``shard_for_op`` names for its tuple."""
        db, _ = _make(tmp_path, "roles")
        _load_accounts(db, count=4)
        with ShardServer(db) as server:
            session = server.open_session()
            assert server.submit(session, Request("begin")).ok
            for aid in range(4):
                slot = server.submit(
                    session, Request("lookup", table="account", key=aid)
                ).value
                for request in (
                    Request("insert", table="account",
                            values={"aid": aid + 4, "balance": 0}),
                    Request("lookup", table="account", key=aid),
                    Request("add", table="account", key=aid, values={"balance": 1}),
                    Request("read", table="account", slot=slot),
                    Request("update", table="account", slot=slot,
                            values={"balance": 5}),
                ):
                    op = (request.op,
                          *(getattr(request, f) for f in DATA_OPS[request.op]))
                    assert server.submit(session, request).ok, request
                    # account aid -> branch aid % 4 -> shard aid % 2
                    assert db.shard_for_op(op) == aid % 2, request
                    assert session.context.last_shard == aid % 2, request
            assert server.submit(session, Request("commit")).ok
        # each preloaded account ends at 5; the inserted ones stay at 0
        assert db.sum_field("account", "balance") == 4 * 5
        db.close()

    def test_row_counts_and_sums_merge_across_shards(self, tmp_path):
        db, _ = _make(tmp_path, "merge")
        _load_accounts(db, count=10, balance=7)
        assert db.row_count("account") == 10
        assert db.sum_field("account", "balance") == 70
        db.close()

    def test_pipelined_results_match_sync(self, tmp_path):
        db, _ = _make(tmp_path, "pipe")
        _load_accounts(db, count=8)
        for aid in range(8):
            db.submit_txn_nowait([("add", "account", aid, {"balance": aid})])
        db.drain()
        assert db.sum_field("account", "balance") == 8 * 100 + sum(range(8))
        db.close()


class TestQuarantineIsolation:
    """A wild write into one shard must not disturb the others."""

    def _corrupted(self, tmp_path, name, mode="inproc"):
        db, config = _make(
            tmp_path,
            name,
            mode=mode,
            quarantine=True,
            quarantine_repair=True,
            scheme_params={"region_size": 64},
        )
        _load_accounts(db, count=12)
        db.checkpoint_all()
        # aid 0 -> branch 0 -> shard 0; offset 8 is the balance field.
        address = db.wild_write("account", 0, 8, b"\xff" * 8)
        return db, config, address

    def test_audit_flags_only_the_victim_shard(self, tmp_path):
        db, _, address = self._corrupted(tmp_path, "flag")
        audits = db.audit_all()
        clean0, _regions0, ranges0 = audits[0]
        assert not clean0
        assert any(start <= address < start + length for start, length in ranges0)
        assert all(clean for clean, _, _ in audits[1:])
        db.close()

    def test_other_shard_serves_while_victim_quarantined(self, tmp_path):
        db, _, _ = self._corrupted(tmp_path, "serve")
        db.audit_all()  # quarantines the corrupt region on shard 0
        assert len(db.quarantined()[0]) > 0
        # Shard 1 (odd branches) keeps serving reads and writes.
        db.submit_txn([("add", "account", 1, {"balance": 11})])
        row = db.submit_txn([("query", "account", 1)])[0]
        assert row["balance"] == 111
        db.close()

    def test_repair_restores_and_recertifies(self, tmp_path):
        db, _, _ = self._corrupted(tmp_path, "repair")
        db.audit_all()
        assert db.repair_all() > 0
        assert all(clean for clean, _, _ in db.audit_all())
        row = db.submit_txn([("query", "account", 0)])[0]
        assert row["balance"] == 100  # checkpoint value restored
        db.close()


class TestShardRouterProtocol:
    """The repro/serve request/response front over a sharded database:
    a real ``ShardServer`` session, whose context is the ``ShardRouter``."""

    def _session(self, tmp_path, name):
        db, _ = _make(tmp_path, name)
        return db, ShardServer(db).open_session()

    def test_insert_lookup_query_roundtrip(self, tmp_path):
        db, session = self._session(tmp_path, "crud")
        assert session.execute(Request(op="begin")).ok
        slot = session.execute(
            Request(op="insert", table="account", values={"aid": 3, "balance": 9})
        ).value
        assert session.execute(Request(op="commit")).ok
        session.execute(Request(op="begin"))
        assert session.execute(Request(op="lookup", table="account", key=3)).value == slot
        row = session.execute(Request(op="query", table="account", key=3)).value
        assert row["balance"] == 9
        read = session.execute(Request(op="read", table="account", slot=slot)).value
        assert read["aid"] == 3
        session.execute(Request(op="commit"))
        db.close()

    def test_slot_tags_route_back_to_owning_shard(self, tmp_path):
        db, session = self._session(tmp_path, "slots")
        session.execute(Request(op="begin"))
        slots = {
            aid: session.execute(
                Request(op="insert", table="account", values={"aid": aid, "balance": 0})
            ).value
            for aid in range(4)
        }
        session.execute(Request(op="commit"))
        for aid, slot in slots.items():
            owner = db.partition.shard_for_key("account", aid)
            assert slot % db.config.n_shards == owner
            session.execute(Request(op="begin"))
            session.execute(
                Request(op="update", table="account", slot=slot, values={"balance": aid})
            )
            assert list(session.context.open_txns) == [owner]
            session.execute(Request(op="commit"))
        assert db.sum_field("account", "balance") == sum(range(4))
        db.close()

    def test_cross_shard_session_commits_atomically(self, tmp_path):
        db, session = self._session(tmp_path, "xshard")
        session.execute(Request(op="begin"))
        session.execute(
            Request(op="insert", table="account", values={"aid": 0, "balance": 1})
        )
        session.execute(
            Request(op="insert", table="account", values={"aid": 1, "balance": 2})
        )
        assert len(session.context.open_txns) == 2  # touched both shards
        assert session.execute(Request(op="commit")).ok
        assert len(db.decisions) == 1  # went through 2PC
        assert db.sum_field("account", "balance") == 3
        db.close()

    def test_abort_rolls_back_every_touched_shard(self, tmp_path):
        db, session = self._session(tmp_path, "abort")
        session.execute(Request(op="begin"))
        session.execute(
            Request(op="insert", table="account", values={"aid": 0, "balance": 1})
        )
        session.execute(
            Request(op="insert", table="account", values={"aid": 1, "balance": 2})
        )
        assert session.execute(Request(op="abort")).ok
        assert db.row_count("account") == 0
        db.close()

    def test_error_rolls_back_and_reports(self, tmp_path):
        db, session = self._session(tmp_path, "err")
        session.execute(Request(op="begin"))
        session.execute(
            Request(op="insert", table="account", values={"aid": 0, "balance": 1})
        )
        response = session.execute(Request(op="query", table="nope", key=1))
        assert not response.ok
        assert response.error == "ConfigError"
        assert not session.in_txn  # the error rolled the transaction back
        assert db.row_count("account") == 0
        db.close()

    def test_ops_require_begin(self, tmp_path):
        db, session = self._session(tmp_path, "nobegin")
        response = session.execute(Request(op="query", table="account", key=1))
        assert not response.ok
        assert response.error == "ServeError"
        assert "begin" in response.detail
        db.close()


class TestProcessMode:
    """One worker process per shard; kept small (one spawn per test)."""

    def test_roundtrip_and_audit(self, tmp_path):
        db, _ = _make(tmp_path, "proc", mode="process")
        try:
            _load_accounts(db, count=8)
            db.submit_txn([("add", "account", 3, {"balance": 23})])
            assert db.submit_txn([("query", "account", 3)])[0]["balance"] == 123
            assert db.sum_field("account", "balance") == 8 * 100 + 23
            assert all(clean for clean, _, _ in db.audit_all())
        finally:
            db.close()

    def test_crash_shard_then_parallel_recover(self, tmp_path):
        db, config = _make(tmp_path, "crashrec", mode="process")
        _load_accounts(db, count=8)
        db.call_all(("flush",))
        db.crash()
        recovered, reports = ShardedDatabase.recover(config)
        try:
            assert len(reports) == 2
            assert all("recovery_cpu_s" in r for r in reports)
            assert all(r["phase_seconds"]["frames"] > 0 for r in reports)
            assert recovered.sum_field("account", "balance") == 8 * 100
            assert all(clean for clean, _, _ in recovered.audit_all())
        finally:
            recovered.close()

    def test_quarantined_read_keeps_its_region_ids(self, tmp_path):
        """Errors cross the worker pipe as objects: structured fields
        arrive intact (they used to be rebuilt from the message text)."""
        db, _ = _make(
            tmp_path, "proc-quarantine", mode="process",
            quarantine=True, scheme_params={"region_size": 64},
        )
        try:
            _load_accounts(db, count=4)
            db.wild_write("account", 0, 8, b"\xff" * 8)
            (clean, regions, _ranges), _other = db.audit_all()
            assert not clean
            with pytest.raises(QuarantinedRegionError) as raised:
                db.submit_txn([("query", "account", 0)])
            assert raised.value.region_ids == list(regions)
            assert str(raised.value).startswith("[shard 0] ")
            assert not raised.value.retryable
        finally:
            db.close()

    def test_lock_conflict_carries_the_holder_txn_id(self, tmp_path):
        db, _ = _make(tmp_path, "proc-conflict", mode="process")
        try:
            _load_accounts(db, count=4)
            with ShardServer(db) as server:
                holder = server.open_session()
                waiter = server.open_session()
                update = Request(
                    "update", table="account", slot=0, values={"balance": 1}
                )
                assert server.submit(holder, Request("begin")).ok
                assert server.submit(waiter, Request("begin")).ok
                assert server.submit(holder, update).ok
                denied = server.submit(waiter, update)
                assert (denied.error, denied.retryable) == ("LockError", True)
                # The typed holder id reached the detector: a wait-for edge.
                assert server.graph.edges() == {
                    waiter.session_id: (holder.session_id,)
                }
                with pytest.raises(LockError) as raised:
                    db.shard_call(
                        0,
                        ("apply", waiter.context.open_txns[0], "update",
                         "account", 0, {"balance": 1}),
                    )
                assert raised.value.holder_txn_id == holder.context.open_txns[0]
        finally:
            db.close()
