"""Sharding identity properties.

Two invariants make the shard engine trustworthy as a *transparent*
scale-out of the single protected store:

* **N=1 identity** -- a one-shard sharded database run through the
  router is byte-identical (memory image) and meter-identical (virtual
  cost accounting) to the plain unsharded ``Database`` executing the
  same transactions.  ``shard_capacity(total, 1) == total`` makes the
  layouts comparable; everything else has to follow from the router
  adding zero work on the single-shard fast path.
* **Reshard invariance** -- the same transaction stream applied at any
  shard count folds to the same per-table content digest (an XOR over
  ``fold_words`` of every live record, so it is order- and
  placement-independent), and every shard's audit is clean.
"""

from __future__ import annotations

import shutil

from hypothesis import HealthCheck, given, settings, strategies as st

from repro import Database, DBConfig, Field, FieldType, Schema
from repro.core.codeword import fold_words
from repro.serve import Request, Server, ShardServer
from repro.shard import ShardedConfig, ShardedDatabase

SLOW = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)

ACCOUNT_SCHEMA = Schema(
    [
        Field("aid", FieldType.INT64),
        Field("balance", FieldType.INT64),
    ]
)
TABLE_DEFS = [("account", ACCOUNT_SCHEMA, 48, "aid")]
BRANCHES = 6
KEYS = list(range(12))

# Transactions over pre-inserted keys: balance adds and point reads, as
# data-op tuples.  (Overwrites through the router are covered by the
# served identity's ``update`` requests below.)
txn_ops = st.lists(
    st.one_of(
        st.builds(
            lambda key, delta: ("add", "account", key, {"balance": delta}),
            st.sampled_from(KEYS),
            st.integers(-1000, 1000),
        ),
        st.builds(lambda key: ("query", "account", key), st.sampled_from(KEYS)),
    ),
    min_size=1,
    max_size=6,
)
scripts = st.lists(txn_ops, min_size=1, max_size=8)


def _fresh_sharded(tmp_path, sub: str, n_shards: int) -> ShardedDatabase:
    path = tmp_path / sub
    if path.exists():
        shutil.rmtree(path)
    config = ShardedConfig(
        dir=str(path),
        n_shards=n_shards,
        mode="inproc",
        branches=BRANCHES,
        scheme="data_codeword",
    )
    db = ShardedDatabase.create(config, TABLE_DEFS)
    for key in KEYS:
        db.submit_txn([("insert", "account", {"aid": key, "balance": 100})])
    return db


def _run_sharded(db: ShardedDatabase, script: list[list[tuple]]) -> None:
    for ops in script:
        db.submit_txn(ops)


def _fresh_unsharded(tmp_path, sub: str) -> Database:
    path = tmp_path / sub
    if path.exists():
        shutil.rmtree(path)
    # Mirror ShardedConfig.db_config(0) knob-for-knob so only the
    # routing layer differs between the two executions.
    config = DBConfig(dir=str(path), scheme="data_codeword")
    db = Database(config)
    for name, schema, capacity, key_field in TABLE_DEFS:
        db.create_table(name, schema, capacity, key_field=key_field)
    db.start()
    table = db.table("account")
    # One insert per transaction: the same cadence the sharded side's
    # per-key submit_txn produces, so the WAL/image states stay aligned.
    for key in KEYS:
        txn = db.begin()
        table.insert(txn, {"aid": key, "balance": 100})
        db.commit(txn)
    return db


def _run_unsharded(db: Database, script: list[list[tuple]]) -> None:
    """The same transactions as plain ``Table`` calls, without the router."""
    table = db.table("account")
    for ops in script:
        txn = db.begin()
        for kind, _table, key, *values in ops:
            slot = table.lookup(txn, key)
            if kind == "add":
                delta = values[0]["balance"]
                table.update(txn, slot, {"balance": lambda cur: cur + delta})
            else:
                table.read(txn, slot)
        db.commit(txn)


def _content_digest(db: Database) -> dict[str, int]:
    digests: dict[str, int] = {}
    txn = db.begin()
    try:
        for name, table in db.tables.items():
            acc = 0
            for slot in table.scan_slots(txn):
                acc ^= fold_words(table.read_bytes(txn, slot))
            digests[name] = acc
    finally:
        db.commit(txn)
    return digests


class TestSingleShardIdentity:
    """N=1 through the router == the plain Database, byte for byte."""

    @SLOW
    @given(script=scripts)
    def test_image_and_meter_identical(self, tmp_path, script):
        sharded = _fresh_sharded(tmp_path, "sharded", n_shards=1)
        plain = _fresh_unsharded(tmp_path, "plain")
        try:
            # The single-shard insert path differs from the mirror's only
            # in commit batching, so the *post-script* comparison uses the
            # same per-txn commit cadence on both sides.
            _run_sharded(sharded, script)
            _run_unsharded(plain, script)
            (shard_segments,) = sharded.call_all(("snapshot",))
            assert shard_segments == plain.memory.snapshot_segments()
            (shard_digest,) = sharded.call_all(("content_digest",))
            assert shard_digest == _content_digest(plain)
        finally:
            sharded.close()
            plain.close()

    @SLOW
    @given(script=scripts)
    def test_meter_charges_identical(self, tmp_path, script):
        """The router adds no virtual cost on the single-shard path:
        per-event charge counts after the same script are identical."""
        sharded = _fresh_sharded(tmp_path, "sharded-m", n_shards=1)
        plain = _fresh_unsharded(tmp_path, "plain-m")
        try:
            before_shard = sharded.meters()[0]
            before_plain = plain.meter.snapshot()
            _run_sharded(sharded, script)
            _run_unsharded(plain, script)
            after_shard = sharded.meters()[0]
            after_plain = plain.meter.snapshot()

            def delta(after, before):
                return {
                    event: (
                        counts[0] - before.get(event, (0, 0))[0],
                        counts[1] - before.get(event, (0, 0))[1],
                    )
                    for event, counts in after.items()
                    if counts != before.get(event, (0, 0))
                }

            assert delta(after_shard, before_shard) == delta(
                after_plain, before_plain
            )
        finally:
            sharded.close()
            plain.close()


class TestReshardInvariance:
    """The same content folds to the same digest at any shard count."""

    @SLOW
    @given(script=scripts)
    def test_content_digest_reshard_invariant(self, tmp_path, script):
        digests = []
        balances = []
        for n_shards in (1, 2, 3):
            db = _fresh_sharded(tmp_path, f"n{n_shards}", n_shards=n_shards)
            try:
                _run_sharded(db, script)
                digests.append(db.content_digest())
                balances.append(db.sum_field("account", "balance"))
                audits = db.audit_all()
                assert all(clean for clean, _, _ in audits), (
                    f"audit not clean at n_shards={n_shards}"
                )
            finally:
                db.close()
        assert digests[0] == digests[1] == digests[2]
        assert balances[0] == balances[1] == balances[2]


# ------------------------------------------------- served N=1 identity
#
# The request-protocol twin of TestSingleShardIdentity: the same script
# of serve requests through ``Server(Database)`` and through
# ``ShardServer`` over a one-shard database.  A transaction is a list of
# data requests closed by ``commit`` or ``abort``; an op that fails rolls
# the transaction back on both fronts, so the rest of it is skipped.
# Every transaction has at least one data request: the sharded front
# opens its branch lazily, so an empty transaction costs it nothing.

SLOTS = list(range(20))  # 12 preloaded + room for inserts + free slots
NEW_KEYS = list(range(20))  # overlaps KEYS: duplicate inserts must fail alike

data_requests = st.one_of(
    st.builds(
        lambda key, balance: Request(
            "insert", table="account", values={"aid": key, "balance": balance}
        ),
        st.sampled_from(NEW_KEYS),
        st.integers(0, 10_000),
    ),
    st.builds(
        lambda op, key: Request(op, table="account", key=key),
        st.sampled_from(["lookup", "query"]),
        st.sampled_from(NEW_KEYS),
    ),
    st.builds(
        lambda op, slot: Request(op, table="account", slot=slot),
        st.sampled_from(["read", "delete"]),
        st.sampled_from(SLOTS),
    ),
    st.builds(
        lambda slot, balance: Request(
            "update", table="account", slot=slot, values={"balance": balance}
        ),
        st.sampled_from(SLOTS),
        st.integers(0, 10_000),
    ),
    st.builds(
        lambda key, delta: Request(
            "add", table="account", key=key, values={"balance": delta}
        ),
        st.sampled_from(NEW_KEYS),
        st.integers(-1000, 1000),
    ),
)
served_scripts = st.lists(
    st.tuples(
        st.lists(data_requests, min_size=1, max_size=6),
        st.sampled_from(["commit", "abort"]),
    ),
    min_size=1,
    max_size=8,
)


class TestServedSingleShardIdentity:
    """N=1 behind ``ShardServer`` == ``Server(Database)``, request for request."""

    @SLOW
    @given(script=served_scripts)
    def test_responses_image_and_meter_identical(self, tmp_path, script):
        sharded = _fresh_sharded(tmp_path, "served-sharded", n_shards=1)
        plain = _fresh_unsharded(tmp_path, "served-plain")
        try:
            with Server(plain) as plain_server, ShardServer(sharded) as shard_server:
                plain_session = plain_server.open_session()
                shard_session = shard_server.open_session()

                def both(request: Request) -> bool:
                    mine = plain_server.submit(plain_session, request)
                    theirs = shard_server.submit(shard_session, request)
                    assert (mine.ok, mine.error) == (theirs.ok, theirs.error), (
                        request, mine, theirs,
                    )
                    if request.table is not None:
                        # Slot tags are the identity at N=1.
                        assert mine.value == theirs.value, (request, mine, theirs)
                    return mine.ok

                for requests, ending in script:
                    assert both(Request("begin"))
                    if all(both(request) for request in requests):
                        assert both(Request(ending))
            (shard_segments,) = sharded.call_all(("snapshot",))
            assert shard_segments == plain.memory.snapshot_segments()
            assert sharded.meters()[0] == plain.meter.snapshot()
        finally:
            sharded.close()
            plain.close()
