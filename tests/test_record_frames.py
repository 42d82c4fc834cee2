"""Log records are stable-log frames from birth: identity with the record path.

Two kinds of evidence hold the frame-packed logging path to the path it
replaced, where every record was a dataclass encoded frame by frame at
flush:

* **Golden digests.**  Seeded in-process runs of five shapes -- the
  paper's (``data_cw``, 500-op transactions), the read mix
  (``precheck+read_logging``, 64-byte regions), the served shape (12
  requests per op through ``Server``), a 2-shard ``ShardedDatabase``
  with cross-shard 2PC commits, and ``cw_read_logging`` with read
  checksums -- pin the SHA-256 of the stable log, every meter count and
  nanosecond, the virtual clock and a digest of the codeword table.  The
  pinned values were recorded with the record-per-dataclass logging path.
* **Frame identity.**  A hypothesis property drives random histories
  through one database and rebuilds the stable log from the decoded
  records with ``pack_record`` and dense LSNs; the bytes must match,
  the ``tail`` / ``records`` views must decode to the expected records,
  and the read-log charges must be the read-record count and size sum.
"""

from __future__ import annotations

import hashlib
import json
import os
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import Database, DBConfig, Field, FieldType, Schema
from repro.bench.tpcb import (
    ACCOUNT_SCHEMA,
    BRANCH_SCHEMA,
    HISTORY_SCHEMA,
    TELLER_SCHEMA,
)
from repro.serve import Request, Server
from repro.shard import ShardedConfig, ShardedDatabase
from repro.shard.coordinator import DECISION_LOG_FILE
from repro.core.codeword import fold_words
from repro.errors import SimulatedCrash
from repro.storage.database import LOG_FILE
from repro.wal.records import (
    LogicalUndo,
    OpBeginRecord,
    OpCommitRecord,
    ReadRecord,
    TxnAbortRecord,
    TxnCommitRecord,
    UpdateRecord,
    pack_record,
)

ACCOUNTS, TELLERS, BRANCHES = 200, 20, 4


def _tpcb_tables(history: int) -> list[tuple]:
    return [
        ("account", ACCOUNT_SCHEMA, ACCOUNTS, "aid"),
        ("teller", TELLER_SCHEMA, TELLERS, "tid"),
        ("branch", BRANCH_SCHEMA, BRANCHES, "bid"),
        ("history", HISTORY_SCHEMA, history, "hid"),
    ]


def _initial_rows():
    for bid in range(BRANCHES):
        yield "branch", {"bid": bid, "balance": 0}
    for tid in range(TELLERS):
        yield "teller", {"tid": tid, "branch_id": tid % BRANCHES, "balance": 0}
    for aid in range(ACCOUNTS):
        yield "account", {"aid": aid, "branch_id": aid % BRANCHES, "balance": 0}


def _loaded(path, scheme: str, history: int, **params) -> Database:
    db = Database(DBConfig(dir=str(path), scheme=scheme, scheme_params=params))
    for name, schema, capacity, key_field in _tpcb_tables(history):
        db.create_table(name, schema, capacity, key_field=key_field)
    db.start()
    txn = db.begin()
    for table, row in _initial_rows():
        db.table(table).insert(txn, row)
    db.commit(txn)
    return db


def _ops(seed: int, count: int, read_share: float):
    rng = random.Random(seed)
    for hid in range(count):
        aid = rng.randrange(ACCOUNTS)
        tid = rng.randrange(TELLERS)
        delta = rng.randint(-999, 999)
        yield rng.random() < read_share, aid, tid, tid % BRANCHES, delta, hid


def _tpcb_op(db: Database, txn, op) -> None:
    enquiry, aid, tid, bid, delta, hid = op
    db.meter.charge("base_operation")
    keyed = [
        (db.table(name), key)
        for name, key in (("account", aid), ("teller", tid), ("branch", bid))
    ]
    if enquiry:
        for table, key in keyed:
            table.read(txn, table.lookup(txn, key))
        return
    for table, key in keyed:
        table.update(txn, table.lookup(txn, key), {"balance": lambda cur: cur + delta})
    db.table("history").insert(
        txn, {"hid": hid, "aid": aid, "tid": tid, "bid": bid, "delta": delta}
    )


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digest(db: Database) -> dict:
    """Stable log, meter, clock and codeword table of one database."""
    with open(db.path(LOG_FILE), "rb") as handle:
        log = handle.read()
    meter = json.dumps(db.meter.snapshot(), sort_keys=True).encode()
    table = db.pipeline.codeword_table
    words = table.stored_words.tobytes() if table is not None else b""
    return {
        "log_sha256": _sha(log),
        "log_bytes": len(log),
        "meter_sha256": _sha(meter),
        "clock_ns": db.clock.now_ns,
        "codewords_sha256": _sha(words),
    }


# ------------------------------------------------------------ the shapes


def run_paper(path) -> dict:
    """``data_cw``, 500-op transactions."""
    db = _loaded(path, "data_cw", 1200)
    ops = list(_ops(1, 1000, 0.0))
    for start in range(0, len(ops), 500):
        txn = db.begin()
        for op in ops[start : start + 500]:
            _tpcb_op(db, txn, op)
        db.commit(txn)
    try:
        return _digest(db)
    finally:
        db.close()


def _one_op_txns(db: Database, seed: int, count: int, read_share: float) -> None:
    for op in _ops(seed, count, read_share):
        txn = db.begin()
        _tpcb_op(db, txn, op)
        db.commit(txn)


def run_readmix(path) -> dict:
    """``precheck+read_logging`` at 64-byte regions, half enquiries."""
    db = _loaded(path, "precheck+read_logging", 400, region_size=64)
    _one_op_txns(db, 2, 300, 0.5)
    try:
        return _digest(db)
    finally:
        db.close()


def run_cw_read_logging(path) -> dict:
    """Read logging with read checksums (and old-image checksums on writes)."""
    db = _loaded(path, "cw_read_logging", 400)
    _one_op_txns(db, 3, 300, 0.5)
    try:
        return _digest(db)
    finally:
        db.close()


def run_served(path) -> dict:
    """12 requests per op through ``Server``: begin, 3 x (lookup, read,
    update), insert, commit."""
    db = _loaded(path, "data_cw", 400)
    server = Server(db, queue_depth=8, workers=1)
    try:
        session = server.open_session()

        def send(op, **fields):
            response = server.submit(session, Request(op, **fields))
            assert response.ok, (op, response.error, response.detail)
            return response.value

        for _enquiry, aid, tid, bid, delta, hid in _ops(4, 200, 0.0):
            db.meter.charge("base_operation")
            send("begin")
            for table, key in (("account", aid), ("teller", tid), ("branch", bid)):
                slot = send("lookup", table=table, key=key)
                row = send("read", table=table, slot=slot)
                values = {"balance": row["balance"] + delta}
                send("update", table=table, slot=slot, values=values)
            send(
                "insert",
                table="history",
                values={"hid": hid, "aid": aid, "tid": tid, "bid": bid, "delta": delta},
            )
            send("commit")
    finally:
        server.close()
    try:
        return _digest(db)
    finally:
        db.close()


def run_sharded(path) -> dict:
    """Two in-process shards; a transaction whose rows live on both
    commits through 2PC (most do: teller and branch keys are drawn apart
    from the account, and every fourth account is moved to the other
    shard)."""
    config = ShardedConfig(
        dir=str(path), n_shards=2, mode="inproc", branches=BRANCHES, scheme="data_cw"
    )
    sdb = ShardedDatabase.create(config, _tpcb_tables(400))
    try:
        batches: dict[int, list] = {0: [], 1: []}
        for table, row in _initial_rows():
            op = ("insert", table, row)
            batches[sdb.shard_for_op(op)].append(op)
        for batch in batches.values():
            sdb.submit_txn(batch)
        for enquiry, aid, tid, bid, delta, hid in _ops(5, 200, 0.25):
            if hid % 4 == 0:  # an account of the other shard: cross-shard
                aid = aid - aid % BRANCHES + (bid + 1) % BRANCHES
            if enquiry:
                ops = [("query", "account", aid), ("query", "teller", tid)]
            else:
                row = {"hid": hid, "aid": aid, "tid": tid, "bid": bid, "delta": delta}
                ops = [
                    ("add", "account", aid, {"balance": delta}),
                    ("add", "teller", tid, {"balance": delta}),
                    ("add", "branch", bid, {"balance": delta}),
                    ("insert", "history", row),
                ]
            sdb.submit_txn(ops)
        shards = {
            f"shard{i}": _digest(shard.core.db) for i, shard in enumerate(sdb.shards)
        }
        with open(os.path.join(config.dir, DECISION_LOG_FILE), "rb") as handle:
            shards["decisions_sha256"] = _sha(handle.read())
        shards["decisions"] = len(sdb.decisions)
        return shards
    finally:
        sdb.close()


SHAPES = {
    "paper": run_paper,
    "readmix": run_readmix,
    "served": run_served,
    "sharded": run_sharded,
    "cw_read_logging": run_cw_read_logging,
}

#: Recorded with the record-per-dataclass logging path (each record a
#: frozen dataclass, encoded frame by frame at flush).
GOLDEN: dict[str, dict] = {
    "cw_read_logging": {
        "log_sha256": "3fccf21222aa6297b18720d0ee0925b770990f4f3e5b9a02e038851380f6fff4",
        "log_bytes": 591397,
        "meter_sha256": "db273ef932dea0f5aedb45706b101986b06551f8d311b31ee2a15307fcafe97b",
        "clock_ns": 976185581,
        "codewords_sha256": "806da26c8574b5c1d33e4c07d3e4cf5f5fce7f03279f9a07d06edb65bfbd8eea"
    },
    "paper": {
        "log_sha256": "d5e5f88b3ff2ffc68fe324d8a7355b51089cfa66571d9d08da1865eb5ac0d3a2",
        "log_bytes": 1269885,
        "meter_sha256": "26831990b107f566a2010a5910c8d23e35c4143ab4c7402bcf1d0794d12c5634",
        "clock_ns": 2672881565,
        "codewords_sha256": "9c6876a4d4d92e3c17890a6977926118378917414d9c8fe08ef4478f7d985faa"
    },
    "readmix": {
        "log_sha256": "b208afe05b3f7945ad274c0c1b348b21898ce513bd9b3b08c6ad90c94fa9e946",
        "log_bytes": 593620,
        "meter_sha256": "4fcd05f34abb1940e8c843fe3827fb38e5e7ff98e2b20d2970acdaa3c2fd8bc8",
        "clock_ns": 964293110,
        "codewords_sha256": "d7b71c2b9ddacb2baa5dbae842b27e1e8cd282d3524ef45795ef358585cd957f"
    },
    "served": {
        "log_sha256": "b00fc34c90aa9755617c6ca3ffd2244f1c86101ba007797ddf7dc1793d97135f",
        "log_bytes": 363271,
        "meter_sha256": "354e3b3bc91f55d7315d5b46eede40ff72f6d35d24053f5ec214c0bcb4033c43",
        "clock_ns": 610263483,
        "codewords_sha256": "0ae0faab896389f4c9659b1dead180a91bb337d471d01550954da2daaa4d060b"
    },
    "sharded": {
        "shard0": {
            "log_sha256": "1ca3fe806e7323a8175061802088a3894fbcab91e71b640dd4ab4143f06ef59b",
            "log_bytes": 150794,
            "meter_sha256": "fa467f72072f163f0ad8eb827103afcf70635b7c9a307d5869917f2f46dc1417",
            "clock_ns": 94503442,
            "codewords_sha256": "c2c2b8cc7829d2a9c7dc7c876fed0ad6121eab565fed62f05e24955fc6d4abc3"
        },
        "shard1": {
            "log_sha256": "221594e2d4b78e19c5bc84ba2849c1444f183ea22356f1b9529b9bee4531d846",
            "log_bytes": 169462,
            "meter_sha256": "1eb56bda7018940c2756d4d3e17d4e6a4845cefa2db65429a8dcd091b657cae5",
            "clock_ns": 103245066,
            "codewords_sha256": "6209a05e537ad0226879ecca0d970eb304cfa53a5f6524e1eaa48be05cfed750"
        },
        "decisions_sha256": "ac012d8d48a6866ad6a3cbafbcb7281e0fbaaa116a4f4f95d28d1d2c85850676",
        "decisions": 130
    }
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_golden_digests(tmp_path, shape):
    assert SHAPES[shape](tmp_path / shape) == GOLDEN[shape]


# ------------------------------------------------------- frame identity

ACCT = Schema(
    [
        Field("id", FieldType.INT64),
        Field("balance", FieldType.INT64),
        Field("name", FieldType.CHAR, 16),
    ]
)
KEYS = st.integers(0, 7)
PRELOADED = range(5)  # committed before the actions run
ACTIONS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), KEYS),
        st.tuples(st.just("update"), KEYS, st.integers(-50, 50)),
        st.tuples(st.just("delete"), KEYS),
        st.tuples(st.just("read"), KEYS),  # outside any operation
        st.tuples(st.just("op_read"), KEYS),  # inside an operation that commits
        st.tuples(st.just("op_abort"), KEYS),  # reads and writes, then aborts
        st.just(("commit",)),
        st.just(("abort",)),
    ),
    max_size=30,
)


def _reference(pairs) -> bytes:
    """Stable-log bytes of ``(lsn, record)`` pairs, built record by record."""
    buf = bytearray()
    for lsn, record in pairs:
        pack_record(record, buf, lsn)
    return bytes(buf)


def _stable(db: Database) -> tuple[bytes, list]:
    with open(db.path(LOG_FILE), "rb") as handle:
        data = handle.read()
    return data, list(db.system_log.scan())


class _Run:
    """One database driven by an action list, with the expectations the
    frames must meet checked as it goes."""

    def __init__(self, path, scheme: str) -> None:
        config = DBConfig(dir=str(path), scheme=scheme, scheme_params={"region_size": 64})
        self.db = Database(config)
        self.db.create_table("acct", ACCT, 16, key_field="id")
        self.db.start()
        self.table = self.db.table("acct")
        self.checksums = self.db.pipeline.logs_read_checksums
        self.live: dict[int, int] = {}
        self.txn = None
        self.discarded_reads: list[ReadRecord] = []
        for key in PRELOADED:
            self.step(("insert", key))
        self.step(("commit",))

    def _read_record(self, slot: int) -> ReadRecord:
        address = self.table.record_address(slot)
        size = ACCT.record_size
        checksum = None
        if self.checksums:
            checksum = fold_words(self.db.memory.read(address, size))
        return ReadRecord(self.txn.txn_id, address, size, checksum)

    def _begin(self):
        if self.txn is None:
            self.txn = self.db.begin()
            self.live_at_begin = dict(self.live)
        return self.txn

    def _end(self, commit: bool) -> None:
        if self.txn is None:
            return
        log = self.db.system_log
        end = log.end_of_stable_lsn
        pending = log.tail
        txn_id = self.txn.txn_id
        if commit:
            self.db.commit(self.txn)
        else:
            self.db.abort(self.txn)
            self.live = self.live_at_begin
        self.txn = None
        flushed = [(lsn, r) for lsn, r in _stable(self.db)[1] if lsn >= end]
        # The tail view decoded to exactly the frames that reached disk.
        assert flushed[: len(pending)] == pending
        if commit:
            commit_lsn = pending[-1][0] + 1 if pending else end
            assert flushed[len(pending) :] == [(commit_lsn, TxnCommitRecord(txn_id))]
        else:
            assert flushed[-1][1] == TxnAbortRecord(txn_id)

    def step(self, action) -> None:
        kind, *args = action
        if kind in ("commit", "abort"):
            self._end(kind == "commit")
            return
        key = args[0]
        txn = self._begin()
        mgr = self.db.manager
        slot = self.live.get(key)
        if kind == "insert":
            if slot is None:
                row = {"id": key, "balance": 0, "name": "k"}
                self.live[key] = self.table.insert(txn, row)
            return
        if slot is None:
            return
        if kind == "update":
            delta = args[1]
            self.table.update(txn, slot, {"balance": lambda current: current + delta})
        elif kind == "delete":
            self.table.delete(txn, slot)
            del self.live[key]
        elif kind == "read":
            expected = self._read_record(slot)
            self.table.read(txn, slot)
            # Packed straight into the tail, not staged in the local log.
            assert self.db.system_log.tail[-1][1] == expected
            assert txn.redo_log.records == []
        elif kind == "op_read":
            op = mgr.begin_operation(txn, f"probe:{key}")
            expected = self._read_record(slot)
            mgr.read(txn, expected.address, expected.length)
            staged = txn.redo_log.records
            assert staged == [expected]
            mgr.commit_operation(txn, LogicalUndo("noop"))
            tail = [record for _lsn, record in self.db.system_log.tail]
            key_fields = (txn.txn_id, op.op_id, op.level, op.object_key)
            assert tail[-3:] == [
                OpBeginRecord(*key_fields),
                *staged,
                OpCommitRecord(*key_fields, LogicalUndo("noop")),
            ]
        elif kind == "op_abort":
            mgr.begin_operation(txn, f"scratch:{key}")
            expected = self._read_record(slot)
            mgr.read(txn, expected.address, expected.length)
            mgr.update(txn, expected.address + 8, b"\x5a" * 8)
            staged = txn.redo_log.records
            assert staged[0] == expected and isinstance(staged[1], UpdateRecord)
            assert staged[1].image == b"\x5a" * 8
            self.discarded_reads.extend(r for r in staged if isinstance(r, ReadRecord))
            mgr.abort_operation(txn)
            assert txn.redo_log.records == []

    def finish(self, torn: float | None) -> None:
        db = self.db
        log = db.system_log
        data, stable = _stable(db)
        assert data == _reference(stable)
        tail = log.tail
        read_records = [r for _l, r in stable + tail if isinstance(r, ReadRecord)]
        read_records += self.discarded_reads
        counts = db.meter.counts
        assert counts["readlog_record"] == len(read_records)
        assert counts["readlog_byte"] == sum(r.approx_size() for r in read_records)
        if torn is None or self.txn is None:
            db.close()
            return
        # A torn flush: the surviving bytes are a prefix of the frames the
        # flush was writing, past everything flushed before.
        expected = stable + tail + [(log.next_lsn, TxnCommitRecord(self.txn.txn_id))]
        db.crashpoints.arm("wal.flush.mid", keep_fraction=torn)
        with pytest.raises(SimulatedCrash):
            db.commit(self.txn)
        db.crash()
        with open(db.path(LOG_FILE), "rb") as handle:
            torn_data = handle.read()
        assert len(data) <= len(torn_data) < len(_reference(expected))
        assert _reference(expected).startswith(torn_data)


@pytest.mark.parametrize("scheme", ["precheck+read_logging", "cw_read_logging"])
@settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(actions=ACTIONS, torn=st.none() | st.floats(0.05, 0.95))
def test_frames_match_their_records(tmp_path_factory, scheme, actions, torn):
    run = _Run(tmp_path_factory.mktemp("frames"), scheme)
    try:
        for action in actions:
            run.step(action)
    except BaseException:
        run.db.close()
        raise
    run.finish(torn)


if __name__ == "__main__":  # print the digests of this tree
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        digests = {
            name: run(os.path.join(scratch, name)) for name, run in sorted(SHAPES.items())
        }
        print(json.dumps(digests, indent=4))
