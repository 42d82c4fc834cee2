"""The deployment shapes under test, each behind the same small surface.

A shape knows how to create + load + checkpoint its database, hand out
its closed-loop client, report the counters the metrics are
built from (virtual clock, stable log bytes, image bytes, meter), crash,
and recover a copy of its directory.  Everything goes through ``repro``'s
public API; the TPC-B operation itself is spelled out here (not taken
from ``repro.bench.TPCBWorkload``) so the program under test receives
only the generated op tuples.
"""

from __future__ import annotations

import os
import time

from repro.bench.tpcb import (
    ACCOUNT_SCHEMA,
    BRANCH_SCHEMA,
    HISTORY_SCHEMA,
    TELLER_SCHEMA,
)
from repro.core.schemes import make_scheme
from repro.faults.injector import FaultInjector
from repro.serve import Request, Server, ShardServer
from repro.shard.router import DECISION_LOG_FILE, ShardedConfig, ShardedDatabase
from repro.sim.costs import DEFAULT_COSTS
from repro.storage.database import LOG_FILE, Database, DBConfig

from benchmarks.e2e.loadgen import ENQUIRY
from benchmarks.e2e.spans import CONTROL as TRACE_CONTROL
from benchmarks.e2e.workloads import ACCOUNTS, BRANCHES, TELLERS, Workload

LOAD_BATCH = 1000
QUEUE_DEPTH = 64
BASE_OPERATION_NS = DEFAULT_COSTS.unit_ns("base_operation")
BALANCE_TABLES = ("account", "teller", "branch")


class OpFailed(Exception):
    """An op raised or came back ``ok=False``; counted, never ignored."""


def table_defs(history_capacity: int) -> list[tuple]:
    return [
        ("account", ACCOUNT_SCHEMA, ACCOUNTS, "aid"),
        ("teller", TELLER_SCHEMA, TELLERS, "tid"),
        ("branch", BRANCH_SCHEMA, BRANCHES, "bid"),
        ("history", HISTORY_SCHEMA, history_capacity, "hid"),
    ]


def initial_rows():
    """``(table, row)`` for the initial load, zero balances."""
    for bid in range(BRANCHES):
        yield "branch", {"bid": bid, "balance": 0}
    for tid in range(TELLERS):
        yield "teller", {"tid": tid, "branch_id": tid % BRANCHES, "balance": 0}
    for aid in range(ACCOUNTS):
        yield "account", {"aid": aid, "branch_id": aid % BRANCHES, "balance": 0}


def _timed(fn) -> float:
    began = time.perf_counter()
    fn()
    return time.perf_counter() - began


def _history_row(op: tuple) -> dict:
    _kind, aid, tid, bid, delta, hid = op
    return {"hid": hid, "aid": aid, "tid": tid, "bid": bid, "delta": delta}


# ------------------------------------------------------------------ clients


class EmbeddedClient:
    """Calls ``Table`` methods directly, as the paper's harness does."""

    def __init__(self, db: Database) -> None:
        self.db = db
        self.tables = [db.table(name) for name in BALANCE_TABLES]
        self.history = db.table("history")
        self.txn = None

    def begin(self) -> None:
        self.txn = self.db.begin()

    def commit(self) -> None:
        txn, self.txn = self.txn, None
        self.db.commit(txn)

    def abort(self) -> None:
        txn, self.txn = self.txn, None
        if txn is not None:
            self.db.abort(txn)

    def apply(self, op: tuple) -> None:
        kind, aid, tid, bid, delta, _hid = op
        txn = self.txn
        self.db.meter.charge("base_operation")
        if kind == ENQUIRY:
            for table, key in zip(self.tables, (aid, tid, bid)):
                table.read(txn, table.lookup(txn, key))
            return
        add = lambda current: current + delta  # noqa: E731
        for table, key in zip(self.tables, (aid, tid, bid)):
            table.update(txn, table.lookup(txn, key), {"balance": add})
        self.history.insert(txn, _history_row(op))


class SessionClient:
    """Speaks the ``repro.serve`` request protocol through a server."""

    def __init__(self, server, charge_base) -> None:
        self.server = server
        self.session = server.open_session()
        self.charge_base = charge_base

    def _send(self, op: str, **fields):
        response = self.server.submit(self.session, Request(op, **fields))
        if not response.ok:
            raise OpFailed(f"{op}: {response.error}: {response.detail}")
        return response.value

    def begin(self) -> None:
        self._send("begin")

    def commit(self) -> None:
        self._send("commit")

    def abort(self) -> None:
        self.server.submit(self.session, Request("abort"))

    def apply(self, op: tuple) -> None:
        kind, aid, tid, bid, delta, _hid = op
        if kind == ENQUIRY:
            raise ValueError("no served workload has enquiry ops; only EmbeddedClient runs them")
        self.charge_base()
        for table, key in zip(BALANCE_TABLES, (aid, tid, bid)):
            slot = self._send("lookup", table=table, key=key)
            row = self._send("read", table=table, slot=slot)
            self._send(
                "update",
                table=table,
                slot=slot,
                values={"balance": row["balance"] + delta},
            )
        self._send("insert", table="history", values=_history_row(op))


# ------------------------------------------------------------------- shapes


class SingleNode:
    """One ``Database``: embedded, or behind the threaded ``Server``."""

    def __init__(self, spec: Workload, db: Database, serve: bool = True) -> None:
        self.spec = spec
        self.db = db
        #: seconds the checkpoint that ends ``create`` took (the whole
        #: freshly loaded image is dirty)
        self.first_checkpoint_s = 0.0
        self.server = None
        if serve and spec.shape == "served":
            self.server = Server(db, queue_depth=QUEUE_DEPTH, workers=1)

    @staticmethod
    def _config(spec: Workload, path: str, scheme: str | None) -> DBConfig:
        baseline = scheme == "baseline"
        return DBConfig(
            dir=path,
            scheme=scheme or spec.scheme,
            scheme_params={} if baseline else dict(spec.scheme_params),
            scheduler_mode="threaded" if spec.shape == "served" else "auto",
        )

    @classmethod
    def create(cls, spec, path, history_capacity, scheme=None) -> "SingleNode":
        db = Database(cls._config(spec, path, scheme))
        for name, schema, capacity, key_field in table_defs(history_capacity):
            db.create_table(name, schema, capacity, key_field=key_field)
        db.start()
        txn, pending = db.begin(), 0
        for table, row in initial_rows():
            db.table(table).insert(txn, row)
            pending += 1
            if pending == LOAD_BATCH:
                db.commit(txn)
                txn, pending = db.begin(), 0
        db.commit(txn)
        node = cls(spec, db)
        node.first_checkpoint_s = _timed(db.checkpoint)
        return node

    @classmethod
    def recover(cls, spec, path) -> tuple["SingleNode", int]:
        """Recover a crashed directory; returns the node and the redo count."""
        db, report = Database.recover(cls._config(spec, path, None))
        return cls(spec, db, serve=False), report.redo_applied

    def client(self):
        if self.server is None:
            return EmbeddedClient(self.db)
        meter = self.db.meter
        return SessionClient(self.server, lambda: meter.charge("base_operation"))

    # ---------------------------------------------------------- counters

    def virtual_ns(self) -> int:
        return self.db.clock.now_ns

    def log_bytes(self) -> int:
        return os.path.getsize(self.db.path(LOG_FILE))

    def stored_bytes(self) -> float:
        return self.db.memory.size * (1.0 + self.db.pipeline.space_overhead)

    def meter(self) -> dict[str, int]:
        return {event: count for event, (count, _ns) in self.db.meter.snapshot().items()}

    def backpressure_rejections(self) -> int:
        return self.server.backpressure_rejections if self.server else 0

    def trace_workers(self, _action: str) -> list:
        return []  # no worker processes: every span is in this interpreter

    def sums(self) -> dict[str, int]:
        result = {}
        txn = self.db.begin()
        for name in BALANCE_TABLES:
            table = self.db.table(name)
            result[name] = sum(
                table.read(txn, slot)["balance"] for slot in table.scan_slots(txn)
            )
            result[f"{name}_rows"] = table.row_count(txn)
        result["history_rows"] = self.db.table("history").row_count(txn)
        self.db.commit(txn)
        return result

    # ------------------------------------------------- maintenance, faults

    def audit(self) -> list[tuple[int, int, int]]:
        """Full audit; the corrupt ``(shard, address, length)`` ranges found."""
        return [(0, a, n) for a, n in self.db.audit().corrupt_byte_ranges]

    def wild_write(self, aid: int, offset: int, payload: bytes) -> tuple[int, int]:
        table = self.db.table("account")
        txn = self.db.begin()
        slot = table.lookup(txn, aid)
        self.db.commit(txn)
        address = table.record_address(slot) + offset
        FaultInjector(self.db).wild_write(address, data=payload)
        return 0, address

    def crash(self) -> None:
        self.db.crash()
        self.close()

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
        self.db.close()


class Sharded:
    """Process-per-shard ``ShardedDatabase`` behind a threaded ``ShardServer``."""

    def __init__(self, spec: Workload, sdb: ShardedDatabase, serve: bool = True) -> None:
        self.spec = spec
        self.sdb = sdb
        self.first_checkpoint_s = 0.0
        #: base_operation charges, added to the shard clocks arithmetically:
        #: the session protocol has no meter op and an extra round trip per
        #: op would perturb the wall numbers this workload exists for.
        self.base_ops = 0
        self.server = None
        if serve:
            self.server = ShardServer(sdb, queue_depth=QUEUE_DEPTH, workers=1, threaded=True)

    @staticmethod
    def _config(spec: Workload, path: str, scheme: str | None) -> ShardedConfig:
        baseline = scheme == "baseline"
        return ShardedConfig(
            dir=path,
            n_shards=spec.n_shards,
            mode="process",
            branches=BRANCHES,
            scheme=scheme or spec.scheme,
            scheme_params={} if baseline else dict(spec.scheme_params),
        )

    @classmethod
    def create(cls, spec, path, history_capacity, scheme=None) -> "Sharded":
        config = cls._config(spec, path, scheme)
        sdb = ShardedDatabase.create(config, table_defs(history_capacity))
        batches: dict[int, list] = {sid: [] for sid in range(spec.n_shards)}
        for table, row in initial_rows():
            op = ("insert", table, row)
            batch = batches[sdb.shard_for_op(op)]
            batch.append(op)
            if len(batch) == LOAD_BATCH:
                sdb.submit_txn_nowait(list(batch))
                batch.clear()
        for batch in batches.values():
            if batch:
                sdb.submit_txn_nowait(batch)
        sdb.drain()
        node = cls(spec, sdb)
        node.first_checkpoint_s = _timed(sdb.checkpoint_all)
        return node

    @classmethod
    def recover(cls, spec, path) -> tuple["Sharded", int]:
        sdb, reports = ShardedDatabase.recover(cls._config(spec, path, None))
        redo = sum(report["redo_applied"] for report in reports)
        return cls(spec, sdb, serve=False), redo

    def client(self):
        def charge_base() -> None:
            self.base_ops += 1

        return SessionClient(self.server, charge_base)

    # ---------------------------------------------------------- counters

    def virtual_ns(self) -> int:
        """Shards tick independently: elapsed virtual time is the max.
        The client's ops are charged to its home shard, shard 0."""
        clocks = self.sdb.call_all(("clock",))
        clocks[0] += BASE_OPERATION_NS * self.base_ops
        return max(clocks)

    def log_bytes(self) -> int:
        config = self.sdb.config
        paths = [
            os.path.join(config.shard_dir(sid), LOG_FILE)
            for sid in range(config.n_shards)
        ]
        paths.append(os.path.join(config.dir, DECISION_LOG_FILE))
        return sum(os.path.getsize(path) for path in paths)

    def stored_bytes(self) -> float:
        image = sum(
            len(segment)
            for snapshot in self.sdb.call_all(("snapshot",))
            for segment in snapshot.values()
        )
        config = self.sdb.config
        scheme = make_scheme(config.scheme, **dict(config.scheme_params))
        return image * (1.0 + scheme.space_overhead)

    def meter(self) -> dict[str, int]:
        merged: dict[str, int] = {}
        for snapshot in self.sdb.meters():
            for event, (count, _ns) in snapshot.items():
                merged[event] = merged.get(event, 0) + count
        return merged

    def backpressure_rejections(self) -> int:
        return self.server.backpressure_rejections if self.server else 0

    def trace_workers(self, action: str) -> list:
        """``"start"``/``"stop"`` the tracer inside every shard worker (see
        ``spans``); ``stop`` returns each worker's recorded spans."""
        return self.sdb.call_all((TRACE_CONTROL, action))

    def sums(self) -> dict[str, int]:
        result = {}
        for name in BALANCE_TABLES:
            result[name] = self.sdb.sum_field(name, "balance")
            result[f"{name}_rows"] = self.sdb.row_count(name)
        result["history_rows"] = self.sdb.row_count("history")
        return result

    # ------------------------------------------------- maintenance, faults

    def audit(self) -> list[tuple[int, int, int]]:
        return [
            (sid, address, length)
            for sid, (_clean, _regions, ranges) in enumerate(self.sdb.audit_all())
            for address, length in ranges
        ]

    def wild_write(self, aid: int, offset: int, payload: bytes) -> tuple[int, int]:
        sid = self.sdb.partition.shard_for_key("account", aid)
        return sid, self.sdb.wild_write("account", aid, offset, payload)

    def crash(self) -> None:
        self.sdb.crash()
        if self.server is not None:
            self.server.close()

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
        self.sdb.close()


def shape_class(spec: Workload):
    return Sharded if spec.shape == "sharded" else SingleNode
