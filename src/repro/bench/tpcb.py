"""The TPC-B-style workload of Section 5.2.

"The database consists of four tables, Branch, Teller, Account, and
History, each with 100 bytes per record.  Our database contained 100,000
accounts, with 10,000 tellers and 1,000 branches. ... In each run, 50,000
operations were done, where an operation consists of updating the
(non-key) balance fields of one account, teller and branch, and adding a
record to the history table.  Transactions were committed after 500
operations."

:func:`TPCBConfig.scaled` shrinks the database and operation count
proportionally for fast CI runs; per-operation virtual costs are
essentially scale-independent (fixed record sizes, short index chains), so
the Table 2 percentages survive scaling.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from repro.errors import WorkloadError
from repro.storage.database import Database, DBConfig
from repro.storage.schema import Field, FieldType, Schema


def _padded_schema(fields: list[Field], record_size: int = 100) -> Schema:
    used = sum(f.byte_size for f in fields)
    if used > record_size:
        raise WorkloadError(f"fields use {used} bytes, record is {record_size}")
    return Schema(fields + [Field("filler", FieldType.CHAR, record_size - used)])


ACCOUNT_SCHEMA = _padded_schema(
    [
        Field("aid", FieldType.INT64),
        Field("branch_id", FieldType.INT64),
        Field("balance", FieldType.INT64),
    ]
)

TELLER_SCHEMA = _padded_schema(
    [
        Field("tid", FieldType.INT64),
        Field("branch_id", FieldType.INT64),
        Field("balance", FieldType.INT64),
    ]
)

BRANCH_SCHEMA = _padded_schema(
    [
        Field("bid", FieldType.INT64),
        Field("balance", FieldType.INT64),
    ]
)

HISTORY_SCHEMA = _padded_schema(
    [
        Field("hid", FieldType.INT64),
        Field("aid", FieldType.INT64),
        Field("tid", FieldType.INT64),
        Field("bid", FieldType.INT64),
        Field("delta", FieldType.INT64),
    ]
)


@dataclass(frozen=True)
class TPCBConfig:
    """Workload shape; the defaults are the paper's Section 5.2 numbers."""

    accounts: int = 100_000
    tellers: int = 10_000
    branches: int = 1_000
    operations: int = 50_000
    ops_per_txn: int = 500
    seed: int = 42

    def scaled(self, factor: float) -> "TPCBConfig":
        """Scale database size and operation count by ``factor``."""
        if factor <= 0:
            raise WorkloadError(f"scale factor must be positive: {factor}")

        def scale(n: int, minimum: int) -> int:
            return max(minimum, round(n * factor))

        return replace(
            self,
            accounts=scale(self.accounts, 100),
            tellers=scale(self.tellers, 10),
            branches=scale(self.branches, 2),
            operations=scale(self.operations, 100),
            ops_per_txn=min(self.ops_per_txn, scale(self.operations, 100)),
        )


def build_tpcb_database(db_config: DBConfig, workload: TPCBConfig) -> Database:
    """Create (but do not populate) the four-table TPC-B database."""
    db = Database(db_config)
    db.create_table("account", ACCOUNT_SCHEMA, workload.accounts, key_field="aid")
    db.create_table("teller", TELLER_SCHEMA, workload.tellers, key_field="tid")
    db.create_table("branch", BRANCH_SCHEMA, workload.branches, key_field="bid")
    history_capacity = workload.operations + workload.ops_per_txn
    db.create_table("history", HISTORY_SCHEMA, history_capacity, key_field="hid")
    db.start()
    return db


def load_tpcb(db: Database, workload: TPCBConfig, batch: int = 1000) -> None:
    """Populate account/teller/branch with zero balances."""
    loads = [
        ("branch", workload.branches, lambda i: {"bid": i, "balance": 0}),
        (
            "teller",
            workload.tellers,
            lambda i: {"tid": i, "branch_id": i % workload.branches, "balance": 0},
        ),
        (
            "account",
            workload.accounts,
            lambda i: {"aid": i, "branch_id": i % workload.branches, "balance": 0},
        ),
    ]
    for table_name, count, make_row in loads:
        table = db.table(table_name)
        txn = db.begin()
        for i in range(count):
            table.insert(txn, make_row(i))
            if (i + 1) % batch == 0:
                db.commit(txn)
                txn = db.begin()
        db.commit(txn)


class TPCBWorkload:
    """Runs TPC-B operations against a loaded database."""

    def __init__(self, db: Database, config: TPCBConfig) -> None:
        self.db = db
        self.config = config
        self.rng = random.Random(config.seed)
        self.ops_done = 0
        self._txn = None
        self._ops_in_txn = 0
        self._next_hid = 0

    def run(self, operations: int | None = None) -> int:
        """Run ``operations`` ops (default: the configured count)."""
        target = operations if operations is not None else self.config.operations
        for _ in range(target):
            self.run_one()
        self.finish()
        return self.ops_done

    def run_one(self) -> None:
        """One TPC-B operation inside the current batch transaction."""
        if self._txn is None:
            self._txn = self.db.begin()
            self._ops_in_txn = 0
        txn = self._txn
        cfg = self.config
        # The fixed per-operation work of the Dali code path that this
        # reproduction models functionally, not per-instruction; it anchors
        # the baseline row of Table 2 (see repro.sim.costs).
        self.db.meter.charge("base_operation")
        aid = self.rng.randrange(cfg.accounts)
        tid = self.rng.randrange(cfg.tellers)
        bid = tid % cfg.branches
        delta = self.rng.randint(-99_999, 99_999)

        account = self.db.table("account")
        teller = self.db.table("teller")
        branch = self.db.table("branch")
        history = self.db.table("history")

        add = lambda current: current + delta  # noqa: E731 - tiny closure
        account.update(txn, account.lookup(txn, aid), {"balance": add})
        teller.update(txn, teller.lookup(txn, tid), {"balance": add})
        branch.update(txn, branch.lookup(txn, bid), {"balance": add})
        history.insert(
            txn,
            {"hid": self._next_hid, "aid": aid, "tid": tid, "bid": bid, "delta": delta},
        )
        self._next_hid += 1
        self.ops_done += 1
        self._ops_in_txn += 1
        if self._ops_in_txn >= cfg.ops_per_txn:
            self.db.commit(txn)
            self._txn = None

    def finish(self) -> None:
        """Commit any open batch transaction."""
        if self._txn is not None:
            self.db.commit(self._txn)
            self._txn = None


# ------------------------------------------------- the sharded TPC-B bank
#
# The sharded harnesses partition by branch: row ids are ``branch +
# branches * j``, so every row of a branch (and every single-branch
# transaction) lives on the branch's shard.  ``shape`` is any config with
# ``branches``, ``accounts_per_branch`` and ``tellers_per_branch``.


def branch_table_defs(shape, history_capacity: int) -> list[tuple]:
    """The four tables for :meth:`ShardedDatabase.create`.

    The capacities fix record addresses, which fix which codeword region
    a wild write lands in.
    """
    return [
        ("account", ACCOUNT_SCHEMA, shape.branches * shape.accounts_per_branch, "aid"),
        ("teller", TELLER_SCHEMA, shape.branches * shape.tellers_per_branch, "tid"),
        ("branch", BRANCH_SCHEMA, shape.branches, "bid"),
        ("history", HISTORY_SCHEMA, history_capacity, "hid"),
    ]


def branch_load_ops(shape, branch: int) -> list:
    """One shard-local transaction inserting a branch, its tellers and its
    accounts, all at zero balance."""
    ops: list = [("insert", "branch", {"bid": branch, "balance": 0})]
    ops.extend(
        ("insert", "teller",
         {"tid": branch + shape.branches * j, "branch_id": branch, "balance": 0})
        for j in range(shape.tellers_per_branch)
    )
    ops.extend(
        ("insert", "account",
         {"aid": branch + shape.branches * j, "branch_id": branch, "balance": 0})
        for j in range(shape.accounts_per_branch)
    )
    return ops


def branch_txn(
    shape,
    rng: random.Random,
    branch: int,
    next_hid: int,
    ops_per_txn: int,
    hot_accounts: int,
    max_delta: int,
) -> tuple[list, int, int]:
    """One single-branch TPC-B transaction: ``(ops, next_hid, delta_sum)``.

    Each operation adds a delta in ``[-max_delta, max_delta]`` to one of
    the branch's first ``hot_accounts`` accounts, one of its tellers and
    the branch, and appends a history row.
    """
    ops: list = []
    delta_sum = 0
    for _ in range(ops_per_txn):
        aid = branch + shape.branches * rng.randrange(hot_accounts)
        tid = branch + shape.branches * rng.randrange(shape.tellers_per_branch)
        delta = rng.randint(-max_delta, max_delta)
        delta_sum += delta
        ops.append(("add", "account", aid, {"balance": delta}))
        ops.append(("add", "teller", tid, {"balance": delta}))
        ops.append(("add", "branch", branch, {"balance": delta}))
        ops.append(
            ("insert", "history",
             {"hid": next_hid, "aid": aid, "tid": tid, "bid": branch,
              "delta": delta})
        )
        next_hid += 1
    return ops, next_hid, delta_sum
