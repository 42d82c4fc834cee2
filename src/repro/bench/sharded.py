"""Sharded harness: shard-per-core scale-up of the protected store, and
wild writes into one shard under in-flight traffic.

Both parts run the ``repro.shard`` engine in process mode (one worker
process per shard):

- *Scale-up matrix.*  The single-branch TPC-B mix (every transaction
  routes to one shard) pipelined over 1..N shards, unprotected and with
  data codewords -- a sharded Table 2: protection overhead stays a ratio
  while throughput scales with shards.  Each database is then crashed
  and restart-recovered, N workers replaying N WALs.  Throughput is on
  the virtual clock, per shard: the elapsed time is the slowest shard's.
  Recovery is the slowest worker's own replay CPU time.  Both are model
  numbers (on a 1-2 core host N processes time-slice), so no wall clock
  is reported.
- *In-flight fault schedules* (key ``in_flight``, on the campaign
  kernel): while the other shards hold pipelined, un-drained traffic,
  wild writes land on cold account balances of shard 0 at seeded
  submission indices.  Every one must be convicted, quarantined and
  repaired, the other shards must finish their traffic with zero errors
  and audit clean, and every account must read back exactly the value
  the :class:`~repro.faults.campaign.Ledger` committed.

The full run also gates the 4-shard speed-up (>= 2.5x) and recovery
ratio (<= 0.5).
"""

from __future__ import annotations

import os
import random
import shutil
from collections import deque
from dataclasses import asdict, dataclass, replace

from repro.bench.reporting import render_table
from repro.bench.suites import harness_payload, harness_suite, render_schedules
from repro.bench.tpcb import (
    ACCOUNT_SCHEMA,
    branch_load_ops,
    branch_table_defs,
    branch_txn,
)
from repro.core.schemes import understood_params
from repro.faults.campaign import (
    HarnessOutcome,
    Ledger,
    close_quietly,
    gate_lines,
    run_schedules,
    score_injections,
)
from repro.faults.injector import wild_payload
from repro.shard import ShardedConfig, ShardedDatabase

#: The fault schedule key: wild writes under in-flight traffic.
SHARDED_KEYS = ("in_flight",)
#: Bound on one operation's balance delta.
_MAX_DELTA = 9_999
#: Drain the pipelined replies every this many transactions.
_WINDOW = 16


@dataclass(frozen=True)
class ShardedSpec:
    """Shape of one ``--sharded`` run; the matrix's traffic draws from
    ``seeds[0]``."""

    seeds: tuple[int, ...] = (202, 203, 204)
    shard_counts: tuple[int, ...] = (1, 2, 4)
    #: partition modulus; divisible by every shard count so load is even
    branches: int = 16
    accounts_per_branch: int = 100
    tellers_per_branch: int = 10
    #: transactions per throughput point (each = ``ops_per_txn`` TPC-B ops)
    txns: int = 240
    ops_per_txn: int = 10
    #: transactions of in-flight traffic in each fault schedule
    campaign_txns: int = 36
    fault_injections: int = 6
    schemes: tuple[str, ...] = ("baseline", "data_codeword")

    def quick(self) -> "ShardedSpec":
        """CI smoke variant: same code paths, minutes -> seconds."""
        return replace(
            self,
            seeds=(202,),
            shard_counts=(1, 2),
            txns=48,
            ops_per_txn=5,
            campaign_txns=18,
            fault_injections=3,
            schemes=("data_codeword",),
        )

    def table_defs(self) -> list[tuple]:
        history_rows = max(self.txns, self.campaign_txns) * self.ops_per_txn
        return branch_table_defs(self, 2 * history_rows + 64)

    def sharded_config(self, workdir: str, n_shards: int, scheme: str,
                       quarantine: bool = False) -> ShardedConfig:
        return ShardedConfig(
            dir=workdir,
            n_shards=n_shards,
            mode="process",
            branches=self.branches,
            scheme=scheme,
            scheme_params=understood_params(scheme, {"region_size": 64}),
            group_commit_size=8,
            quarantine=quarantine,
            quarantine_repair=quarantine,
        )


@dataclass
class ShardedPoint:
    """One (shards, scheme) cell, on the per-shard clocks (module doc)."""

    shards: int
    scheme: str
    txns: int
    ops: int
    virtual_s: float
    txn_s: float
    ops_s: float
    conserved: bool
    #: recovery of the same database after a full-node crash; only
    #: measured on the protected scheme (None for baseline rows)
    recovery_s: float | None = None
    recovery_redo: int | None = None
    recovery_conserved: bool | None = None


def load_branches(db: ShardedDatabase, spec) -> None:
    """Populate all branches; each branch's rows ride one shard-local txn."""
    for b in range(spec.branches):
        db.submit_txn_nowait(branch_load_ops(spec, b))
        if (b + 1) % 4 == 0:
            db.drain()
    db.drain()


def account_reader(db: ShardedDatabase):
    """``read(aid)`` of an account balance, one routed query per read."""
    return lambda aid: db.submit_txn([("query", "account", aid)])[0]["balance"]


def run_sharded_point(
    base_dir: str, spec: ShardedSpec, n_shards: int, scheme: str
) -> ShardedPoint:
    """Throughput at ``n_shards``, then (for the protected scheme) crash
    the node and time shard-parallel recovery of the same image."""
    workdir = os.path.join(base_dir, f"n{n_shards}-{scheme}")
    sharded_config = spec.sharded_config(workdir, n_shards, scheme)
    db = ShardedDatabase.create(sharded_config, spec.table_defs())
    try:
        load_branches(db, spec)
        rng = random.Random(spec.seeds[0])
        next_hid = 0
        expected = 0
        clocks_began = db.call_all(("clock",))
        for i in range(spec.txns):
            # Round-robin branch choice keeps shard load exactly even.
            ops, next_hid, delta_sum = branch_txn(
                spec, rng, i % spec.branches, next_hid, spec.ops_per_txn,
                spec.accounts_per_branch, _MAX_DELTA,
            )
            expected += delta_sum
            db.submit_txn_nowait(ops)
            if (i + 1) % _WINDOW == 0:
                db.drain()
        db.drain()
        clocks_ended = db.call_all(("clock",))
        # Each shard ticks its own virtual clock; they run concurrently,
        # so the run's virtual elapsed time is the slowest shard's.
        elapsed = max(e - b for b, e in zip(clocks_began, clocks_ended))
        virtual_s = max(elapsed / 1e9, 1e-9)
        point = ShardedPoint(
            shards=n_shards,
            scheme=scheme,
            txns=spec.txns,
            ops=spec.txns * spec.ops_per_txn,
            virtual_s=virtual_s,
            txn_s=spec.txns / virtual_s,
            ops_s=spec.txns * spec.ops_per_txn / virtual_s,
            conserved=db.sum_field("account", "balance") == expected,
        )
        if scheme == "baseline":
            return point

        # Group commit may still hold a tail of acknowledged commits in
        # memory; force it down so the crash tests recovery, not the
        # durability window (the 2PC and crash-point tests cover that).
        db.call_all(("flush",))
        # Crash the whole node and restart: N workers replay N WALs.
        db.crash()
        recovered, reports = ShardedDatabase.recover(sharded_config)
        # Parallel critical path: the slowest shard's own replay time.
        point.recovery_s = max(max(r["recovery_cpu_s"] for r in reports), 1e-9)
        point.recovery_redo = sum(r["redo_applied"] for r in reports)
        point.recovery_conserved = (
            recovered.sum_field("account", "balance") == expected
        )
        recovered.close()
        return point
    finally:
        db.close()
        shutil.rmtree(workdir, ignore_errors=True)


@dataclass(kw_only=True)
class ShardedOutcome(HarnessOutcome):
    """One in-flight fault schedule's score."""

    shards: int = 0
    #: Fewest un-drained transactions on the other shards at an injection.
    in_flight_at_injection: int = 0
    traffic_completed: int = 0
    other_shards_audit_clean: bool = True
    balances_conserved: bool = True

    def breaches(self) -> list[str]:
        return super().breaches() + [
            line for broken, line in (
                (not self.other_shards_audit_clean,
                 "a shard that took no wild write failed its audit"),
                (not self.balances_conserved, "balance sum not conserved"),
                (not self.in_flight_at_injection,
                 "a wild write landed with no traffic in flight"),
            ) if broken
        ]


class InFlightSchedule:
    """Wild writes into shard 0 while the other shards hold pipelined,
    un-drained traffic, so quarantine and repair of the victim shard
    demonstrably do not disturb the others."""

    def __init__(self, spec, key, seed, index, work_dir, rng) -> None:
        self.spec = spec
        self.work_dir = work_dir
        self.rng = rng
        self.db = None
        self.outcome = ShardedOutcome(
            key=key, seed=seed, index=index, shards=max(spec.shard_counts)
        )

    def close(self) -> None:
        close_quietly(self.db)

    def run(self) -> ShardedOutcome:
        spec, rng, out = self.spec, self.rng, self.outcome
        db = self.db = ShardedDatabase.create(
            spec.sharded_config(
                self.work_dir, out.shards, "data_codeword", quarantine=True
            ),
            spec.table_defs(),
        )
        load_branches(db, spec)
        # Checkpoint certifies the loaded image and bounds repair replay.
        db.checkpoint_all()
        ledger = Ledger(range(spec.branches * spec.accounts_per_branch))

        # Shard 0's branches get no traffic; each wild write covers the
        # balance of one of branch 0's accounts -- corruption a balance
        # sum alone would miss until read, but a codeword audit flags.
        hot_branches = [
            b for b in range(spec.branches) if b % out.shards != 0
        ] or [1 % spec.branches]
        k = spec.fault_injections
        out.faults = [
            (op, "wild_write", 0, spec.branches * j)
            for op, j in zip(
                sorted(rng.sample(range(1, spec.campaign_txns + 1), k)),
                rng.sample(range(spec.accounts_per_branch), k),
            )
        ]
        faults = deque(out.faults)
        balance = ACCOUNT_SCHEMA.offset_of("balance")
        injected: list[int] = []
        in_flight: list[int] = []
        next_hid = 0
        expected = 0
        for i in range(spec.campaign_txns + 1):
            while faults and faults[0][0] == i:
                in_flight.append(sum(shard.pending for shard in db.shards))
                injected.append(db.wild_write(
                    "account", faults.popleft()[3], balance, wild_payload(rng, 8)
                ))
            if i < spec.campaign_txns:
                ops, next_hid, delta_sum = branch_txn(
                    spec, rng, hot_branches[i % len(hot_branches)], next_hid,
                    spec.ops_per_txn, spec.accounts_per_branch, _MAX_DELTA,
                )
                expected += delta_sum
                ledger.commit_adds(ops, "account")
                db.submit_txn_nowait(ops)
        out.in_flight_at_injection = min(in_flight)
        try:
            out.traffic_completed = len(db.drain())
        except Exception:
            out.traffic_errors += 1

        audits = db.audit_all()
        out.other_shards_audit_clean = all(clean for clean, _, _ in audits[1:])
        out.score(
            score_injections(
                injected,
                audits[0][2],
                quarantined=len(db.quarantined().get(0, ())),
                repair=db.repair_all,
                audit_clean=lambda: all(clean for clean, _, _ in db.audit_all()),
            ),
            spec.campaign_txns,
        )
        out.balances_conserved = db.sum_field("account", "balance") == expected
        unreadable, wrong = ledger.check(account_reader(db), exact=True)
        out.value_ok = not (unreadable or wrong)
        return out


def sharded_gates(points: list[ShardedPoint]) -> dict:
    """The scale-up matrix's pass/fail summary; the ratio gates apply
    from 4 shards up."""
    protected = {p.shards: p for p in points if p.scheme != "baseline"}
    widest = protected.get(max(protected, default=0))
    single = protected.get(1)
    speedup = ratio = None
    if single is not None and widest.shards > 1:
        speedup = round(widest.txn_s / single.txn_s, 2)
        ratio = round(widest.recovery_s / single.recovery_s, 3)
    gated = widest is not None and widest.shards >= 4
    return {
        "max_shards": widest.shards if widest else 0,
        "throughput_speedup": speedup,
        "throughput_ok": speedup is not None and speedup >= 2.5 if gated else None,
        "recovery_ratio": ratio,
        "recovery_ok": ratio is not None and ratio <= 0.5 if gated else None,
        "conserved": all(
            p.conserved and p.recovery_conserved is not False for p in points
        ),
    }


def render_sharded_table(points: list[ShardedPoint]) -> str:
    singles = {p.scheme: p for p in points if p.shards == 1}
    rows = []
    for p in points:
        single = singles.get(p.scheme)
        recovered = p.recovery_s is not None and single is not None
        rows.append([
            str(p.shards), p.scheme, f"{p.txn_s:,.0f}", f"{p.ops_s:,.0f}",
            f"{p.txn_s / single.txn_s:.2f}x" if single else "-",
            f"{p.recovery_s * 1000:,.0f}" if recovered else "-",
            f"{single.recovery_s / p.recovery_s:.2f}x" if recovered else "-",
        ])
    return render_table(
        ["Shards", "Scheme", "Txn/s", "Ops/s", "Speedup", "Recovery ms",
         "Rec speedup"],
        rows,
        title=(
            "Shard-per-core scale-up (process mode, single-branch TPC-B "
            "mix; Txn/s and Recovery on the per-shard clocks, see module doc)"
        ),
    )


def _run(args, workdir: str) -> tuple[dict, list[str]]:
    spec = ShardedSpec().quick() if args.quick else ShardedSpec()
    points = [
        run_sharded_point(workdir, spec, n_shards, scheme)
        for scheme in spec.schemes for n_shards in spec.shard_counts
    ]
    print(render_sharded_table(points))
    gates = sharded_gates(points)
    if gates["throughput_speedup"] is not None:
        print(
            f"Scale-up at {gates['max_shards']} shards: "
            f"{gates['throughput_speedup']}x throughput, "
            f"recovery ratio {gates['recovery_ratio']}."
        )
    print()
    outcomes = run_schedules(spec, SHARDED_KEYS, 1, InFlightSchedule, workdir)
    print(render_schedules(
        f"Wild writes into shard 0 of {max(spec.shard_counts)} while the "
        "others hold in-flight traffic",
        outcomes, "in_flight_at_injection", "traffic_errors", "injected",
        "false_negatives", "repaired_regions", "post_repair_audit_clean",
        "other_shards_audit_clean", "balances_conserved", "value_ok",
    ))
    failures = gate_lines(outcomes)
    if not gates["conserved"]:
        failures.append("scale-up matrix: balance sums not conserved")
    if not args.quick:
        if gates["throughput_ok"] is False:
            failures.append(
                f"throughput speedup {gates['throughput_speedup']}x < 2.5x"
            )
        if gates["recovery_ok"] is False:
            failures.append(f"recovery ratio {gates['recovery_ratio']} > 0.5")
    payload = harness_payload(
        spec, outcomes, args.quick,
        matrix=[asdict(point) for point in points], gates=gates,
    )
    return payload, failures


SHARDED_SUITE = harness_suite(
    "sharded",
    "run the shard-per-core harness (process mode: virtual-clock "
    "throughput and recovery curves over 1..N shards, plus seeded wild "
    "writes into one shard under in-flight traffic; exit 1 on any false "
    "negative, traffic error or committed value read back wrong)",
    _run,
)
