"""Sharded benchmark: shard-per-core scale-up of the protected store.

Three curves over the ``repro.shard`` engine in process mode (one worker
process per shard, so codeword folds, WAL writes and fsyncs run on N
cores with no shared GIL):

- *Throughput*: the single-branch TPC-B mix (each transaction updates
  the account/teller/branch balances of one branch and appends history,
  so it routes to exactly one shard) pipelined over 1..N shards, for the
  unprotected baseline and the data-codeword scheme -- a sharded Table-2
  variant: protection overhead stays a ratio while absolute throughput
  scales with cores.
- *Recovery*: the same databases are crashed after the timed run and
  restart-recovered; N workers replay N WALs concurrently, so recovery
  of the *same total image* drops near-linearly with shards.

Measurement protocol: headline throughput uses the repo's virtual clock
(exactly Table 2's protocol, per shard) -- every shard ticks its own
clock, shards run on separate cores, so the sharded elapsed time is the
*max* across shards.  Recovery is scored on the parallel critical path:
each worker times its own replay (CPU time) and the slowest shard is the
restart time on N cores.  Real wall-clock numbers ride along in the JSON
for both; on a machine with >= N idle cores they track the model, on the
1-2 core CI runners they cannot (N processes timeslice one core), which
is why the gates are on the model numbers.
- *Fault campaign*: with in-flight traffic pipelined to every other
  shard, wild writes are injected into cold records of shard 0 and
  scored against injector ground truth: every corruption must be
  detected (zero false negatives), quarantined and repaired while the
  other shards complete their traffic with zero errors.

``python -m repro.bench --sharded`` writes ``BENCH_sharded.json`` and
exits 1 on any false negative, traffic error, or lost balance.
"""

from __future__ import annotations

import os
import random
import shutil
import time
from dataclasses import dataclass, replace

from repro.bench.reporting import render_table
from repro.bench.suites import Suite, run_gated
from repro.bench.tpcb import (
    ACCOUNT_SCHEMA,
    branch_load_ops,
    branch_table_defs,
    branch_txn,
)
from repro.faults.campaign import score_injections
from repro.faults.injector import wild_payload
from repro.shard import ShardedConfig, ShardedDatabase

SHARDED_JSON_VERSION = 1

#: Bound on one operation's balance delta.
_MAX_DELTA = 9_999


@dataclass(frozen=True)
class ShardedBenchConfig:
    """Shape of one ``--sharded`` run."""

    shard_counts: tuple[int, ...] = (1, 2, 4)
    #: partition modulus; divisible by every shard count so load is even
    branches: int = 16
    accounts_per_branch: int = 100
    tellers_per_branch: int = 10
    #: transactions per throughput point (each = ``ops_per_txn`` TPC-B ops)
    txns: int = 240
    ops_per_txn: int = 10
    #: transactions of in-flight traffic during the fault campaign
    campaign_txns: int = 36
    campaign_ops_per_txn: int = 5
    fault_injections: int = 6
    schemes: tuple[str, ...] = ("baseline", "data_codeword")
    region_size: int = 64
    group_commit_size: int = 8
    #: drain the pipelined replies every this many transactions
    window: int = 16
    seed: int = 202

    def quick(self) -> "ShardedBenchConfig":
        """CI smoke variant: same code paths, minutes -> seconds."""
        return replace(
            self,
            shard_counts=(1, 2),
            txns=48,
            ops_per_txn=5,
            campaign_txns=18,
            fault_injections=3,
            schemes=("data_codeword",),
        )

    def table_defs(self) -> list[tuple]:
        history_capacity = 2 * max(
            self.txns * self.ops_per_txn,
            self.campaign_txns * self.campaign_ops_per_txn,
        ) + 64
        return branch_table_defs(self, history_capacity)

    def sharded_config(self, workdir: str, n_shards: int, scheme: str,
                       quarantine: bool = False) -> ShardedConfig:
        return ShardedConfig(
            dir=workdir,
            n_shards=n_shards,
            mode="process",
            branches=self.branches,
            scheme=scheme,
            scheme_params={"region_size": self.region_size},
            group_commit_size=self.group_commit_size,
            quarantine=quarantine,
            quarantine_repair=quarantine,
        )


@dataclass
class ShardedPoint:
    """Measured result of one (shards, scheme) cell.

    ``txn_s``/``ops_s`` are virtual-clock (Table 2 protocol, max across
    shards); ``wall_s``/``txn_s_wall`` are the observed wall-clock on
    whatever cores the host actually had.  ``recovery_s`` is the parallel
    critical path (slowest shard's own replay time); ``recovery_wall_s``
    is the observed wall-clock of the whole restart.
    """

    shards: int
    scheme: str
    txns: int
    ops: int
    virtual_s: float
    txn_s: float
    ops_s: float
    wall_s: float
    txn_s_wall: float
    conserved: bool
    #: recovery of the same database after a full-node crash; only
    #: measured on the protected scheme (None for baseline rows)
    recovery_s: float | None = None
    recovery_wall_s: float | None = None
    recovery_redo: int | None = None
    recovery_conserved: bool | None = None

    def to_payload(self) -> dict:
        payload = {
            "shards": self.shards,
            "scheme": self.scheme,
            "txns": self.txns,
            "ops": self.ops,
            "virtual_s": round(self.virtual_s, 6),
            "txn_s": round(self.txn_s, 1),
            "ops_s": round(self.ops_s, 1),
            "wall_s": round(self.wall_s, 4),
            "txn_s_wall": round(self.txn_s_wall, 1),
            "conserved": self.conserved,
        }
        if self.recovery_s is not None:
            payload["recovery_s"] = round(self.recovery_s, 4)
            payload["recovery_wall_s"] = round(self.recovery_wall_s, 4)
            payload["recovery_redo"] = self.recovery_redo
            payload["recovery_conserved"] = self.recovery_conserved
        return payload


def _load(db: ShardedDatabase, config: ShardedBenchConfig) -> None:
    """Populate all branches; each branch's rows ride one shard-local txn."""
    for b in range(config.branches):
        db.submit_txn_nowait(branch_load_ops(config, b))
        if (b + 1) % 4 == 0:
            db.drain()
    db.drain()


def run_sharded_point(
    base_dir: str, config: ShardedBenchConfig, n_shards: int, scheme: str
) -> ShardedPoint:
    """Throughput at ``n_shards``, then (for the protected scheme) crash
    the node and time shard-parallel recovery of the same image."""
    workdir = os.path.join(base_dir, f"n{n_shards}-{scheme}")
    sharded_config = config.sharded_config(workdir, n_shards, scheme)
    db = ShardedDatabase.create(sharded_config, config.table_defs())
    try:
        _load(db, config)
        rng = random.Random(config.seed)
        next_hid = 0
        expected = 0
        clocks_began = db.call_all(("clock",))
        began = time.perf_counter()
        for i in range(config.txns):
            # Round-robin branch choice keeps shard load exactly even.
            ops, next_hid, delta_sum = branch_txn(
                config, rng, i % config.branches, next_hid, config.ops_per_txn,
                config.accounts_per_branch, _MAX_DELTA,
            )
            expected += delta_sum
            db.submit_txn_nowait(ops)
            if (i + 1) % config.window == 0:
                db.drain()
        db.drain()
        wall_s = max(time.perf_counter() - began, 1e-9)
        clocks_ended = db.call_all(("clock",))
        # Each shard ticks its own virtual clock; they run concurrently,
        # so the run's virtual elapsed time is the slowest shard's.
        virtual_s = max(
            max(end - start for start, end in zip(clocks_began, clocks_ended))
            / 1e9,
            1e-9,
        )
        conserved = db.sum_field("account", "balance") == expected

        point = ShardedPoint(
            shards=n_shards,
            scheme=scheme,
            txns=config.txns,
            ops=config.txns * config.ops_per_txn,
            virtual_s=virtual_s,
            txn_s=config.txns / virtual_s,
            ops_s=config.txns * config.ops_per_txn / virtual_s,
            wall_s=wall_s,
            txn_s_wall=config.txns / wall_s,
            conserved=conserved,
        )
        if scheme == "baseline":
            db.close()
            return point

        # Group commit may still hold a tail of acknowledged commits in
        # memory; force it down so the crash tests recovery, not the
        # durability window (the 2PC and crash-point tests cover that).
        db.call_all(("flush",))
        # Crash the whole node and restart: N workers replay N WALs.
        db.crash()
        began = time.perf_counter()
        recovered, reports = ShardedDatabase.recover(sharded_config)
        point.recovery_wall_s = max(time.perf_counter() - began, 1e-9)
        # Parallel critical path: the slowest shard's own replay time.
        point.recovery_s = max(
            max(r["recovery_cpu_s"] for r in reports), 1e-9
        )
        point.recovery_redo = sum(r["redo_applied"] for r in reports)
        point.recovery_conserved = (
            recovered.sum_field("account", "balance") == expected
        )
        recovered.close()
        return point
    finally:
        db.close()
        shutil.rmtree(workdir, ignore_errors=True)


def run_sharded_matrix(
    base_dir: str, config: ShardedBenchConfig
) -> list[ShardedPoint]:
    return [
        run_sharded_point(base_dir, config, n_shards, scheme)
        for scheme in config.schemes
        for n_shards in config.shard_counts
    ]


def run_sharded_fault_campaign(base_dir: str, config: ShardedBenchConfig) -> dict:
    """Wild writes into one shard while the rest carry in-flight traffic.

    Shard 0's branches get no traffic at all; its cold account records
    are the injection targets.  The writes land while the other shards
    still hold pipelined, un-drained transactions, so quarantine and
    repair of the victim shard demonstrably do not disturb the others.
    """
    n_shards = max(config.shard_counts)
    workdir = os.path.join(base_dir, "faults")
    sharded_config = config.sharded_config(
        workdir, n_shards, "data_codeword", quarantine=True
    )
    db = ShardedDatabase.create(sharded_config, config.table_defs())
    try:
        _load(db, config)
        # Checkpoint certifies the loaded image and bounds repair replay.
        db.checkpoint_all()

        hot_branches = [
            b for b in range(config.branches) if b % n_shards != 0
        ] or [1 % config.branches]
        rng = random.Random(config.seed + 1)
        next_hid = 0
        expected = 0
        for i in range(config.campaign_txns):
            branch = hot_branches[i % len(hot_branches)]
            ops, next_hid, delta_sum = branch_txn(
                config, rng, branch, next_hid, config.campaign_ops_per_txn,
                config.accounts_per_branch, _MAX_DELTA,
            )
            expected += delta_sum
            db.submit_txn_nowait(ops)

        # Traffic is still queued on shards 1..N-1; scribble on shard 0.
        # Each wild write covers the balance field of a cold account --
        # corruption a balance-sum check alone would miss until read, but
        # a codeword audit flags immediately.
        in_flight = sum(shard.pending for shard in db.shards)
        cold_aids = [
            config.branches * j
            for j in range(
                config.accounts_per_branch - config.fault_injections,
                config.accounts_per_branch,
            )
        ]
        balance = ACCOUNT_SCHEMA.offset_of("balance")
        injected = [
            db.wild_write("account", aid, balance, wild_payload(rng, 8))
            for aid in cold_aids
        ]

        traffic_errors = 0
        completed = 0
        try:
            completed = len(db.drain())
        except Exception:
            traffic_errors += 1

        audits = db.audit_all()
        scored = score_injections(
            injected,
            audits[0][2],
            quarantined=len(db.quarantined().get(0, ())),
            repair=db.repair_all,
            audit_clean=lambda: all(clean for clean, _, _ in db.audit_all()),
        )
        return {
            "shards": n_shards,
            "victim_shard": 0,
            "traffic_txns": config.campaign_txns,
            "traffic_in_flight_at_injection": in_flight,
            "traffic_completed": completed,
            "traffic_errors": traffic_errors,
            "other_shards_audit_clean": all(clean for clean, _, _ in audits[1:]),
            **scored,
            "balances_conserved": db.sum_field("account", "balance") == expected,
        }
    finally:
        db.close()
        shutil.rmtree(workdir, ignore_errors=True)


def sharded_gates(points: list[ShardedPoint], campaign: dict) -> dict:
    """Pass/fail summary: scale-up ratios plus campaign ground truth."""
    protected = [p for p in points if p.scheme != "baseline"]
    single = next((p for p in protected if p.shards == 1), None)
    widest = max(protected, key=lambda p: p.shards, default=None)
    throughput_speedup = None
    recovery_ratio = None
    if single is not None and widest is not None and widest.shards > 1:
        throughput_speedup = widest.txn_s / single.txn_s
        if single.recovery_s and widest.recovery_s:
            recovery_ratio = widest.recovery_s / single.recovery_s
    gated = widest is not None and widest.shards >= 4
    return {
        "max_shards": widest.shards if widest else 0,
        "throughput_speedup": (
            round(throughput_speedup, 2) if throughput_speedup else None
        ),
        "throughput_ok": (
            throughput_speedup is not None and throughput_speedup >= 2.5
            if gated
            else None
        ),
        "recovery_ratio": round(recovery_ratio, 3) if recovery_ratio else None,
        "recovery_ok": (
            recovery_ratio is not None and recovery_ratio <= 0.5 if gated else None
        ),
        "false_negatives": campaign["false_negatives"],
        "traffic_errors": campaign["traffic_errors"],
        "conserved": (
            all(p.conserved for p in points)
            and all(p.recovery_conserved is not False for p in points)
            and campaign["balances_conserved"]
        ),
    }


def sharded_payload(
    points: list[ShardedPoint],
    campaign: dict,
    gates: dict,
    config: ShardedBenchConfig,
    quick: bool,
) -> dict:
    return {
        "version": SHARDED_JSON_VERSION,
        "quick": quick,
        "branches": config.branches,
        "txns": config.txns,
        "ops_per_txn": config.ops_per_txn,
        "group_commit_size": config.group_commit_size,
        "region_size": config.region_size,
        "matrix": [point.to_payload() for point in points],
        "fault_campaign": campaign,
        "gates": gates,
    }


def render_sharded_table(points: list[ShardedPoint]) -> str:
    singles = {p.scheme: p for p in points if p.shards == 1}
    rows = []
    for point in points:
        single = singles.get(point.scheme)
        speedup = (
            f"{point.txn_s / single.txn_s:.2f}x" if single else "-"
        )
        if point.recovery_s is not None and single and single.recovery_s:
            recovery = f"{point.recovery_s * 1000:,.0f}"
            recovery_speedup = f"{single.recovery_s / point.recovery_s:.2f}x"
        else:
            recovery = "-"
            recovery_speedup = "-"
        rows.append(
            [
                str(point.shards),
                point.scheme,
                f"{point.txn_s:,.0f}",
                f"{point.ops_s:,.0f}",
                speedup,
                f"{point.txn_s_wall:,.0f}",
                recovery,
                recovery_speedup,
            ]
        )
    return render_table(
        [
            "Shards",
            "Scheme",
            "Txn/s",
            "Ops/s",
            "Speedup",
            "Wall txn/s",
            "Recovery ms",
            "Rec speedup",
        ],
        rows,
        title=(
            "Shard-per-core scale-up (process mode, single-branch TPC-B "
            "mix; Txn/s and Recovery on the per-shard clocks, see module doc)"
        ),
    )


# --------------------------------------------------------- registration


def _add_arguments(parser) -> None:
    parser.add_argument(
        "--sharded",
        action="store_true",
        help="run the shard-per-core scale-up benchmark (process mode: "
        "throughput and recovery-time curves over 1..N shards, plus a "
        "sharded fault campaign; exit 1 on any false negative)",
    )
    parser.add_argument(
        "--sharded-json",
        metavar="PATH",
        default="BENCH_sharded.json",
        help="where --sharded writes its JSON artifact "
        "(default: BENCH_sharded.json)",
    )


def _run(args) -> int:
    config = ShardedBenchConfig().quick() if args.quick else ShardedBenchConfig()

    def run(workdir: str) -> tuple[dict, list[str]]:
        points = run_sharded_matrix(workdir, config)
        print(render_sharded_table(points))
        print()
        campaign = run_sharded_fault_campaign(workdir, config)
        gates = sharded_gates(points, campaign)
        print(
            f"Sharded fault campaign ({campaign['shards']} shards): "
            f"{campaign['injected']} wild writes into shard "
            f"{campaign['victim_shard']} with {campaign['traffic_in_flight_at_injection']} "
            f"transactions in flight elsewhere; {campaign['detected']} detected, "
            f"{campaign['false_negatives']} false negatives, "
            f"{campaign['traffic_errors']} traffic errors; "
            f"{campaign['quarantined_regions']} regions quarantined, "
            f"{campaign['repaired_regions']} repaired, post-repair audit "
            f"clean={campaign['post_repair_audit_clean']}."
        )
        if gates["throughput_speedup"] is not None:
            print(
                f"Scale-up at {gates['max_shards']} shards: "
                f"{gates['throughput_speedup']}x throughput, "
                f"recovery ratio {gates['recovery_ratio']}."
            )
        failures = []
        if campaign["false_negatives"]:
            failures.append("false negatives in the sharded fault campaign")
        if campaign["traffic_errors"]:
            failures.append("traffic errors on non-victim shards")
        if not gates["conserved"]:
            failures.append("balance sums not conserved")
        if not args.quick:
            if gates["throughput_ok"] is False:
                failures.append(
                    f"throughput speedup {gates['throughput_speedup']}x < 2.5x"
                )
            if gates["recovery_ok"] is False:
                failures.append(f"recovery ratio {gates['recovery_ratio']} > 0.5")
        return sharded_payload(points, campaign, gates, config, args.quick), failures

    return run_gated("sharded", args.sharded_json, run)


SHARDED_SUITE = Suite(
    name="sharded",
    add_arguments=_add_arguments,
    run=_run,
    selected=lambda args: args.sharded,
)
