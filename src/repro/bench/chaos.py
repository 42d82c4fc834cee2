"""Chaos soak: supervised shards under continuous worker-level faults.

Two phases over the supervised process-mode engine
(:class:`~repro.shard.supervisor.ShardSupervisor` attached to a
:class:`~repro.shard.router.ShardedDatabase`):

- **Targeted kill matrix.**  A fresh supervised two-shard database per
  point; a cross-shard transfer is driven into a worker kill armed at a
  specific protocol moment -- at ``txn_prepare`` (vote never cast ->
  presumed abort, whole transaction retryable), at ``decide`` and in the
  gap right after the coordinator fsyncs the commit decision (decision
  durable, delivery lost -> the caller still sees SUCCESS; the
  supervisor completes the branch), plus a plain kill and a hang.  Every
  point must end with the transfer applied exactly once, the decision
  log agreeing with the acked count, both shards serving, audits clean
  -- and the surviving shard answering queries *while* the victim is
  mid-recovery.
- **Random soak.**  A TPC-B-style mix (single-branch transactions plus
  cross-shard transfers) submitted synchronously while a seeded schedule
  injects worker kills, hangs, and wild writes.  Clients follow the
  error taxonomy: a retryable failure backs off and retries; because a
  worker killed *mid-call* leaves that transaction's outcome
  indeterminate (group commit size 1: it may have committed just before
  dying), the retry loop first checks for the transaction's unique
  history row -- the outcome-check-then-retry discipline
  ``docs/errors.md`` prescribes -- so the acked ledger stays exact.

Scoring is against ground truth:

- *zero lost committed transactions*: every acked transaction's history
  row is present after the final heal;
- *no double-applies*: account balance sum == history delta sum ==
  the acked ledger's sum (a blind retry that applied twice breaks both);
- *zero wild-write false negatives*: every injected corruption is
  either flagged by audit or provably erased by a restart that rebuilt
  the image from WAL+checkpoint after the injection;
- *bounded unavailability*: fault windows are confined to the faulted
  shard (survivor probes must succeed mid-recovery) and every shard is
  SERVING at the end.

``python -m repro.bench --chaos`` writes ``BENCH_chaos.json`` and exits
1 on any gate breach.
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
from repro.errors import ReproError, SimulatedCrash
from repro.faults.campaign import convicted
from repro.faults.injector import wild_payload
from repro.faults.workers import (
    hang_worker,
    kill_after_decision,
    kill_on_command,
    kill_worker,
)
from repro.shard import (
    ShardSupervisor,
    ShardedConfig,
    ShardedDatabase,
    SupervisorConfig,
)
from repro.shard.coordinator import DECISION_LOG_FILE, DecisionLog

CHAOS_JSON_VERSION = 1

#: The protocol moments the kill matrix crashes a participant at.
KILL_POINTS = ("prepare", "decide", "after_decide", "serving", "hang")


@dataclass(frozen=True)
class ChaosBenchConfig:
    """Shape of one ``--chaos`` run."""

    n_shards: int = 2
    branches: int = 4
    accounts_per_branch: int = 40
    tellers_per_branch: int = 4
    #: traffic accounts stay below this index; the rest are cold
    #: wild-write targets no transaction ever reads mid-soak
    cold_accounts_per_branch: int = 8
    soak_txns: int = 160
    ops_per_txn: int = 4
    #: every k-th soak transaction is a cross-shard transfer (2PC)
    transfer_every: int = 5
    #: seeded faults spread across the soak (kills, hangs, wild writes)
    soak_faults: int = 9
    #: a hang must outlive the call deadline, or the late reply is just
    #: a slow answer the FIFO drain absorbs rather than a detected hang
    hang_s: float = 3.0
    seed: int = 1999
    #: client-side bound on retries of one transaction
    max_attempts: int = 60
    # ------------------------------------------------- supervisor knobs
    heartbeat_timeout_s: float = 0.3
    call_timeout_s: float = 1.5
    prepare_timeout_s: float = 1.5
    restart_timeout_s: float = 60.0
    heal_timeout_s: float = 60.0

    def quick(self) -> "ChaosBenchConfig":
        """CI smoke variant: same code paths, fewer transactions."""
        return replace(self, soak_txns=60, soak_faults=5)

    def sharded_config(self, workdir: str) -> ShardedConfig:
        return ShardedConfig(
            dir=workdir,
            n_shards=self.n_shards,
            mode="process",
            branches=self.branches,
            scheme="data_codeword",
            # Acked == durable: no group-commit window to excuse a lost
            # transaction, so the "zero lost committed" gate is exact.
            group_commit_size=1,
            quarantine=True,
            quarantine_repair=True,
        )

    def supervisor_config(self) -> SupervisorConfig:
        return SupervisorConfig(
            heartbeat_timeout_s=self.heartbeat_timeout_s,
            call_timeout_s=self.call_timeout_s,
            prepare_timeout_s=self.prepare_timeout_s,
            restart_timeout_s=self.restart_timeout_s,
            max_restarts=10,
        )


def _build(workdir: str, config: ChaosBenchConfig) -> tuple:
    db = ShardedDatabase.create(
        config.sharded_config(workdir),
        branch_table_defs(config, 4 * config.soak_txns * config.ops_per_txn + 64),
    )
    supervisor = ShardSupervisor(db, config.supervisor_config()).attach()
    for b in range(config.branches):
        db.submit_txn(branch_load_ops(config, b))
    # Certify the loaded image and bound any later repair replay.
    db.checkpoint_all()
    return db, supervisor


# ------------------------------------------------------------- clients


def _hid_present(db: ShardedDatabase, supervisor, hid: int, bid: int,
                 config: ChaosBenchConfig) -> bool:
    """Outcome check after an indeterminate failure: did the transaction
    carrying this (unique) history row commit before the worker died?

    History is insert-routed (partitioned by its ``bid`` field), so the
    probe targets the owning shard directly.
    """
    sid = db.partition.shard_of(bid % config.branches)
    deadline = time.monotonic() + config.heal_timeout_s
    while time.monotonic() < deadline:
        try:
            rows = db.shard_call(sid, ("txn", [("query", "history", hid)]))
            return rows[0] is not None
        except SimulatedCrash:
            raise
        except ReproError as exc:
            if not getattr(exc, "retryable", False):
                raise
            supervisor.tick()
            time.sleep(0.02)
    raise ReproError(f"outcome check for hid {hid} did not settle in time")


def _submit_acked(db, supervisor, ops: list, hid: int, bid: int,
                  config: ChaosBenchConfig, stats: dict) -> bool:
    """Submit one transaction following the retryable-error contract.

    Returns True when the transaction is durably applied (acked directly
    or confirmed by the outcome check); ``hid < 0`` disables the outcome
    check (a transaction with no history row, where presumed abort
    already guarantees a failed attempt left nothing durable).
    """
    for attempt in range(config.max_attempts):
        try:
            db.submit_txn(ops)
            if attempt:
                stats["retried_txns"] += 1
            return True
        except SimulatedCrash:
            raise
        except ReproError as exc:
            if not getattr(exc, "retryable", False):
                stats["hard_errors"] += 1
                stats["hard_error_types"].append(type(exc).__name__)
                return False
            stats["retryable_errors"] += 1
            supervisor.tick()
            time.sleep(0.02)
            # The failed attempt's outcome may be indeterminate (killed
            # mid-call after the commit record hit disk); check before
            # retrying so nothing is applied twice.
            if hid >= 0 and _hid_present(db, supervisor, hid, bid, config):
                stats["acked_by_outcome_check"] += 1
                return True
    stats["gave_up"] += 1
    return False


# ---------------------------------------------------------------- soak


def _soak_txn(config: ChaosBenchConfig, rng: random.Random, index: int,
              next_hid: int) -> tuple[list, int, int, int, int]:
    """One soak transaction: (ops, first hid, its bid, next_hid, delta_sum).

    The bid of the first history row rides along because history is
    row-routed: the outcome check needs it to find the owning shard.
    """
    hot = config.accounts_per_branch - config.cold_accounts_per_branch
    first_hid = next_hid
    if config.transfer_every and index % config.transfer_every == 0:
        # Cross-shard transfer: branch b -> branch b+1 (adjacent
        # branches land on different shards when n_shards divides
        # branches evenly).
        b = index % config.branches
        b2 = (b + 1) % config.branches
        src = b + config.branches * rng.randrange(hot)
        dst = b2 + config.branches * rng.randrange(hot)
        amount = rng.randint(1, 999)
        ops = [
            ("add", "account", src, {"balance": -amount}),
            ("add", "account", dst, {"balance": amount}),
            ("insert", "history",
             {"hid": next_hid, "aid": src, "tid": 0, "bid": b, "delta": -amount}),
            ("insert", "history",
             {"hid": next_hid + 1, "aid": dst, "tid": 0, "bid": b2,
              "delta": amount}),
        ]
        return ops, first_hid, b, next_hid + 2, 0
    branch = index % config.branches
    ops, next_hid, delta_sum = branch_txn(
        config, rng, branch, next_hid, config.ops_per_txn,
        hot_accounts=hot, max_delta=999,
    )
    return ops, first_hid, branch, next_hid, delta_sum


def _inject_fault(db, supervisor, config: ChaosBenchConfig,
                  rng: random.Random, stats: dict, wild_writes: list) -> None:
    """One seeded fault against a currently-serving shard.

    Wild-write payloads come from a *separate* rng stream seeded off the
    injection count, so the payload bytes never perturb the seeded fault
    schedule (which shard, which fault, when).
    """
    serving = [
        sid for sid in range(config.n_shards)
        if supervisor.state_of(sid) == "serving"
    ]
    if not serving:
        return
    sid = rng.choice(serving)
    kind = rng.choice(("kill", "hang", "wild_write"))
    try:
        if kind == "kill":
            kill_worker(db, sid)
            stats["kills"] += 1
        elif kind == "hang":
            hang_worker(db, sid, config.hang_s)
            stats["hangs"] += 1
        else:
            # Scribble on a cold account of a branch owned by this
            # shard; no soak transaction reads it, so only the audit
            # (or a restart's image rebuild) can clear it.
            branch = sid % config.branches
            cold = config.branches * (
                config.accounts_per_branch - 1
                - rng.randrange(config.cold_accounts_per_branch)
            )
            aid = branch + cold
            payload = wild_payload(
                random.Random(config.seed * 1000003 + len(wild_writes)), 8
            )
            address = db.wild_write(
                "account", aid, ACCOUNT_SCHEMA.offset_of("balance"), payload
            )
            wild_writes.append(
                {"shard": sid, "aid": aid, "address": address,
                 "restarts_at_injection": supervisor.summary()["shards"][sid][
                     "restarts"]}
            )
            stats["wild_writes"] += 1
    except ReproError:
        # The target died under us (e.g. hang raced a kill); the
        # supervisor picks it up either way.
        stats["injection_races"] += 1


def _survivor_probe(db, supervisor, config: ChaosBenchConfig,
                    stats: dict) -> None:
    """Mid-recovery, a shard that was not faulted must answer now."""
    recovering = [
        sid for sid in range(config.n_shards)
        if supervisor.state_of(sid) != "serving"
    ]
    if not recovering:
        return
    survivors = [
        sid for sid in range(config.n_shards)
        if supervisor.state_of(sid) == "serving"
    ]
    if not survivors:
        return
    # aid == branch index of a branch on the survivor -> single-shard.
    branch = survivors[0] % config.branches
    stats["survivor_probes"] += 1
    try:
        db.submit_txn([("query", "account", branch)])
    except ReproError:
        stats["survivor_probe_failures"] += 1


def run_chaos_soak(base_dir: str, config: ChaosBenchConfig) -> dict:
    workdir = os.path.join(base_dir, "soak")
    db, supervisor = _build(workdir, config)
    stats = {
        "kills": 0, "hangs": 0, "wild_writes": 0, "injection_races": 0,
        "retryable_errors": 0, "retried_txns": 0, "acked_by_outcome_check": 0,
        "hard_errors": 0, "hard_error_types": [], "gave_up": 0,
        "survivor_probes": 0, "survivor_probe_failures": 0,
    }
    wild_writes: list[dict] = []
    acked_hids: list[tuple[int, int]] = []  # (hid, bid) pairs
    expected_delta = 0
    rng = random.Random(config.seed)
    fault_at = sorted(
        rng.sample(range(5, config.soak_txns), k=min(config.soak_faults,
                                                     config.soak_txns - 5))
    )
    try:
        next_hid = 0
        began = time.perf_counter()
        for i in range(config.soak_txns):
            if fault_at and i == fault_at[0]:
                fault_at.pop(0)
                _inject_fault(db, supervisor, config, rng, stats, wild_writes)
            ops, first_hid, first_bid, next_hid, delta_sum = _soak_txn(
                config, rng, i, next_hid
            )
            if _submit_acked(db, supervisor, ops, first_hid, first_bid,
                             config, stats):
                acked_hids.append((first_hid, first_bid))
                expected_delta += delta_sum
            _survivor_probe(db, supervisor, config, stats)
            supervisor.tick()
        healed = supervisor.heal(timeout_s=config.heal_timeout_s)
        wall_s = time.perf_counter() - began

        # ---- scoring against ground truth ----
        lost = 0
        for hid, bid in acked_hids:
            if not _hid_present(db, supervisor, hid, bid, config):
                lost += 1
        summary = supervisor.summary()
        audits = db.audit_all()
        false_negatives = 0
        erased_by_restart = 0
        for injection in wild_writes:
            sid = injection["shard"]
            if convicted(injection["address"], audits[sid][2]):
                continue
            if summary["shards"][sid]["restarts"] > injection["restarts_at_injection"]:
                # The restart rebuilt the image from WAL + checkpoint
                # after the injection; the in-memory scribble is gone,
                # which is a repair, not a miss.
                erased_by_restart += 1
            else:
                false_negatives += 1
        repaired = db.repair_all()
        post_clean = all(clean for clean, _, _ in db.audit_all())
        account_sum = db.sum_field("account", "balance")
        history_sum = db.sum_field("history", "delta")
        conserved = account_sum == expected_delta == history_sum
        return {
            "txns": config.soak_txns,
            "acked": len(acked_hids),
            "wall_s": round(wall_s, 3),
            "healed": healed,
            "lost_committed": lost,
            "conserved": conserved,
            "account_sum": account_sum,
            "history_sum": history_sum,
            "expected_sum": expected_delta,
            "wild_write_false_negatives": false_negatives,
            "wild_writes_erased_by_restart": erased_by_restart,
            "repaired_regions": repaired,
            "post_repair_audit_clean": post_clean,
            "all_serving": all(
                shard["state"] == "serving"
                for shard in summary["shards"].values()
            ),
            "restarts": summary["restarts"],
            "decisions_repaired": summary["decisions_repaired"],
            "unavailability": {
                str(sid): {
                    "windows": shard["unavailability_windows"],
                    "total_s": shard["unavailable_s"],
                    "max_window_s": shard["max_window_s"],
                }
                for sid, shard in summary["shards"].items()
            },
            **stats,
        }
    finally:
        supervisor.detach()
        db.close()
        shutil.rmtree(workdir, ignore_errors=True)


# -------------------------------------------------------- kill matrix


def run_kill_point(base_dir: str, config: ChaosBenchConfig,
                   point: str) -> dict:
    """Kill shard 1 at one protocol moment of a cross-shard transfer."""
    workdir = os.path.join(base_dir, f"kill-{point}")
    db, supervisor = _build(workdir, config)
    victim = 1
    # branch 0 -> shard 0, branch 1 -> shard 1 (branches % n_shards).
    transfer = [
        ("add", "account", 0, {"balance": -30}),
        ("add", "account", 1, {"balance": 30}),
    ]
    stats = {
        "retryable_errors": 0, "retried_txns": 0, "acked_by_outcome_check": 0,
        "hard_errors": 0, "hard_error_types": [], "gave_up": 0,
    }
    try:
        if point == "prepare":
            kill_on_command(db, victim, "txn_prepare")
        elif point == "decide":
            kill_on_command(db, victim, "decide")
        elif point == "after_decide":
            kill_after_decision(db, victim)
        elif point == "serving":
            kill_worker(db, victim)
        elif point == "hang":
            hang_worker(db, victim, config.hang_s)
        else:  # pragma: no cover - driver bug
            raise ValueError(f"unknown kill point {point!r}")

        first_try_acked = False
        try:
            db.submit_txn(transfer)
            first_try_acked = True
        except SimulatedCrash:
            raise
        except ReproError as exc:
            if not getattr(exc, "retryable", False):
                stats["hard_errors"] += 1
                stats["hard_error_types"].append(type(exc).__name__)

        # Degraded-mode serving: while the victim recovers, the
        # survivor answers and the victim fails fast.
        survivor_began = time.perf_counter()
        survivor_row = db.submit_txn([("query", "account", 0)])[0]
        survivor_latency_s = time.perf_counter() - survivor_began
        victim_recovering = supervisor.state_of(victim) != "serving"
        fail_fast_s = None
        if victim_recovering:
            fail_began = time.perf_counter()
            try:
                db.submit_txn([("query", "account", 1)])
            except ReproError as exc:
                if getattr(exc, "retryable", False):
                    fail_fast_s = time.perf_counter() - fail_began

        healed = supervisor.heal(timeout_s=config.heal_timeout_s)
        acked = first_try_acked
        if not acked and not stats["hard_errors"]:
            acked = _submit_acked(db, supervisor, transfer, -1, 0,
                                  config, stats)

        balances = (
            db.submit_txn([("query", "account", 0)])[0]["balance"],
            db.submit_txn([("query", "account", 1)])[0]["balance"],
        )
        committed_gids = DecisionLog.load_committed(
            os.path.join(db.config.dir, DECISION_LOG_FILE)
        )
        summary = supervisor.summary()
        return {
            "point": point,
            "victim_shard": victim,
            "first_try_acked": first_try_acked,
            "acked": acked,
            "applied_exactly_once": balances == (-30, 30),
            "balances": balances,
            "decision_log_agrees": len(committed_gids) == (1 if acked else 0),
            "survivor_served_mid_recovery": survivor_row is not None,
            "survivor_latency_s": round(survivor_latency_s, 4),
            "victim_fail_fast_s": (
                round(fail_fast_s, 6) if fail_fast_s is not None else None
            ),
            "healed": healed,
            "all_serving": all(
                shard["state"] == "serving"
                for shard in summary["shards"].values()
            ),
            "audits_clean": all(clean for clean, _, _ in db.audit_all()),
            "restarts": summary["restarts"],
            "decisions_repaired": summary["decisions_repaired"],
            **stats,
        }
    finally:
        supervisor.detach()
        db.close()
        shutil.rmtree(workdir, ignore_errors=True)


def run_kill_matrix(base_dir: str, config: ChaosBenchConfig) -> list[dict]:
    return [run_kill_point(base_dir, config, point) for point in KILL_POINTS]


# --------------------------------------------------------------- gates


def chaos_gates(matrix: list[dict], soak: dict) -> dict:
    matrix_ok = all(
        p["acked"] and p["applied_exactly_once"] and p["decision_log_agrees"]
        and p["survivor_served_mid_recovery"] and p["healed"]
        and p["all_serving"] and p["audits_clean"] and not p["hard_errors"]
        for p in matrix
    )
    return {
        "matrix_ok": matrix_ok,
        "lost_committed": soak["lost_committed"],
        "conserved": soak["conserved"],
        "false_negatives": soak["wild_write_false_negatives"],
        "hard_errors": soak["hard_errors"] + sum(p["hard_errors"] for p in matrix),
        "gave_up": soak["gave_up"],
        "survivor_probe_failures": soak["survivor_probe_failures"],
        "healed": soak["healed"] and soak["all_serving"],
    }


def chaos_payload(matrix: list[dict], soak: dict, gates: dict,
                  config: ChaosBenchConfig, quick: bool) -> dict:
    return {
        "version": CHAOS_JSON_VERSION,
        "quick": quick,
        "n_shards": config.n_shards,
        "soak_txns": config.soak_txns,
        "soak_faults": config.soak_faults,
        "seed": config.seed,
        "kill_matrix": matrix,
        "soak": soak,
        "gates": gates,
    }


def render_chaos_table(matrix: list[dict]) -> str:
    rows = [
        [
            p["point"],
            "yes" if p["first_try_acked"] else "retry",
            "yes" if p["applied_exactly_once"] else "NO",
            "yes" if p["survivor_served_mid_recovery"] else "NO",
            (
                f"{p['victim_fail_fast_s'] * 1000:.1f}"
                if p["victim_fail_fast_s"] is not None
                else "-"
            ),
            str(p["restarts"]),
            "yes" if p["all_serving"] else "NO",
        ]
        for p in matrix
    ]
    return render_table(
        [
            "Kill point",
            "Acked",
            "Exactly once",
            "Survivor served",
            "Fail-fast ms",
            "Restarts",
            "Healed",
        ],
        rows,
        title="Targeted worker-kill matrix (cross-shard transfer, "
        "supervised process mode)",
    )


# --------------------------------------------------------- registration


def _add_arguments(parser) -> None:
    parser.add_argument(
        "--chaos",
        action="store_true",
        help="run the supervised chaos soak (process mode: targeted "
        "worker kills at 2PC protocol moments plus a random kill/hang/"
        "wild-write soak; exit 1 on any lost committed transaction, "
        "detection false negative, or unhealed shard)",
    )
    parser.add_argument(
        "--chaos-json",
        metavar="PATH",
        default="BENCH_chaos.json",
        help="where --chaos writes its JSON artifact "
        "(default: BENCH_chaos.json)",
    )


def _run(args) -> int:
    config = ChaosBenchConfig().quick() if args.quick else ChaosBenchConfig()

    def run(workdir: str) -> tuple[dict, list[str]]:
        matrix = run_kill_matrix(workdir, config)
        print(render_chaos_table(matrix))
        print()
        soak = run_chaos_soak(workdir, config)
        print(
            f"Chaos soak: {soak['acked']}/{soak['txns']} transactions acked "
            f"under {soak['kills']} kills, {soak['hangs']} hangs, "
            f"{soak['wild_writes']} wild writes "
            f"({soak['restarts']} restarts, "
            f"{soak['decisions_repaired']} decisions repaired, "
            f"{soak['retryable_errors']} retryable errors surfaced); "
            f"lost committed: {soak['lost_committed']}, "
            f"conserved: {soak['conserved']}, "
            f"wild-write false negatives: "
            f"{soak['wild_write_false_negatives']} "
            f"({soak['wild_writes_erased_by_restart']} erased by restart)."
        )
        gates = chaos_gates(matrix, soak)
        failures = []
        if not gates["matrix_ok"]:
            failures.append("targeted kill matrix breached a guarantee")
        if gates["lost_committed"]:
            failures.append(f"{gates['lost_committed']} acked transactions lost")
        if not gates["conserved"]:
            failures.append("balance sums not conserved")
        if gates["false_negatives"]:
            failures.append("wild-write false negatives")
        if gates["hard_errors"]:
            failures.append(f"{gates['hard_errors']} non-retryable errors surfaced")
        if gates["gave_up"]:
            failures.append("client retry budget exhausted")
        if gates["survivor_probe_failures"]:
            failures.append("surviving shard failed to serve mid-recovery")
        if not gates["healed"]:
            failures.append("shards did not heal to SERVING")
        return chaos_payload(matrix, soak, gates, config, args.quick), failures

    return run_gated("chaos", args.chaos_json, run)


CHAOS_SUITE = Suite(
    name="chaos",
    add_arguments=_add_arguments,
    run=_run,
    selected=lambda args: args.chaos,
)
