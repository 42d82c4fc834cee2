"""Chaos harness: supervised shards under worker-level faults.

Every schedule is one key of the campaign kernel's seeded loop, on a
fresh supervised two-shard process-mode database:

- **Kill points** (``prepare``, ``decide``, ``after_decide``,
  ``serving``, ``hang``): a cross-shard transfer driven into a worker
  kill armed at one protocol moment -- at ``txn_prepare`` (vote never
  cast -> presumed abort, retryable), at ``decide`` and right after the
  coordinator fsyncs the commit decision (decision durable, delivery
  lost -> the caller still sees SUCCESS; the supervisor completes the
  branch), plus a plain kill and a hang.
- **Soak** (``soak``): single-branch transactions and cross-shard
  transfers submitted synchronously while kills, hangs and wild writes
  land at seeded transaction indices; after the final heal one more cold
  wild write lands on each shard, so the audit always has one to convict.

Clients follow the error taxonomy: a retryable failure ticks the
supervisor (a tick restarts a dead shard before it returns) and
retries.  A worker killed *mid-call* leaves its transaction's outcome
indeterminate (group commit size 1: it may have committed just before
dying), so the retry loop first checks for the transaction's unique
history row -- the outcome-check-then-retry discipline of
``docs/errors.md``.

Scored on ground truth: no acked transaction lost, every account reads
back exactly the value the :class:`~repro.faults.campaign.Ledger`
committed and the balance and history sums agree (no double-applies),
every wild write convicted by audit or provably erased by a later
restart (and a soak convicts at least one), the decision log agrees with
the acked transfers, a surviving shard answers while another recovers,
and every shard is SERVING at the end.
"""

from __future__ import annotations

import os
import random
import time
from collections import deque
from dataclasses import dataclass, field, replace

from repro.bench.sharded import account_reader, load_branches
from repro.bench.suites import harness_payload, harness_suite, render_schedules
from repro.bench.tpcb import (
    ACCOUNT_SCHEMA,
    branch_table_defs,
    branch_txn,
)
from repro.errors import ReproError, SimulatedCrash
from repro.faults.campaign import (
    HarnessOutcome,
    Ledger,
    close_quietly,
    convicted,
    gate_lines,
    run_schedules,
)
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

#: The protocol moments the kill schedules crash a participant at, and
#: how each arms its fault against the victim shard.
ARM = {
    "prepare": lambda db, sid, spec: kill_on_command(db, sid, "txn_prepare"),
    "decide": lambda db, sid, spec: kill_on_command(db, sid, "decide"),
    "after_decide": lambda db, sid, spec: kill_after_decision(db, sid),
    "serving": lambda db, sid, spec: kill_worker(db, sid),
    "hang": lambda db, sid, spec: hang_worker(db, sid, spec.hang_s),
}
KILL_POINTS = tuple(ARM)
#: Every schedule key the harness runs.
CHAOS_KEYS = (*KILL_POINTS, "soak")

#: Two shards: branch b lives on shard b % 2, so a transfer between
#: adjacent branches is always cross-shard.
N_SHARDS = 2
#: Accounts per branch (the top ones) no transaction touches: the soak's
#: wild-write targets.
COLD_ACCOUNTS = 8
#: Every this-many-th soak transaction is a cross-shard transfer (2PC).
TRANSFER_EVERY = 5
#: The kill schedules' transfer, shard 0's account 0 -> shard 1's account 1.
TRANSFER = [
    ("add", "account", 0, {"balance": -30}),
    ("add", "account", 1, {"balance": 30}),
]


@dataclass(frozen=True)
class ChaosSpec:
    """Shape of one ``--chaos`` run (everything needed to reproduce it)."""

    seeds: tuple[int, ...] = (1999, 2000, 2001)
    branches: int = 4
    accounts_per_branch: int = 40
    tellers_per_branch: int = 4
    soak_txns: int = 160
    ops_per_txn: int = 4
    #: seeded faults spread across the soak (kills, hangs, wild writes)
    soak_faults: int = 9
    #: a hang must outlive the call deadline, or the late reply is just
    #: a slow answer the FIFO drain absorbs rather than a detected hang
    hang_s: float = 3.0
    call_timeout_s: float = 1.5
    heartbeat_timeout_s: float = 0.3
    #: bound on the retries of one transaction, and on the supervisor
    #: ticks one outcome check waits for its shard
    max_attempts: int = 60

    def quick(self) -> "ChaosSpec":
        """CI smoke variant: same code paths, fewer transactions."""
        return replace(self, seeds=(1999,), soak_txns=60, soak_faults=5)


@dataclass(kw_only=True)
class ChaosOutcome(HarnessOutcome):
    """One kill-point or soak schedule's score."""

    txns: int = 0
    acked: int = 0
    acked_transfers: int = 0
    first_try_acked: bool | None = None
    retryable_errors: int = 0
    retried_txns: int = 0
    acked_by_outcome_check: int = 0
    hard_errors: int = 0
    hard_error_types: list = field(default_factory=list)
    gave_up: int = 0
    kills: int = 0
    hangs: int = 0
    injection_races: int = 0
    survivor_probes: int = 0
    survivor_probe_failures: int = 0
    victim_fail_fast_ms: float | None = None
    healed: bool = False
    all_serving: bool = False
    audits_clean: bool = True
    decision_log_agrees: bool = True
    lost_committed: int = 0
    #: account balance sum == history delta sum == the acked deltas' sum
    conserved: bool = True
    wild_writes_convicted: int = 0
    wild_writes_erased_by_restart: int = 0
    restarts: int = 0
    decisions_repaired: int = 0
    #: The supervisor's per-shard summary: state, restarts, unavailability.
    shards: dict = field(default_factory=dict)

    @property
    def applied_exactly_once(self) -> bool:
        return self.acked == self.txns and self.value_ok

    @property
    def survivor_served_mid_recovery(self) -> bool:
        return not self.survivor_probe_failures

    def breaches(self) -> list[str]:
        checks = (
            (self.acked < self.txns, f"{self.acked} of {self.txns} transactions acked"),
            (self.lost_committed, f"{self.lost_committed} acked transactions lost"),
            (not self.conserved, "balance sums not conserved"),
            (self.hard_errors, f"{self.hard_errors} non-retryable errors surfaced"),
            (self.gave_up, "client retry budget exhausted"),
            (self.survivor_probe_failures,
             "surviving shard failed to serve mid-recovery"),
            (not (self.healed and self.all_serving),
             "shards did not heal to SERVING"),
            (not self.audits_clean, "an audit failed after the kill"),
            (not self.decision_log_agrees,
             "decision log disagrees with the acked transfers"),
            (self.key == "soak" and not self.wild_writes_convicted,
             "no wild write convicted: the false-negative gate checked nothing"),
        )
        return super().breaches() + [line for broken, line in checks if broken]


class ChaosSchedule:
    """One kill-point or soak schedule of the campaign kernel's loop."""

    def __init__(self, spec, key, seed, index, work_dir, rng) -> None:
        self.spec = spec
        self.work_dir = work_dir
        self.rng = rng
        self.db = self.supervisor = self.ledger = None
        self.outcome = ChaosOutcome(key=key, seed=seed, index=index)

    def close(self) -> None:
        if self.supervisor is not None:
            self.supervisor.detach()
        close_quietly(self.db)

    def run(self) -> ChaosOutcome:
        spec = self.spec
        self.db = ShardedDatabase.create(
            ShardedConfig(
                dir=self.work_dir,
                n_shards=N_SHARDS,
                mode="process",
                branches=spec.branches,
                scheme="data_codeword",
                # Acked == durable: no group-commit window excuses a
                # lost transaction, so "zero lost committed" is exact.
                group_commit_size=1,
                quarantine=True,
                quarantine_repair=True,
            ),
            branch_table_defs(spec, 4 * spec.soak_txns * spec.ops_per_txn + 64),
        )
        self.supervisor = ShardSupervisor(
            self.db,
            SupervisorConfig(
                heartbeat_timeout_s=spec.heartbeat_timeout_s,
                call_timeout_s=spec.call_timeout_s,
                prepare_timeout_s=None,  # the call deadline
                max_restarts=10,
            ),
        ).attach()
        load_branches(self.db, spec)
        # Certify the loaded image and bound any later repair replay.
        self.db.checkpoint_all()
        self.ledger = Ledger(range(spec.branches * spec.accounts_per_branch))
        if self.outcome.key == "soak":
            self._soak()
        else:
            self._kill_point()
        return self.outcome

    # ----------------------------------------------------------- clients

    def _hid_present(self, hid: int, bid: int) -> bool:
        """Outcome check after an indeterminate failure: did the
        transaction carrying this (unique) history row commit before the
        worker died?  History is insert-routed (partitioned by its
        ``bid`` field), so the probe targets the owning shard directly.
        """
        sid = self.db.partition.shard_of(bid % self.spec.branches)
        for _ in range(self.spec.max_attempts):
            try:
                rows = self.db.shard_call(sid, ("txn", [("query", "history", hid)]))
                return rows[0] is not None
            except SimulatedCrash:
                raise
            except ReproError as exc:
                if not getattr(exc, "retryable", False):
                    raise
                self.supervisor.tick()
        raise ReproError(f"outcome check for hid {hid} never settled")

    def _submit_acked(self, ops: list, hid: int = -1, bid: int = 0) -> bool:
        """Submit one transaction following the retryable-error contract.

        Returns True when the transaction is durably applied (acked
        directly or confirmed by the outcome check); ``hid < 0`` disables
        the outcome check (a transaction with no history row, where
        presumed abort already guarantees a failed attempt left nothing
        durable).
        """
        out = self.outcome
        for attempt in range(self.spec.max_attempts):
            try:
                self.db.submit_txn(ops)
                if attempt:
                    out.retried_txns += 1
                return True
            except SimulatedCrash:
                raise
            except ReproError as exc:
                if not getattr(exc, "retryable", False):
                    out.hard_errors += 1
                    out.hard_error_types.append(type(exc).__name__)
                    return False
                out.retryable_errors += 1
                # A tick restarts a dead shard before it returns.
                self.supervisor.tick()
                # The failed attempt's outcome may be indeterminate
                # (killed mid-call after the commit record hit disk);
                # check before retrying so nothing is applied twice.
                if hid >= 0 and self._hid_present(hid, bid):
                    out.acked_by_outcome_check += 1
                    return True
        out.gave_up += 1
        return False

    def _survivor_probe(self, sid: int) -> None:
        """Shard ``sid``, not faulted, must answer now with the row of
        account ``aid`` == its branch."""
        self.outcome.survivor_probes += 1
        probe = [("query", "account", sid % self.spec.branches)]
        try:
            row = self.db.submit_txn(probe)[0]
        except ReproError:
            row = None
        self.outcome.survivor_probe_failures += row is None

    # -------------------------------------------------------- kill point

    def _kill_point(self) -> None:
        """Kill shard 1 at one protocol moment of a cross-shard transfer."""
        db, out = self.db, self.outcome
        victim = 1
        out.faults = [(0, out.key, victim, None)]
        out.txns = 1
        ARM[out.key](db, victim, self.spec)
        out.first_try_acked = False
        try:
            db.submit_txn(TRANSFER)
            out.first_try_acked = True
        except SimulatedCrash:
            raise
        except ReproError as exc:
            if not getattr(exc, "retryable", False):
                out.hard_errors += 1
                out.hard_error_types.append(type(exc).__name__)

        # Degraded-mode serving: while the victim recovers, the
        # survivor answers and the victim fails fast.
        self._survivor_probe(0)
        if self.supervisor.state_of(victim) != "serving":
            began = time.perf_counter()
            try:
                db.submit_txn([("query", "account", 1)])
            except ReproError as exc:
                failed_ms = 1000 * (time.perf_counter() - began)
                if getattr(exc, "retryable", False):
                    out.victim_fail_fast_ms = round(failed_ms, 3)

        out.healed = self.supervisor.heal()
        acked = out.first_try_acked or (
            not out.hard_errors and self._submit_acked(TRANSFER)
        )
        if acked:
            self.ledger.commit_adds(TRANSFER, "account")
            out.acked = out.acked_transfers = 1
        out.audits_clean = all(clean for clean, _, _ in db.audit_all())
        self._score([], [], 0)

    # -------------------------------------------------------------- soak

    def _soak(self) -> None:
        spec, rng, out = self.spec, self.rng, self.outcome
        out.txns = spec.soak_txns

        def cold_aid(sid: int) -> int:
            branch = sid % spec.branches
            return branch + spec.branches * (
                spec.accounts_per_branch - 1 - rng.randrange(COLD_ACCOUNTS)
            )

        # The fault schedule, drawn up front: which fault, on which
        # shard, before which transaction.
        for i in sorted(rng.sample(range(5, spec.soak_txns),
                                   min(spec.soak_faults, spec.soak_txns - 5))):
            kind = rng.choice(("kill", "hang", "wild_write"))
            sid = rng.randrange(N_SHARDS)
            out.faults.append(
                (i, kind, sid, cold_aid(sid) if kind == "wild_write" else None)
            )
        # One cold wild write per shard after the final heal: no restart
        # can erase it, so the scoring audit always has one to convict.
        out.faults += [
            (spec.soak_txns, "wild_write", sid, cold_aid(sid))
            for sid in range(N_SHARDS)
        ]

        faults = deque(out.faults)
        wild_writes: list[tuple[int, int, int]] = []
        acked_hids: list[tuple[int, int]] = []
        expected = 0
        next_hid = 0
        for i in range(spec.soak_txns):
            while faults and faults[0][0] == i:
                self._inject(*faults.popleft(), wild_writes)
            first_hid = next_hid
            if i % TRANSFER_EVERY == 0:
                ops, bid, next_hid, delta_sum = self._transfer(i, next_hid)
            else:
                bid = i % spec.branches
                ops, next_hid, delta_sum = branch_txn(
                    spec, rng, bid, next_hid, spec.ops_per_txn,
                    hot_accounts=spec.accounts_per_branch - COLD_ACCOUNTS,
                    max_delta=999,
                )
            if self._submit_acked(ops, first_hid, bid):
                acked_hids.append((first_hid, bid))
                expected += delta_sum
                self.ledger.commit_adds(ops, "account")
                out.acked += 1
                out.acked_transfers += i % TRANSFER_EVERY == 0
            serving = [
                self.supervisor.state_of(sid) == "serving"
                for sid in range(N_SHARDS)
            ]
            if any(serving) and not all(serving):
                self._survivor_probe(serving.index(True))
            self.supervisor.tick()
        out.healed = self.supervisor.heal()
        while faults:
            self._inject(*faults.popleft(), wild_writes)
        self._score(wild_writes, acked_hids, expected)

    def _transfer(self, index: int, next_hid: int) -> tuple[list, int, int, int]:
        """Cross-shard transfer branch b -> b+1: ``(ops, bid of the first
        history row, next_hid, delta_sum)``."""
        spec, rng = self.spec, self.rng
        hot = spec.accounts_per_branch - COLD_ACCOUNTS
        b = index % spec.branches
        b2 = (b + 1) % spec.branches
        src = b + spec.branches * rng.randrange(hot)
        dst = b2 + spec.branches * rng.randrange(hot)
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
        return ops, b, next_hid + 2, 0

    def _inject(self, op: int, kind: str, sid: int, aid: int | None,
                wild_writes: list) -> None:
        """One scheduled fault against a serving shard; a target that is
        not serving (or dies under the injection) is a race, and the
        supervisor picks it up either way."""
        out = self.outcome
        if self.supervisor.state_of(sid) != "serving":
            out.injection_races += 1
            return
        try:
            if kind == "kill":
                kill_worker(self.db, sid)
                out.kills += 1
            elif kind == "hang":
                hang_worker(self.db, sid, self.spec.hang_s)
                out.hangs += 1
            else:
                # The payload has its own rng, so it never perturbs the
                # traffic stream.
                payload = wild_payload(
                    random.Random(f"{out.seed}:{out.key}:{out.index}:{op}:{sid}"), 8
                )
                address = self.db.wild_write(
                    "account", aid, ACCOUNT_SCHEMA.offset_of("balance"), payload
                )
                restarts = self.supervisor.summary()["shards"][sid]["restarts"]
                wild_writes.append((sid, address, restarts))
        except ReproError:
            out.injection_races += 1

    # ----------------------------------------------------------- scoring

    def _score(self, wild_writes: list, acked_hids: list, expected: int) -> None:
        """Ground truth after the final heal: lost commits, wild writes
        convicted or erased, repair, exact values, sums, supervision."""
        db, out = self.db, self.outcome
        out.lost_committed = sum(
            1 for hid, bid in acked_hids if not self._hid_present(hid, bid)
        )
        summary = self.supervisor.summary()
        audits = db.audit_all()
        for sid, address, restarts in wild_writes:
            if summary["shards"][sid]["restarts"] > restarts:
                # A certified restart rebuilt the image from WAL +
                # checkpoint after the injection; the in-memory scribble
                # is gone (a later one may share its region, so the final
                # audit's ranges say nothing about it).
                out.wild_writes_erased_by_restart += 1
            elif convicted(address, audits[sid][2]):
                out.wild_writes_convicted += 1
        out.score({
            "injected": len(wild_writes),
            "detected": out.wild_writes_convicted,
            "false_negatives": len(wild_writes) - out.wild_writes_convicted
            - out.wild_writes_erased_by_restart,
            "repaired_regions": db.repair_all(),
            "post_repair_audit_clean": all(clean for clean, _, _ in db.audit_all()),
        }, out.txns)
        unreadable, wrong = self.ledger.check(account_reader(db), exact=True)
        out.value_ok = not (unreadable or wrong)
        out.conserved = (
            db.sum_field("account", "balance") == expected
            == db.sum_field("history", "delta")
        )
        committed = DecisionLog.load_committed(
            os.path.join(db.config.dir, DECISION_LOG_FILE)
        )
        out.decision_log_agrees = len(committed) == out.acked_transfers
        out.all_serving = all(
            shard["state"] == "serving" for shard in summary["shards"].values()
        )
        out.restarts = summary["restarts"]
        out.decisions_repaired = summary["decisions_repaired"]
        out.shards = summary["shards"]


def _run(args, workdir: str) -> tuple[dict, list[str]]:
    spec = ChaosSpec().quick() if args.quick else ChaosSpec()
    outcomes = run_schedules(spec, CHAOS_KEYS, 1, ChaosSchedule, workdir)
    print(render_schedules(
        "Worker kills at 2PC protocol moments (cross-shard transfer, "
        "supervised process mode)",
        [o for o in outcomes if o.key != "soak"],
        "first_try_acked", "applied_exactly_once",
        "survivor_served_mid_recovery", "victim_fail_fast_ms", "restarts",
        "all_serving",
    ))
    print()
    print(render_schedules(
        f"Chaos soak: {spec.soak_txns} transactions, {spec.soak_faults} "
        "seeded kills/hangs/wild writes, then one cold wild write per shard",
        [o for o in outcomes if o.key == "soak"],
        "acked", "kills", "hangs", "injected", "wild_writes_convicted",
        "wild_writes_erased_by_restart", "false_negatives", "restarts",
        "retryable_errors", "lost_committed", "conserved", "value_ok",
    ))
    return harness_payload(spec, outcomes, args.quick), gate_lines(outcomes)


CHAOS_SUITE = harness_suite(
    "chaos",
    "run the supervised chaos harness (process mode: worker kills at 2PC "
    "protocol moments plus a seeded kill/hang/wild-write soak; exit 1 on "
    "any lost committed transaction, value read back wrong, detection "
    "false negative, or unhealed shard)",
    _run,
)
