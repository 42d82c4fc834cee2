"""Seeded fault campaigns: randomized schedules scored against ground truth.

A *schedule* is one randomized run: a small transaction workload with one
addressing fault (Section 3's error model: wild writes, bit flips, copy
overruns) or a torn flush injected mid-stream, optionally composed with a
deterministic crash at a named durability boundary
(:mod:`repro.faults.crashpoints`).  The campaign replays many schedules
per (seed, scheme) configuration and scores what the protection stack
reported against the injector's ground-truth event list:

* **detection stage + latency** -- which mechanism caught the fault
  (read precheck, periodic audit, checkpoint certification, the final
  sweep) and how many operations after injection;
* **false negatives** -- a direct in-image fault that survives to the end
  of the schedule undetected by a *full* audit.  A fault erased by a
  crash (the corruption lived only in volatile state recovery rebuilds)
  is scored ``erased``, not a false negative -- the final full audit
  proves the image clean;
* **repair correctness** -- after detection, the scheme-appropriate
  repair (cache recovery for audit-based schemes, delete-transaction
  restart recovery for read logging) must leave a fully clean image and
  committed values intact;
* **quarantine honesty** -- once a region is quarantined, reads
  overlapping it must raise
  :class:`~repro.errors.QuarantinedRegionError`; a read that returns
  bytes differing from the last committed value is *served garbage* and
  fails the campaign.

Determinism: every schedule derives its own ``random.Random`` from the
string ``"{seed}:{scheme}:{index}"`` (string seeding is stable across
processes, unlike ``hash``), so a campaign is exactly reproducible from
its spec.

This module is also the campaign kernel every fault harness scores
with: the :class:`Outcome` base, the seeded schedule loop
(:func:`run_schedules`), the account bank and its committed-value
:class:`Ledger`, the convicted-address predicate with the detect ->
quarantine -> repair -> re-audit tail (:func:`score_injections`), and
the scoreboard columns and percentile every campaign reports.
"""

from __future__ import annotations

import os
import random
import shutil
from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterable

from repro.errors import (
    ConfigError,
    CorruptionDetected,
    QuarantinedRegionError,
    SimulatedCrash,
)
from repro.faults.crashpoints import (
    FORWARD_CRASH_POINTS,
    RECOVERY_CRASH_POINTS,
)
from repro.faults.injector import FaultInjector
from repro.storage.database import Database, DBConfig
from repro.storage.schema import Field, FieldType, Schema
from repro.txn.transaction import TxnStatus

#: Fault kinds that scribble directly on the in-memory image -- the class
#: the codeword schemes must detect (zero false negatives required).
DIRECT_FAULT_KINDS = ("corrupt_record", "wild_write", "bit_flip", "copy_overrun")

#: Scheme stacks a default campaign exercises (ISSUE acceptance set).
DEFAULT_SCHEMES = (
    "data_codeword",
    "read_precheck",
    "read_logging",
    "data_cw+cw_read_logging",
)

#: The campaign bank's one table, ``acct``.
BANK_SCHEMA = Schema([Field("id", FieldType.INT64), Field("balance", FieldType.INT64)])


# ------------------------------------------------------------ the kernel


@dataclass
class Outcome:
    """Score of one schedule against ground truth (every campaign's fields)."""

    seed: int
    index: int
    fault_op: int = -1
    detection_stage: str = "none"
    detection_op: int | None = None
    false_negative: bool = False
    value_ok: bool = True
    error: str | None = None

    @property
    def detection_latency(self) -> int | None:
        if self.detection_op is None:
            return None
        return self.detection_op - self.fault_op

    def on_detect(self, stage: str, op: int) -> None:
        """Record a detection; the first one wins."""
        if self.detection_op is None:
            self.detection_stage = stage
            self.detection_op = op


@dataclass
class CampaignOutcomes:
    """A campaign's spec and every schedule outcome, in run order."""

    spec: object
    outcomes: list = field(default_factory=list)

    @property
    def false_negatives(self) -> list:
        return [o for o in self.outcomes if o.false_negative]

    @property
    def errors(self) -> list:
        return [o for o in self.outcomes if o.error is not None]


def spec_payload(spec) -> dict:
    """Every field of a campaign spec, JSON-shaped (tuples as lists), so
    ``SpecClass(**payload)`` reproduces the run."""
    return {
        name: list(value) if isinstance(value, tuple) else value
        for name, value in asdict(spec).items()
    }


def detection_latencies(rows: Iterable[Outcome]) -> list[int]:
    """Sorted detection latencies (ops) of the rows that saw a detection."""
    return sorted(
        o.detection_latency for o in rows if o.detection_latency is not None
    )


def score_columns(rows: list[Outcome], latencies: list[int]) -> dict:
    """The scoreboard columns every campaign reports for one group of rows.

    ``latencies`` are the detection latencies the group is scored on (a
    campaign may score only its in-image faults), so ``detected`` counts
    exactly those detections.
    """
    stages = Counter(o.detection_stage for o in rows)
    return {
        "schedules": len(rows),
        "detected": len(latencies),
        "false_negatives": sum(1 for o in rows if o.false_negative),
        "mean_detection_latency_ops": (
            round(sum(latencies) / len(latencies), 2) if latencies else None
        ),
        "stages": dict(sorted(stages.items())),
        "values_ok": sum(1 for o in rows if o.value_ok),
        "errors": sum(1 for o in rows if o.error is not None),
    }


def percentile(sorted_values: list, fraction: float) -> float:
    """Nearest-rank percentile of an ascending list (0.0 when empty)."""
    if not sorted_values:
        return 0.0
    index = min(
        len(sorted_values) - 1, int(round(fraction * (len(sorted_values) - 1)))
    )
    return float(sorted_values[index])


def run_schedules(spec, keys: Iterable[str], per_key: int, schedule,
                  base_dir: str) -> list:
    """The seeded schedule loop every campaign runs: key -> seed -> index.

    Each schedule gets a fresh directory and its own
    ``random.Random(f"{seed}:{key}:{index}")``; ``schedule(spec, key,
    seed, index, work_dir, rng)`` builds it, ``.run()`` returns its
    outcome and ``.close()`` releases it.  An exception is scored into
    ``outcome.error``, not raised: one bad schedule must not hide the
    rest of the campaign's scoreboard.
    """
    os.makedirs(base_dir, exist_ok=True)
    outcomes = []
    for key in keys:
        for seed in spec.seeds:
            for index in range(per_key):
                work_dir = os.path.join(
                    base_dir, f"{key.replace('+', '_')}-s{seed}-{index}"
                )
                shutil.rmtree(work_dir, ignore_errors=True)
                os.makedirs(work_dir)
                rng = random.Random(f"{seed}:{key}:{index}")
                run = schedule(spec, key, seed, index, work_dir, rng)
                try:
                    outcome = run.run()
                except Exception as exc:  # scored, not raised
                    run.outcome.error = f"{type(exc).__name__}: {exc}"
                    outcome = run.outcome
                finally:
                    run.close()
                    shutil.rmtree(work_dir, ignore_errors=True)
                outcomes.append(outcome)
    return outcomes


class Ledger:
    """Committed-value ground truth for the bank's accounts.

    ``slots`` maps an account id to its record slot; ``history`` holds
    every value ever committed to it, initial balance first.  Without a
    crash the last committed value must be exact; after one (a lost
    group-commit window, rolled-back or deleted transactions) any value
    in the history is acceptable, but bytes from outside it are
    corruption served as data.
    """

    def __init__(self) -> None:
        self.slots: dict[int, int] = {}
        self.history: dict[int, list[int]] = {}

    def commit(self, acct: int, value: int) -> None:
        self.history[acct].append(value)

    def admits(self, acct: int, value: int, exact: bool = False) -> bool:
        history = self.history[acct]
        return value == history[-1] if exact else value in history

    def check(self, db: Database, exact: bool) -> tuple[list[int], list[int]]:
        """Read every account back: ``(unreadable, wrong)`` account ids.

        Unreadable accounts are still fenced by the protection stack
        (honest, but not repaired); wrong ones hold a value the ledger
        does not admit.
        """
        table = db.table("acct")
        unreadable: list[int] = []
        wrong: list[int] = []
        for acct, slot in self.slots.items():
            txn = db.begin()
            try:
                row = table.read(txn, slot)
            except (QuarantinedRegionError, CorruptionDetected):
                unreadable.append(acct)
                continue
            finally:
                abort_if_active(db, txn)
            if not self.admits(acct, row["balance"], exact):
                wrong.append(acct)
        return unreadable, wrong


def abort_if_active(db: Database, txn) -> None:
    """End a read-only probe transaction a failed read may already have ended."""
    if txn.status is TxnStatus.ACTIVE:
        db.abort(txn)


def close_quietly(*nodes) -> None:
    """Release what a schedule opened; a node it crashed may refuse."""
    for node in nodes:
        if node is not None:
            try:
                node.close()
            except Exception:
                pass


def open_bank(config: DBConfig, accounts: int,
              capacity: int) -> tuple[Database, Ledger]:
    """A started database whose ``acct`` table holds ``accounts`` rows
    (``balance = 1000 + id``, one committed transaction), plus the ledger
    that vouches for them.  ``capacity`` fixes the record addresses."""
    db = Database(config)
    try:
        db.create_table("acct", BANK_SCHEMA, capacity=capacity, key_field="id")
        db.start()
        ledger = Ledger()
        table = db.table("acct")
        txn = db.begin()
        for i in range(accounts):
            ledger.slots[i] = table.insert(txn, {"id": i, "balance": 1000 + i})
            ledger.history[i] = [1000 + i]
        db.commit(txn)
    except BaseException:
        close_quietly(db)
        raise
    return db, ledger


def convicted(address: int, byte_ranges: Iterable[tuple[int, int]]) -> bool:
    """Did an audit convict the byte at ``address``?

    ``byte_ranges`` are the ``(start, length)`` spans an audit reported
    corrupt; an injection whose address falls in none is a miss.
    """
    return any(start <= address < start + length for start, length in byte_ranges)


def score_injections(addresses: list[int], byte_ranges, quarantined: int,
                     repair: Callable[[], int],
                     audit_clean: Callable[[], bool]) -> dict:
    """Detect -> quarantine -> repair -> re-audit, scored on ground truth.

    ``byte_ranges`` come from the detection audit, ``quarantined`` is the
    region count that audit fenced; ``repair()`` returns the regions it
    restored and ``audit_clean()`` re-certifies the repaired image.
    """
    detected = sum(1 for address in addresses if convicted(address, byte_ranges))
    return {
        "injected": len(addresses),
        "detected": detected,
        "false_negatives": len(addresses) - detected,
        "quarantined_regions": quarantined,
        "repaired_regions": repair(),
        "post_repair_audit_clean": audit_clean(),
    }


# ----------------------------------------------------- the fault campaign


@dataclass(frozen=True)
class CampaignSpec:
    """Shape of one campaign (everything needed to reproduce it)."""

    seeds: tuple[int, ...] = (1, 2, 3)
    schemes: tuple[str, ...] = DEFAULT_SCHEMES
    schedules_per_config: int = 17
    ops_per_schedule: int = 24
    accounts: int = 16
    region_size: int = 256
    #: Memory-image backing for every schedule's database ("heap" or
    #: "mmap"); wild writes must be detected identically either way.
    image_backing: str = "heap"

    @property
    def total_schedules(self) -> int:
        return len(self.seeds) * len(self.schemes) * self.schedules_per_config


@dataclass(kw_only=True)
class ScheduleOutcome(Outcome):
    """One fault-campaign schedule's score."""

    scheme: str
    fault_kind: str = ""
    crash_point: str | None = None
    crashed: bool = False
    repaired: bool = False
    repair_ok: bool = True
    quarantine_blocked: int = 0
    quarantine_served_garbage: bool = False
    recovery_reruns: int = 0
    deleted_committed: int = 0


@dataclass
class CampaignResult(CampaignOutcomes):
    """All schedule outcomes plus the per-scheme scoreboard."""

    @property
    def garbage_served(self) -> list[ScheduleOutcome]:
        return [o for o in self.outcomes if o.quarantine_served_garbage]

    def scoreboard(self) -> dict[str, dict]:
        """Per-scheme aggregate: detection, latency, repair, quarantine."""
        board: dict[str, dict] = {}
        for scheme in self.spec.schemes:
            rows = [o for o in self.outcomes if o.scheme == scheme]
            direct = [o for o in rows if o.fault_kind in DIRECT_FAULT_KINDS]
            latencies = detection_latencies(direct)
            repairs = [o for o in rows if o.repaired]
            board[scheme] = {
                **score_columns(rows, latencies),
                "direct_faults": len(direct),
                "erased": sum(
                    1 for o in direct if o.detection_stage == "erased"
                ),
                "max_detection_latency_ops": max(latencies, default=None),
                "repairs": len(repairs),
                "repairs_ok": sum(1 for o in repairs if o.repair_ok),
                "quarantine_blocked_reads": sum(
                    o.quarantine_blocked for o in rows
                ),
                "quarantine_served_garbage": sum(
                    1 for o in rows if o.quarantine_served_garbage
                ),
                "crashes": sum(1 for o in rows if o.crashed),
                "recovery_reruns": sum(o.recovery_reruns for o in rows),
                "deleted_committed_txns": sum(
                    o.deleted_committed for o in rows
                ),
            }
        return board

    def to_payload(self) -> dict:
        """JSON-ready summary (merged into ``BENCH_faults.json``)."""
        return {
            "spec": spec_payload(self.spec),
            "schedules": len(self.outcomes),
            "false_negatives": len(self.false_negatives),
            "quarantine_served_garbage": len(self.garbage_served),
            "errors": [
                {
                    "scheme": o.scheme,
                    "seed": o.seed,
                    "index": o.index,
                    "error": o.error,
                }
                for o in self.errors
            ],
            "scoreboard": self.scoreboard(),
        }


class _Schedule:
    """One randomized schedule: workload, one fault, optional crash."""

    def __init__(self, spec, scheme, seed, index, db_dir, rng) -> None:
        self.spec = spec
        self.scheme = scheme
        self.db_dir = db_dir
        self.rng = rng
        self.db = None
        self.injector: FaultInjector | None = None
        self.ledger: Ledger | None = None
        self.outcome = ScheduleOutcome(scheme=scheme, seed=seed, index=index)

    def close(self) -> None:
        close_quietly(self.db)

    @property
    def _logs_reads(self) -> bool:
        return "read_logging" in self.scheme

    # --------------------------------------------------------------- run

    def run(self) -> ScheduleOutcome:
        spec, rng, out = self.spec, self.rng, self.outcome
        config = DBConfig(
            dir=self.db_dir,
            scheme=self.scheme,
            scheme_params={"region_size": spec.region_size},
            quarantine=True,
            image_backing=spec.image_backing,
        )
        self.db, self.ledger = open_bank(
            config, spec.accounts, max(64, spec.accounts * 2)
        )
        self.db.checkpoint()
        self.injector = FaultInjector(self.db, seed=rng.randrange(2**31))

        ops = spec.ops_per_schedule
        out.fault_op = rng.randrange(2, max(3, ops - 4))
        out.fault_kind = rng.choices(
            ["corrupt_record", "wild_write", "bit_flip", "copy_overrun",
             "torn_crash"],
            weights=[4, 2, 2, 1, 1],
        )[0]
        checkpoint_op = ops // 2
        audit_every = 5
        arm_op: int | None = None
        if out.fault_kind in DIRECT_FAULT_KINDS and rng.random() < 0.35:
            out.crash_point = rng.choice(FORWARD_CRASH_POINTS)
            arm_op = rng.randrange(out.fault_op, ops)

        op = 0
        while op < ops:
            if op == out.fault_op:
                self._inject(op)
            if arm_op is not None and op == arm_op:
                self.db.crashpoints.arm(out.crash_point)
                arm_op = None
            try:
                if op == checkpoint_op:
                    result = self.db.checkpoint()
                    if not result.certified:
                        out.on_detect("checkpoint", op)
                        return self._repair_and_score(result.audit_report)
                elif op % audit_every == audit_every - 1:
                    report = self.db.audit()
                    if not report.clean:
                        out.on_detect("audit", op)
                        return self._repair_and_score(report)
                else:
                    self._workload_op(op)
            except (QuarantinedRegionError, CorruptionDetected):
                # First detection on the read path is always the precheck
                # itself (the quarantine guard can only block regions an
                # earlier detection already convicted).
                out.on_detect("precheck", op)
                return self._repair_and_score(None)
            except SimulatedCrash:
                self._crash_and_recover()
            op += 1
        return self._final_score()

    # ---------------------------------------------------------- workload

    def _workload_op(self, op: int) -> None:
        rng = self.rng
        acct = rng.randrange(self.spec.accounts)
        db, table = self.db, self.db.table("acct")
        slot = self.ledger.slots[acct]
        if rng.random() < 0.6:
            value = rng.randrange(1, 10**6)
            txn = db.begin()
            try:
                table.update(txn, slot, {"balance": value})
            except Exception:
                db.abort(txn)
                raise
            try:
                db.commit(txn)
            except SimulatedCrash:
                # A crash mid-commit-flush: the value may or may not have
                # become durable.  Either way it is a legitimately
                # prescribed value, so admit it to the acceptable set.
                self.ledger.commit(acct, value)
                raise
            self.ledger.commit(acct, value)
        else:
            txn = db.begin()
            try:
                table.read(txn, slot)
            finally:
                abort_if_active(db, txn)

    def _inject(self, op: int) -> None:
        kind, rng, inj = self.outcome.fault_kind, self.rng, self.injector
        slots = self.ledger.slots
        if kind == "corrupt_record":
            acct = rng.randrange(self.spec.accounts)
            inj.corrupt_record("acct", slots[acct])
        elif kind == "wild_write":
            inj.wild_write(length=rng.choice([1, 4, 8, 16]))
        elif kind == "bit_flip":
            inj.bit_flip()
        elif kind == "copy_overrun":
            acct = rng.randrange(self.spec.accounts)
            inj.copy_overrun("acct", slots[acct], overrun=rng.choice([4, 8, 16]))
        elif kind == "torn_crash":
            # A real crash whose final flush is torn: crash first (the
            # append handle must be closed before the file is cut).
            self.outcome.crashed = True
            self.db.crash()
            inj.torn_flush()
            self._reopen()
        else:  # pragma: no cover - spec'd kinds only
            raise ConfigError(f"unknown fault kind {kind!r}")

    # ----------------------------------------------------- crash/recover

    def _crash_and_recover(self) -> None:
        self.outcome.crashed = True
        self.db.crash()
        self._reopen()

    def _reopen(self) -> None:
        config = self.db.config
        # The registry rides across the crash so a recovery crash point
        # armed before crash_with_corruption fires mid-recovery; it is
        # one-shot, so the re-run converges instead of crash-looping.
        registry = self.db.crashpoints
        while True:
            try:
                self.db, report = Database.recover(config, crashpoints=registry)
                break
            except SimulatedCrash:
                self.outcome.recovery_reruns += 1
        self.outcome.deleted_committed += len(report.deleted_committed)
        self.injector.db = self.db

    # ------------------------------------------------------------ scoring

    def _full_audit(self):
        """Ground-truth audit: full sweep, no quarantine skip."""
        return self.db.auditor.run()

    def _affected_accounts(self) -> list[int]:
        """Account ids whose record bytes a direct fault overlapped."""
        table = self.db.table("acct")
        size = table.schema.record_size
        hits: list[int] = []
        for event in self.injector.events:
            if event.kind == "torn_flush":
                continue
            lo, hi = event.address, event.address + event.length
            for acct, slot in self.ledger.slots.items():
                start = table.record_address(slot)
                if start < hi and lo < start + size:
                    hits.append(acct)
        return sorted(set(hits))

    def _probe_quarantine(self) -> None:
        """Reads overlapping quarantined regions must be vetoed."""
        db, out = self.db, self.outcome
        table = db.table("acct")
        maintainer = db.pipeline.maintainer
        cw_table = maintainer.table
        for acct in self._affected_accounts():
            slot = self.ledger.slots[acct]
            start = table.record_address(slot)
            regions = cw_table.regions_spanning(start, table.schema.record_size)
            if not maintainer.quarantined.intersection(regions):
                continue
            txn = db.begin()
            try:
                row = table.read(txn, slot)
            except QuarantinedRegionError:
                out.quarantine_blocked += 1
            else:
                if not self.ledger.admits(acct, row["balance"]):
                    out.quarantine_served_garbage = True
            finally:
                abort_if_active(db, txn)

    def _repair_and_score(self, report) -> ScheduleOutcome:
        """Detection happened: quarantine-probe, repair, verify."""
        db, out = self.db, self.outcome
        if report is None or report.clean:
            # Exception-detected (precheck/guard): an audit convicts and
            # quarantines the regions so the probe and repair have ids.
            report = db.audit()
        elif report.corrupt_regions:
            # Checkpoint-certification reports never quarantine on their
            # own (certification must see the whole image); feed the
            # convicted regions to the quarantine by hand.
            db.pipeline.maintainer.quarantine(report.corrupt_regions)
        self._probe_quarantine()
        out.repaired = True
        if self._logs_reads:
            # Read logging: transaction-carried corruption is possible;
            # the paper's answer is crash + delete-transaction recovery.
            if report.clean:  # pragma: no cover - detection implies dirty
                raise ConfigError("repair without a failing audit")
            crashpoints = db.crashpoints
            if self.rng.random() < 0.5:
                crashpoints.arm(self.rng.choice(RECOVERY_CRASH_POINTS))
            out.crashed = True
            db.crash_with_corruption(report)
            self._reopen()
            db = self.db
        else:
            db.repair_quarantined()
        final = self._full_audit()
        out.repair_ok = final.clean
        self._score_values()
        return out

    def _final_score(self) -> ScheduleOutcome:
        """No detection during the run: the final full sweep decides."""
        out = self.outcome
        final = self._full_audit()
        if not final.clean:
            out.on_detect("audit", self.spec.ops_per_schedule)
            return self._repair_and_score(final)
        if out.fault_kind in DIRECT_FAULT_KINDS and out.detection_op is None:
            if out.crashed:
                # The corruption lived only in volatile state a crash
                # discarded; the clean full audit proves the image whole.
                out.detection_stage = "erased"
            else:
                out.false_negative = True
        self._score_values()
        return out

    def _score_values(self) -> None:
        """Committed values must survive repair/recovery; an account the
        stack still fences is honest, but the repair did not finish."""
        out = self.outcome
        unreadable, wrong = self.ledger.check(self.db, exact=not out.crashed)
        if unreadable:
            out.repair_ok = False
        if wrong:
            out.value_ok = False


def run_campaign(spec: CampaignSpec, base_dir: str) -> CampaignResult:
    """Run every schedule of ``spec`` under ``base_dir`` and score it."""
    return CampaignResult(
        spec,
        run_schedules(spec, spec.schemes, spec.schedules_per_config,
                      _Schedule, base_dir),
    )
