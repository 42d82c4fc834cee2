"""Replication fault campaign: detection, tolerance, certified failover.

The single-node campaign (:mod:`repro.faults.campaign`) scores how fast
one protection stack catches its own wild writes.  This campaign scores
the *two-node* story end to end.  Each schedule runs a primary with a
hot standby attached (archive bootstrap, log shipping, digest epochs),
injects exactly one fault from the matrix below, then kills the primary
and promotes the replica -- every schedule finishes with a certified
failover and a committed-value check against ground truth.

Fault matrix (one kind per schedule):

=====================  ==================================================
kind                   what happens / what must be observed
=====================  ==================================================
clean                  nothing injected; clean convergence + failover
abrupt_death           primary dies with unshipped + dropped in-flight
                       batches; the lost-commit window must be surfaced
                       and bounded by the ship window
primary_wild_write_hot unlogged poke over a *workload-hot* record on the
                       primary; caught by replay checksums / digests /
                       primary certification -- never by nothing
primary_wild_write_cold poke over a record no transaction touches; the
                       primary's incremental audits are blind to it, the
                       replica's digest check is not -- the headline
                       detection-latency comparison
replica_wild_write     poke over the replica's image; its own audits or
                       the digest self-audit convict it, promotion
                       refuses to certify until repaired
ship_drop              a batch vanishes; retransmit must converge
ship_duplicate         a batch arrives twice; seq/LSN dedup must absorb
ship_reorder           a batch overtakes its successor; the reorder
                       buffer must restore order
ship_tear              a batch arrives truncated; the CRC must classify
                       it as transport corruption and retransmit
crash_replica          a replica crash point fires mid-ingest/apply;
                       reopen + resync must converge byte-identically
crash_promote          a crash point fires mid-promotion; re-promotion
                       must converge to the same certified image
=====================  ==================================================

Scoring is against injector ground truth, exactly like the single-node
campaign: a corruption kind with no detection by the end of the schedule
(digest epochs included) is a **false negative** and fails the bench
gate; a transport kind that does not converge is a tolerance failure;
every promotion must certify, and every surviving value must come from
the committed-value history.

Determinism: each schedule seeds ``random.Random(f"{seed}:{kind}:{index}")``
(string seeding, stable across processes).
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

from repro.errors import (
    CorruptionDetected,
    PromotionError,
    QuarantinedRegionError,
    SimulatedCrash,
)
from repro.faults.campaign import (
    CampaignOutcomes,
    Outcome,
    close_quietly,
    db_reader,
    detection_latencies,
    open_bank,
    percentile,
    run_schedules,
    score_columns,
    spec_payload,
)
from repro.faults.crashpoints import (
    CrashPointRegistry,
    REPLICA_CRASH_POINTS,
)
from repro.faults.injector import FaultInjector
from repro.replication.replica import Replica
from repro.replication.shipper import LogShipper
from repro.replication.transport import ShipTransport
from repro.storage.database import DBConfig

#: One schedule per (kind, seed, index).
REPLICATION_FAULT_KINDS = (
    "clean",
    "abrupt_death",
    "primary_wild_write_hot",
    "primary_wild_write_cold",
    "replica_wild_write",
    "ship_drop",
    "ship_duplicate",
    "ship_reorder",
    "ship_tear",
    "crash_replica",
    "crash_promote",
)

#: Kinds that land corrupt bytes in an image -- zero false negatives
#: required, detection latency reported.
CORRUPTION_KINDS = (
    "primary_wild_write_hot",
    "primary_wild_write_cold",
    "replica_wild_write",
)

#: Kinds that damage the channel, not an image -- tolerance (convergence
#: under retransmit/dedup/reorder) is what is scored.
TRANSPORT_KINDS = ("ship_drop", "ship_duplicate", "ship_reorder", "ship_tear")

_PROMOTE_CRASH_POINTS = (
    "promote.pre_sweep",
    "promote.after_sweep",
    "recovery.mid_undo",
    "recovery.pre_complete",
)


@dataclass(frozen=True)
class ReplicationCampaignSpec:
    """Shape of one replication campaign."""

    seeds: tuple[int, ...] = (1, 2, 3)
    kinds: tuple[str, ...] = REPLICATION_FAULT_KINDS
    schedules_per_kind: int = 1
    scheme: str = "data_cw+cw_read_logging"
    ops_per_schedule: int = 24
    accounts: int = 16
    region_size: int = 256
    #: Primary checkpoint cadence in workload ops; every certified
    #: checkpoint publishes a digest epoch, so this bounds the replica's
    #: detection latency for cold corruption.
    checkpoint_every: int = 5
    window: int = 4
    batch_records: int = 8
    audit_every_batches: int = 4

    @property
    def total_schedules(self) -> int:
        return len(self.seeds) * len(self.kinds) * self.schedules_per_kind


@dataclass(kw_only=True)
class ReplicationOutcome(Outcome):
    """Score of one schedule against ground truth.

    ``detection_stage`` is one of "replay_checksum" | "audit" | "digest" |
    "transport" | "primary_certify" | "primary_inline" | "promote_sweep" |
    "none".
    """

    kind: str
    #: Divergence classification when the digest channel fired.
    classification: str = ""
    #: Transport kinds: did the protocol converge despite the fault?
    tolerated: bool = True
    promoted: bool = False
    certified: bool = False
    promote_retries: int = 0
    crashes: int = 0
    lost_commit_window: int | None = None
    lost_window_bound: int = 0
    #: ``primary_wild_write_cold`` only: ops the *single-node* arm needed
    #: to catch the same fault (its final full sweep).
    single_node_latency: int | None = None
    retransmits: int = 0
    transport_errors: int = 0


@dataclass
class ReplicationCampaignResult(CampaignOutcomes):
    """All outcomes plus the aggregate scoreboard."""

    @property
    def tolerance_failures(self) -> list[ReplicationOutcome]:
        return [
            o
            for o in self.outcomes
            if o.kind in TRANSPORT_KINDS and not o.tolerated
        ]

    @property
    def uncertified(self) -> list[ReplicationOutcome]:
        return [o for o in self.outcomes if o.error is None and not o.certified]

    def latency_percentiles(self) -> dict[str, float | None]:
        """p50/p90/max of replica-side detection latency, in workload ops."""
        latencies = detection_latencies(
            o for o in self.outcomes if o.kind in CORRUPTION_KINDS
        )
        if not latencies:
            return {"p50": None, "p90": None, "max": None}
        return {
            "p50": percentile(latencies, 0.5),
            "p90": percentile(latencies, 0.9),
            "max": float(latencies[-1]),
        }

    def cold_comparison(self) -> dict:
        """Replica digest latency vs single-node full-sweep latency."""
        rows = [o for o in self.outcomes if o.kind == "primary_wild_write_cold"]
        pairs = [
            (o.detection_latency, o.single_node_latency)
            for o in rows
            if o.detection_latency is not None
            and o.single_node_latency is not None
        ]
        return {
            "schedules": len(rows),
            "compared": len(pairs),
            "replica_latencies": [p[0] for p in pairs],
            "single_node_latencies": [p[1] for p in pairs],
            "replica_strictly_faster": all(r < s for r, s in pairs) and bool(pairs),
        }

    def lost_commit_stats(self) -> dict:
        rows = [o for o in self.outcomes if o.lost_commit_window is not None]
        windows = [o.lost_commit_window for o in rows]
        return {
            "schedules": len(rows),
            "max_lost_records": max(windows, default=None),
            "nonzero": sum(1 for w in windows if w),
            "bound_violations": sum(
                1
                for o in rows
                if o.lost_window_bound and o.lost_commit_window > o.lost_window_bound
            ),
        }

    def scoreboard(self) -> dict[str, dict]:
        board: dict[str, dict] = {}
        for kind in self.spec.kinds:
            rows = [o for o in self.outcomes if o.kind == kind]
            board[kind] = {
                **score_columns(rows, detection_latencies(rows)),
                "tolerated": sum(1 for o in rows if o.tolerated),
                "promoted": sum(1 for o in rows if o.promoted),
                "certified": sum(1 for o in rows if o.certified),
                "promote_retries": sum(o.promote_retries for o in rows),
                "crashes": sum(o.crashes for o in rows),
                "max_lost_commit_window": max(
                    (o.lost_commit_window or 0 for o in rows), default=0
                ),
                "retransmits": sum(o.retransmits for o in rows),
            }
        return board

    def to_payload(self) -> dict:
        return {
            "spec": spec_payload(self.spec),
            "schedules": len(self.outcomes),
            "false_negatives": len(self.false_negatives),
            "tolerance_failures": len(self.tolerance_failures),
            "uncertified_promotions": len(self.uncertified),
            "detection_latency_ops": self.latency_percentiles(),
            "cold_region_comparison": self.cold_comparison(),
            "lost_commit_window": self.lost_commit_stats(),
            "errors": [
                {"kind": o.kind, "seed": o.seed, "index": o.index, "error": o.error}
                for o in self.errors
            ],
            "scoreboard": self.scoreboard(),
        }


class _ReplicationSchedule:
    """One schedule: primary + standby, one fault, death, failover."""

    def __init__(self, spec, kind, seed, index, work_dir, rng) -> None:
        self.spec = spec
        self.kind = kind
        self.work_dir = work_dir
        self.rng = rng
        self.outcome = ReplicationOutcome(kind=kind, seed=seed, index=index)
        self.db = None
        self.replica: Replica | None = None
        self.shipper: LogShipper | None = None
        self.transport = ShipTransport()
        self.replica_registry = CrashPointRegistry()
        self.injector: FaultInjector | None = None
        self.ledger = None
        self.primary_dead = False

    # ------------------------------------------------------------- setup

    def _db_config(self, name: str) -> DBConfig:
        return DBConfig(
            dir=os.path.join(self.work_dir, name),
            scheme=self.spec.scheme,
            scheme_params={"region_size": self.spec.region_size},
            quarantine=True,
            # Dirty-region routine audits with the full sweep pushed past
            # the schedule horizon on purpose: cold corruption must be
            # invisible to the primary's own routine audits so the
            # replica's digest channel is what catches it.
            full_sweep_every=1000,
        )

    def _open_bank(self, name: str):
        return open_bank(
            self._db_config(name), self.spec.accounts, max(64, self.spec.accounts * 4)
        )

    def close(self) -> None:
        close_quietly(self.replica, self.db)

    # --------------------------------------------------------------- run

    def run(self) -> ReplicationOutcome:
        from repro.recovery.archive import create_archive

        spec, rng, out = self.spec, self.rng, self.outcome
        self.db, self.ledger = self._open_bank("primary")
        table = self.db.table("acct")
        archive_dir = os.path.join(self.work_dir, "archive")
        create_archive(self.db, archive_dir)
        self.injector = FaultInjector(self.db, seed=rng.randrange(2**31))

        self.replica_config = self._db_config("replica")
        self.replica = Replica.bootstrap(
            self.replica_config,
            archive_dir,
            crashpoints=self.replica_registry,
            audit_every=spec.audit_every_batches,
        )
        self.shipper = LogShipper(
            self.db,
            self.transport,
            self.replica,
            window=spec.window,
            batch_records=spec.batch_records,
        )
        out.lost_window_bound = self.shipper.lost_window_bound

        ops = spec.ops_per_schedule
        # Cold corruption needs at least one digest epoch (plus slack)
        # after injection; everything else just needs room to act.
        if self.kind in CORRUPTION_KINDS:
            out.fault_op = rng.randrange(2, ops - 2 * spec.checkpoint_every)
        else:
            out.fault_op = rng.randrange(2, max(3, ops - 4))
        acct_seq = [rng.randrange(spec.accounts) for _ in range(ops)]
        value_seq = [rng.randrange(1, 10**6) for _ in range(ops)]

        for op in range(ops):
            if op == out.fault_op:
                self._inject(acct_seq, op)
            try:
                self._workload_op(table, acct_seq[op], value_seq[op], op)
            except (QuarantinedRegionError, CorruptionDetected):
                # The primary's own stack caught it inline; stop the
                # primary and fail over -- the replica must still hold
                # every committed value.
                out.on_detect("primary_inline", op)
                break
            self._pump(op)
            self._poll_detection(op)
        else:
            op = ops

        return self._failover(op)

    def _workload_op(self, table, acct: int, value: int, op: int) -> None:
        if op % self.spec.checkpoint_every == self.spec.checkpoint_every - 1:
            result = self.db.checkpoint()
            if not result.certified:
                self.outcome.on_detect("primary_certify", op)
                raise CorruptionDetected(
                    list(result.audit_report.corrupt_regions)
                    if result.audit_report
                    else [],
                    context="checkpoint certification",
                )
            return
        txn = self.db.begin()
        try:
            table.update(txn, self.ledger.slots[acct], {"balance": value})
        except Exception:
            self.db.abort(txn)
            raise
        self.db.commit(txn)
        self.ledger.commit(acct, value)

    # ------------------------------------------------------------- faults

    def _inject(self, acct_seq: list[int], op: int) -> None:
        kind, rng, table = self.kind, self.rng, self.db.table("acct")
        if kind == "primary_wild_write_hot":
            # A record the workload will touch again: the next update of
            # this account exercises the first-touch replay-checksum path.
            target = acct_seq[min(op + 1, len(acct_seq) - 1)]
            self.injector.wild_write(
                address=table.record_address(self.ledger.slots[target]),
                length=table.schema.record_size,
            )
        elif kind == "primary_wild_write_cold":
            # An allocated-but-unused slot: no transaction ever reads or
            # writes it, so only a full fold can see the damage.
            cold_slot = self.spec.accounts + 3
            self.injector.wild_write(
                address=table.record_address(cold_slot), length=16
            )
        elif kind == "replica_wild_write":
            target = rng.randrange(self.spec.accounts)
            replica_table = self.replica.db.table("acct")
            FaultInjector(self.replica.db, seed=rng.randrange(2**31)).wild_write(
                address=replica_table.record_address(self.ledger.slots[target]),
                length=16,
            )
        elif kind == "ship_drop":
            self.injector.drop_batch(self.transport)
        elif kind == "ship_duplicate":
            self.injector.duplicate_batch(self.transport)
        elif kind == "ship_reorder":
            self.injector.reorder_batches(self.transport)
        elif kind == "ship_tear":
            self.injector.tear_batch(self.transport)
        elif kind == "crash_replica":
            self.replica_registry.arm(rng.choice(REPLICA_CRASH_POINTS[:3]))
        elif kind == "crash_promote":
            # Armed now, fires during promote()/its recovery tail.
            self.replica_registry.arm(rng.choice(_PROMOTE_CRASH_POINTS))
        elif kind in ("clean", "abrupt_death"):
            pass
        else:  # pragma: no cover - spec'd kinds only
            raise ValueError(f"unknown replication fault kind {kind!r}")

    # ---------------------------------------------------------- shipping

    def _pump(self, op: int) -> None:
        try:
            self.shipper.pump()
        except SimulatedCrash:
            self._replica_crash_recover()

    def _replica_crash_recover(self) -> None:
        self._reopen_replica()
        self.shipper.resync(self.replica)

    def _reopen_replica(self) -> None:
        self.outcome.crashes += 1
        self.replica.crash()
        self.replica = Replica.reopen(
            self.replica_config,
            crashpoints=self.replica_registry,
            audit_every=self.spec.audit_every_batches,
        )

    def _poll_detection(self, op: int) -> None:
        out, replica = self.outcome, self.replica
        if out.detection_op is not None:
            return
        if replica.detections:
            first = replica.detections[0]
            out.on_detect(first.channel, op)
            diverged = replica.divergence.diverged
            if diverged:
                out.classification = diverged[0].classification
        elif replica.divergence.transport_errors:
            out.on_detect("transport", op)

    # ----------------------------------------------------------- failover

    def _failover(self, end_op: int) -> ReplicationOutcome:
        spec, out = self.spec, self.outcome
        table = self.db.table("acct")

        if self.kind == "abrupt_death" and not self.primary_dead:
            # A burst of commits the replica never sees completely: some
            # unshipped, one in-flight batch dropped on the floor.  No
            # retransmission after death -- the gap IS the lost-commit
            # window, and it must stay within the ship window bound.
            for extra in range(3):
                acct = self.rng.randrange(spec.accounts)
                value = self.rng.randrange(1, 10**6)
                txn = self.db.begin()
                table.update(txn, self.ledger.slots[acct], {"balance": value})
                self.db.commit(txn)
                self.ledger.commit(acct, value)
            self.transport.arm_fault("drop")
            self._pump(end_op)
        elif out.detection_stage not in ("primary_inline", "primary_certify"):
            # An orderly handover window: one last digest epoch, then
            # drain what the network still carries.
            try:
                self._workload_op(table, 0, 0, spec.checkpoint_every - 1)
            except (QuarantinedRegionError, CorruptionDetected):
                out.on_detect("primary_certify", end_op)
            for _ in range(50):
                if self.shipper.caught_up:
                    break
                self._pump(end_op)
            self._poll_detection(end_op)

        # Primary death: flush stopped, retransmission stopped.  Only
        # what the network already carries still arrives.
        primary_end = self.db.system_log.end_of_stable_lsn
        self.db.crash()
        self.primary_dead = True
        for raw in self.transport.deliver():
            try:
                self.replica.receive(raw)
            except SimulatedCrash:
                self._replica_crash_recover()
        self._poll_detection(end_op)

        report = self._promote(primary_end)
        out.promoted = True
        out.certified = report.certified
        out.lost_commit_window = report.lost_commit_window
        self._score(end_op)
        if self.kind == "primary_wild_write_cold":
            out.single_node_latency = self._single_node_cold_latency()
        return out

    def _promote(self, primary_end: int):
        out = self.outcome
        for attempt in range(6):
            try:
                return self.replica.promote(primary_end_lsn=primary_end)
            except PromotionError:
                # The certifying sweep convicted regions (replica-side
                # corruption): repair from the replica's own checkpoint
                # and log, then certify again.
                out.promote_retries += 1
                if out.detection_op is None:
                    out.on_detect("promote_sweep", self.spec.ops_per_schedule)
                self.replica.repair()
            except SimulatedCrash:
                out.promote_retries += 1
                self._reopen_replica()
        raise PromotionError("promotion did not converge within 6 attempts")

    # ------------------------------------------------------------ scoring

    def _score(self, end_op: int) -> None:
        out = self.outcome
        if self.kind in CORRUPTION_KINDS and out.detection_op is None:
            out.false_negative = True
        if self.kind in TRANSPORT_KINDS:
            # Tolerance = the protocol converged: nothing corrupt landed,
            # and no committed record was lost to the fault (retransmit,
            # dedup or reordering absorbed it before the primary died).
            out.tolerated = (
                out.error is None
                and not self.replica.db.pipeline.maintainer.quarantined
                and not out.lost_commit_window
            )
            if self.kind == "ship_tear" and not out.transport_errors:
                out.transport_errors = len(
                    self.replica.divergence.transport_errors
                )
                if out.transport_errors == 0:
                    # The tear was never observed: either the CRC layer
                    # failed silently (a false negative of the transport
                    # channel) or the fault never applied.
                    applied = any(
                        k == "tear" for k, _ in self.transport.faults_applied
                    )
                    out.false_negative = applied
        out.retransmits = self.shipper.retransmits
        out.transport_errors = len(self.replica.divergence.transport_errors)

        # Committed-value check on the promoted node.  Exact-last where
        # nothing was lost; member-of-history where a lost-commit window
        # or crash legitimately rolled back the tail.
        exact = (
            self.kind not in ("abrupt_death", "crash_promote")
            and not out.lost_commit_window
            and out.detection_stage not in ("primary_inline", "primary_certify")
        )
        unreadable, wrong = self.ledger.check(db_reader(self.replica.db), exact)
        if unreadable or wrong:
            out.value_ok = False

    def _single_node_cold_latency(self) -> int:
        """The comparison arm: same fault, no replica watching.

        Re-runs the schedule's workload on a single node with the same
        incremental-audit primary configuration and the same cold wild
        write.  The cold region is never in the dirty set, so routine
        audits and checkpoint certification stay blind; the fault
        surfaces only at the end-of-schedule full sweep -- the latency
        the replica's digest channel must strictly beat.
        """
        spec, out = self.spec, self.outcome
        rng = random.Random(f"single:{out.seed}:{out.index}")
        db, ledger = self._open_bank("single")
        try:
            table = db.table("acct")
            db.checkpoint()
            injector = FaultInjector(db, seed=rng.randrange(2**31))
            detection_op: int | None = None
            for op in range(spec.ops_per_schedule):
                if op == out.fault_op:
                    cold_slot = spec.accounts + 3
                    injector.wild_write(
                        address=table.record_address(cold_slot), length=16
                    )
                if op % spec.checkpoint_every == spec.checkpoint_every - 1:
                    result = db.checkpoint()
                    if not result.certified:
                        detection_op = op
                        break
                else:
                    acct = rng.randrange(spec.accounts)
                    txn = db.begin()
                    table.update(
                        txn, ledger.slots[acct], {"balance": rng.randrange(1, 10**6)}
                    )
                    db.commit(txn)
            if detection_op is None:
                # End-of-schedule full sweep: the single node's first
                # honest look at the whole image.
                report = db.auditor.run()
                detection_op = spec.ops_per_schedule
                if report.clean:  # pragma: no cover - fault is in-image
                    detection_op = spec.ops_per_schedule + 1
            return detection_op - out.fault_op
        finally:
            close_quietly(db)


def run_replication_campaign(
    spec: ReplicationCampaignSpec, base_dir: str
) -> ReplicationCampaignResult:
    """Run every schedule of ``spec`` under ``base_dir`` and score it."""
    return ReplicationCampaignResult(
        spec,
        run_schedules(spec, spec.kinds, spec.schedules_per_kind,
                      _ReplicationSchedule, base_dir),
    )
