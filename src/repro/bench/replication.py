"""Replication benchmark: detection latency and lost commits vs single node.

``python -m repro.bench --replication`` runs the two-node fault campaign
(:mod:`repro.replication.campaign`) and scores the paper's protection
claim extended across a log-shipped hot standby:

* every injected corruption must be detected by *some* layer — replay
  checksums, the replica's independent audits, digest epochs, or the
  certifying promotion sweep — zero false negatives, same gate as the
  single-node campaigns;
* for cold-region wild writes (damage no transaction ever touches), the
  replica's digest channel must detect **strictly faster** than the
  single-node arm, whose incremental audits stay blind until its final
  full sweep — the headline number of this benchmark;
* every transport fault (drop/duplicate/reorder/tear) must be tolerated:
  the protocol converges with no corrupt bytes landed and no committed
  record lost;
* every failover must certify, and any lost-commit window must stay
  within the ship window bound (``window * batch_records`` records).

The exit code is the CI gate: 0 only when every one of those holds.
"""

from __future__ import annotations

from dataclasses import replace

from repro.bench.reporting import BENCH_JSON_VERSION, render_table, write_bench_json
from repro.bench.suites import Suite, run_gated
from repro.replication.campaign import (
    ReplicationCampaignResult,
    ReplicationCampaignSpec,
    run_replication_campaign,
)

REPLICATION_JSON_VERSION = 1


def render_replication_table(result: ReplicationCampaignResult) -> str:
    """The per-kind scoreboard as an aligned text table."""
    rows = []
    for kind, row in result.scoreboard().items():
        latency = row["mean_detection_latency_ops"]
        stages = ",".join(
            f"{stage}:{count}"
            for stage, count in row["stages"].items()
            if stage != "none"
        )
        rows.append(
            [
                kind,
                str(row["schedules"]),
                str(row["detected"]),
                str(row["false_negatives"]),
                "-" if latency is None else f"{latency:.2f}",
                stages or "-",
                f"{row['certified']}/{row['promoted']}",
                str(row["promote_retries"]),
                str(row["crashes"]),
                str(row["max_lost_commit_window"]),
                f"{row['values_ok']}/{row['schedules']}",
                str(row["retransmits"]),
            ]
        )
    spec = result.spec
    return render_table(
        [
            "Kind",
            "Runs",
            "Detected",
            "FalseNeg",
            "Latency(ops)",
            "Stages",
            "Certified",
            "Retries",
            "Crashes",
            "MaxLost",
            "Values",
            "Rexmit",
        ],
        rows,
        title=(
            f"Replication campaign: {spec.total_schedules} schedules "
            f"({len(spec.seeds)} seeds x {len(spec.kinds)} kinds x "
            f"{spec.schedules_per_kind}, scheme={spec.scheme}, "
            f"window={spec.window}x{spec.batch_records})"
        ),
    )


def replication_payload(
    result: ReplicationCampaignResult, quick: bool
) -> dict:
    payload = {"version": REPLICATION_JSON_VERSION, "quick": quick}
    payload.update(result.to_payload())
    return payload


def gate_failures(result: ReplicationCampaignResult) -> list[str]:
    """Every reason the bench gate would fail, as printable strings."""
    failures = [
        f"schedule raised: {o.kind} seed={o.seed} idx={o.index}: {o.error}"
        for o in result.errors
    ]
    if result.false_negatives:
        failures.append(
            f"FALSE NEGATIVES: {len(result.false_negatives)} corruption(s) "
            "never detected by any layer"
        )
    if result.tolerance_failures:
        failures.append(
            f"{len(result.tolerance_failures)} transport fault(s) not tolerated"
        )
    if result.uncertified:
        failures.append(
            f"{len(result.uncertified)} promotion(s) finished uncertified"
        )
    lost = result.lost_commit_stats()
    if lost["bound_violations"]:
        failures.append(
            f"{lost['bound_violations']} lost-commit window(s) exceeded the "
            "ship window bound"
        )
    cold = result.cold_comparison()
    if cold["compared"] and not cold["replica_strictly_faster"]:
        failures.append(
            "replica digest detection was NOT strictly faster than the "
            f"single-node full sweep for cold corruption "
            f"(replica={cold['replica_latencies']}, "
            f"single={cold['single_node_latencies']})"
        )
    values_bad = [o for o in result.outcomes if not o.value_ok]
    if values_bad:
        failures.append(
            f"{len(values_bad)} schedule(s) surfaced a value outside the "
            "committed history after failover"
        )
    return failures


# --------------------------------------------------------- registration


def _add_arguments(parser) -> None:
    parser.add_argument(
        "--replication",
        action="store_true",
        help="run the two-node replication campaign (log-shipped hot "
        "standby, independent replica audits, certified failover): exit 1 "
        "on any false negative, untolerated transport fault, uncertified "
        "promotion, or lost-commit window past the ship window bound",
    )
    parser.add_argument(
        "--replication-json",
        metavar="PATH",
        default="BENCH_replication.json",
        help="where --replication writes its JSON artifact "
        "(default: BENCH_replication.json)",
    )


def _run(args) -> int:
    """``--replication``: the full 3-seed matrix, or one seed under ``--quick``.

    ``--json`` alongside it also writes a ``{"replication": ...}`` section
    to that generic artifact, so perf-trajectory tooling that only reads
    the generic artifact still sees the replication numbers.
    """
    spec = ReplicationCampaignSpec()
    if args.quick:
        spec = replace(spec, seeds=(1,))

    def run(workdir: str) -> tuple[dict, list[str]]:
        result = run_replication_campaign(spec, workdir)
        print(render_replication_table(result))
        latency = result.latency_percentiles()
        cold = result.cold_comparison()
        lost = result.lost_commit_stats()
        print(
            f"\nDetection latency (corruption kinds, workload ops): "
            f"p50={latency['p50']} p90={latency['p90']} max={latency['max']}"
        )
        if cold["compared"]:
            print(
                f"Cold-region wild writes: replica digest latency "
                f"{cold['replica_latencies']} vs single-node full-sweep "
                f"{cold['single_node_latencies']} ops "
                f"(strictly faster: {cold['replica_strictly_faster']})"
            )
        print(
            f"Lost-commit windows: {lost['nonzero']} nonzero, "
            f"max {lost['max_lost_records']} record(s), "
            f"{lost['bound_violations']} bound violation(s)."
        )
        payload = replication_payload(result, args.quick)
        if args.json:
            write_bench_json(
                args.json, {"version": BENCH_JSON_VERSION, "replication": payload}
            )
            print(f"wrote {args.json}")
        return payload, gate_failures(result)

    return run_gated("replication", args.replication_json, run)


REPLICATION_SUITE = Suite(
    name="replication",
    add_arguments=_add_arguments,
    run=_run,
    selected=lambda args: args.replication,
)
