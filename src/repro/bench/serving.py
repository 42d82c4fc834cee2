"""Serving benchmark: throughput/latency of concurrent TPC-B sessions.

Measures the :mod:`repro.serve` front-end over a codeword-protected
image: N client threads, each with its own session, run
begin/query/update/commit transactions against disjoint account slots
through the server's admission gate.  For each point in the (client count x
group-commit window) matrix we report wall-clock throughput and
p50/p99 transaction latency.

Unlike the virtual-clock tables (``BENCH_tables.json``), these numbers
are *wall-clock*: admission, waiting for an executor slot, and GIL and
lock/latch contention between client threads are exactly what is being
measured, and the virtual clock does not see them.

The fault-campaign variant re-runs the busiest point while a fault
injector wild-writes into a cold table no session ever touches, then
full-audits: every injected region must be detected (zero false
negatives) even though concurrent sessions were committing the whole
time.  This is the paper's protection claim restated under concurrency:
codeword maintenance of hot regions must not erase or mask corruption
in cold ones.
"""

from __future__ import annotations

import os
import shutil
import threading
import time
from dataclasses import dataclass, replace

from repro.bench.reporting import render_table
from repro.bench.suites import Suite, run_gated
from repro.faults.campaign import percentile, score_injections
from repro.faults.injector import FaultInjector
from repro.serve import Request, Server
from repro.storage.database import Database, DBConfig
from repro.storage.schema import Field, FieldType, Schema

SERVING_JSON_VERSION = 1

ACCT_SCHEMA = Schema(
    [
        Field("id", FieldType.INT64),
        Field("balance", FieldType.INT64),
        Field("name", FieldType.CHAR, 16),
    ]
)


@dataclass(frozen=True)
class ServingConfig:
    """One serving-benchmark campaign."""

    client_counts: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64)
    txns_per_client: int = 40
    group_commit_sizes: tuple[int, ...] = (1, 8)
    scheme: str = "data_codeword"
    region_size: int = 64
    workers: int = 8
    fault_injections: int = 6

    def quick(self) -> "ServingConfig":
        """CI smoke variant: same code paths, minutes -> seconds."""
        return replace(
            self,
            client_counts=(1, 4, 8),
            txns_per_client=8,
            group_commit_sizes=(1, 4),
            fault_injections=3,
        )


@dataclass
class ServingPoint:
    """Measured result of one (clients, group_commit_size) cell."""

    clients: int
    group_commit_size: int
    txns: int
    errors: int
    wall_s: float
    throughput_txn_s: float
    p50_ms: float
    p99_ms: float

    def to_payload(self) -> dict:
        return {
            "clients": self.clients,
            "group_commit_size": self.group_commit_size,
            "txns": self.txns,
            "errors": self.errors,
            "wall_s": round(self.wall_s, 4),
            "throughput_txn_s": round(self.throughput_txn_s, 1),
            "p50_ms": round(self.p50_ms, 3),
            "p99_ms": round(self.p99_ms, 3),
        }


def _make_db(
    workdir: str,
    config: ServingConfig,
    group: int,
    slots_needed: int,
    quarantine_repair: bool = False,
) -> Database:
    db_config = DBConfig(
        dir=workdir,
        scheme=config.scheme,
        scheme_params={"region_size": config.region_size},
        group_commit_size=group,
        scheduler_mode="threaded",
        quarantine=quarantine_repair,
        quarantine_repair=quarantine_repair,
    )
    db = Database(db_config)
    capacity = max(64, 2 * slots_needed)
    db.create_table("acct", ACCT_SCHEMA, capacity, key_field="id")
    db.start()
    txn = db.begin()
    for i in range(slots_needed):
        db.table("acct").insert(
            txn, {"id": i, "balance": 100, "name": f"acct-{i}"}
        )
    db.commit(txn)
    db.manager.flush_commits()
    return db


def _run_clients(
    server: Server, clients: int, txns_per_client: int
) -> tuple[list[float], list[str]]:
    """Drive ``clients`` threads; return per-txn latencies and errors."""
    latencies: list[list[float]] = [[] for _ in range(clients)]
    errors: list[str] = []
    barrier = threading.Barrier(clients)

    def client(client_id: int) -> None:
        session = server.open_session()
        barrier.wait()
        for i in range(txns_per_client):
            began = time.perf_counter()
            responses = [
                server.submit(session, request)
                for request in (
                    Request(op="begin"),
                    Request(op="query", table="acct", key=client_id),
                    Request(
                        op="update",
                        table="acct",
                        slot=client_id,
                        values={"balance": 100 + i},
                    ),
                    Request(op="commit"),
                )
            ]
            latencies[client_id].append(time.perf_counter() - began)
            for response in responses:
                if not response.ok:
                    errors.append(f"client {client_id} txn {i}: {response.error}")
                    break
        server.close_session(session)

    threads = [threading.Thread(target=client, args=(c,)) for c in range(clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=300)
    flat = [latency for per_client in latencies for latency in per_client]
    return flat, errors


def run_serving_point(
    base_dir: str, config: ServingConfig, clients: int, group: int
) -> ServingPoint:
    """Measure one cell of the matrix on a fresh database."""
    workdir = os.path.join(base_dir, f"c{clients}-g{group}")
    db = _make_db(workdir, config, group, slots_needed=clients)
    server = Server(db, queue_depth=max(64, 2 * clients), workers=config.workers)
    try:
        began = time.perf_counter()
        latencies, errors = _run_clients(server, clients, config.txns_per_client)
        wall_s = max(time.perf_counter() - began, 1e-9)
    finally:
        server.close()
        db.close()
        shutil.rmtree(workdir, ignore_errors=True)
    txns = clients * config.txns_per_client
    latencies.sort()
    return ServingPoint(
        clients=clients,
        group_commit_size=group,
        txns=txns,
        errors=len(errors),
        wall_s=wall_s,
        throughput_txn_s=txns / wall_s,
        p50_ms=1000.0 * percentile(latencies, 0.50),
        p99_ms=1000.0 * percentile(latencies, 0.99),
    )


def run_serving_matrix(base_dir: str, config: ServingConfig) -> list[ServingPoint]:
    return [
        run_serving_point(base_dir, config, clients, group)
        for group in config.group_commit_sizes
        for clients in config.client_counts
    ]


def run_serving_fault_campaign(base_dir: str, config: ServingConfig) -> dict:
    """Concurrent sessions + wild writes into cold regions: zero FN.

    Traffic hammers the first ``clients`` slots of ``acct``; the
    injector corrupts records in the *top* half of the table, which no
    session reads or writes.  With region_size small enough that hot and
    cold slots never share a region, the final full audit must flag
    every injected region -- a missed one is a false negative.
    """
    clients = max(config.client_counts)
    workdir = os.path.join(base_dir, "faults")
    # Twice the slots: the top half stays cold (traffic never touches it).
    # Quarantine + repair is on so the campaign reports the full detect ->
    # quarantine -> repair -> re-certify arc, not just detection.
    db = _make_db(
        workdir,
        config,
        max(config.group_commit_sizes),
        2 * clients,
        quarantine_repair=True,
    )
    server = Server(db, queue_depth=max(64, 2 * clients), workers=config.workers)
    try:
        injector = FaultInjector(db, seed=97)
        cold_slots = range(clients + clients // 2, 2 * clients)
        targets = [
            db.table("acct").record_address(slot)
            for slot in list(cold_slots)[: config.fault_injections]
        ]
        injected_done = threading.Event()

        def inject() -> None:
            # Spread the wild writes across the traffic window so some
            # land while commits are in flight.
            for address in targets:
                injector.wild_write(address, 8)
                time.sleep(0.01)
            injected_done.set()

        injector_thread = threading.Thread(target=inject)
        injector_thread.start()
        _latencies, errors = _run_clients(server, clients, config.txns_per_client)
        injector_thread.join(timeout=60)
        assert injected_done.is_set(), "fault injector did not finish"
        report = db.audit()
        return {
            "clients": clients,
            "txns": clients * config.txns_per_client,
            "traffic_errors": len(errors),
            # Detection-time audit state: clean=False means the injected
            # corruption was caught (zero FN), not that the bench failed.
            "detection_audit_clean": report.clean,
            "corrupt_regions": len(report.corrupt_regions),
            # The detection audit quarantined the corrupt regions; they
            # are repaired from checkpoint + log and a second audit
            # certifies the repaired image.
            **score_injections(
                [event.address for event in injector.events],
                report.corrupt_byte_ranges,
                quarantined=len(db.quarantined_regions()),
                repair=db.repair_quarantined,
                audit_clean=lambda: db.audit().clean,
            ),
        }
    finally:
        server.close()
        db.close()
        shutil.rmtree(workdir, ignore_errors=True)


def serving_payload(
    points: list[ServingPoint], campaign: dict, config: ServingConfig, quick: bool
) -> dict:
    return {
        "version": SERVING_JSON_VERSION,
        "quick": quick,
        "scheme": config.scheme,
        "workers": config.workers,
        "txns_per_client": config.txns_per_client,
        "matrix": [point.to_payload() for point in points],
        "fault_campaign": campaign,
    }


def render_serving_table(points: list[ServingPoint]) -> str:
    rows = [
        [
            str(point.clients),
            str(point.group_commit_size),
            f"{point.throughput_txn_s:,.0f}",
            f"{point.p50_ms:.2f}",
            f"{point.p99_ms:.2f}",
            str(point.errors),
        ]
        for point in points
    ]
    return render_table(
        ["Clients", "GC window", "Txn/sec", "p50 ms", "p99 ms", "Errors"],
        rows,
        title="Concurrent serving over the protected image (wall-clock)",
    )


# --------------------------------------------------------- registration


def _add_arguments(parser) -> None:
    parser.add_argument(
        "--serving",
        action="store_true",
        help="run the concurrent-serving benchmark (threaded scheduler, "
        "N sessions over one protected image): throughput + p50/p99 "
        "latency vs client count, with/without group commit, plus a "
        "fault campaign under concurrency (exit 1 on any false negative)",
    )
    parser.add_argument(
        "--serving-json",
        metavar="PATH",
        default="BENCH_serving.json",
        help="where --serving writes its JSON artifact "
        "(default: BENCH_serving.json)",
    )


def _run(args) -> int:
    config = ServingConfig().quick() if args.quick else ServingConfig()

    def run(workdir: str) -> tuple[dict, list[str]]:
        points = run_serving_matrix(workdir, config)
        print(render_serving_table(points))
        print()
        campaign = run_serving_fault_campaign(workdir, config)
        print(
            f"Fault campaign under {campaign['clients']} concurrent sessions: "
            f"{campaign['injected']} wild writes into cold regions, "
            f"{campaign['detected']} detected, "
            f"{campaign['false_negatives']} false negatives; "
            f"{campaign['quarantined_regions']} regions quarantined, "
            f"{campaign['repaired_regions']} repaired, post-repair audit "
            f"clean={campaign['post_repair_audit_clean']}."
        )
        failures = []
        if campaign["false_negatives"]:
            failures.append("false negatives under concurrent serving")
        return serving_payload(points, campaign, config, args.quick), failures

    return run_gated("serving", args.serving_json, run)


SERVING_SUITE = Suite(
    name="serving",
    add_arguments=_add_arguments,
    run=_run,
    selected=lambda args: args.serving,
)
