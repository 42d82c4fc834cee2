"""The default CLI suite: the paper's tables, sweeps and fault campaign.

Holds the runners behind ``python -m repro.bench`` with no suite flag
(Table 1, Table 2, the region-size sweep, the seeded fault campaign and
the ``--json`` artifact) plus the ``--profile`` suite.  Registered with
:mod:`repro.bench.suites`; ``__main__`` only assembles suites.
"""

from __future__ import annotations

import argparse
import os
import shutil
import tempfile

from repro.bench.harness import (
    RunResult,
    SchemeSpec,
    STACKED_ROWS,
    TABLE2_ROWS,
    run_scheme,
)
from repro.bench.platforms import PLATFORMS, mprotect_microbenchmark
from repro.bench.reporting import (
    bench_json_payload,
    render_table,
    render_table1,
    render_table2,
    write_bench_json,
)
from repro.bench.suites import Suite, report_gates
from repro.bench.tpcb import TPCBConfig


def print_table1() -> dict[str, float]:
    measured = {
        name: mprotect_microbenchmark(profile)
        for name, profile in PLATFORMS.items()
    }
    print(render_table1(measured))
    return measured


def print_table2(scale: float, stacked: bool = False) -> list[RunResult]:
    workload = TPCBConfig().scaled(scale)
    print(
        f"TPC-B at scale {scale}: {workload.accounts:,} accounts, "
        f"{workload.operations:,} operations\n"
    )
    rows = TABLE2_ROWS + STACKED_ROWS if stacked else TABLE2_ROWS
    workdir = tempfile.mkdtemp(prefix="repro-bench-")
    try:
        results = []
        baseline = None
        for spec in rows:
            result = run_scheme(
                spec, workload, os.path.join(workdir, spec.scheme_dir())
            )
            if baseline is None:
                baseline = result.ops_per_sec
                result.slowdown_pct = 0.0
            else:
                result.slowdown_pct = 100.0 * (1.0 - result.ops_per_sec / baseline)
            results.append(result)
        print(render_table2(results))
        return results
    finally:
        shutil.rmtree(workdir)


def print_region_sweep(scale: float) -> None:
    workload = TPCBConfig().scaled(scale)
    workdir = tempfile.mkdtemp(prefix="repro-sweep-")
    try:
        baseline = run_scheme(
            SchemeSpec("Baseline", "baseline"),
            workload,
            os.path.join(workdir, "baseline"),
        )
        rows = []
        for size in (32, 64, 128, 256, 512, 1024, 2048, 4096, 8192):
            spec = SchemeSpec(f"{size} B", "precheck", {"region_size": size})
            result = run_scheme(
                spec, workload, os.path.join(workdir, spec.scheme_dir())
            )
            slowdown = 100.0 * (1.0 - result.ops_per_sec / baseline.ops_per_sec)
            rows.append(
                [
                    f"{size} B",
                    f"{result.ops_per_sec:,.0f}",
                    f"{slowdown:.1f}%",
                    f"{result.space_overhead_pct:.3f}%",
                ]
            )
        print(
            render_table(
                ["Region size", "Ops/Sec", "% Slower", "Space overhead"],
                rows,
                title="Read Prechecking region-size sweep",
            )
        )
    finally:
        shutil.rmtree(workdir)


def print_profile(scale: float, scheme: str, top: int) -> None:
    """cProfile one TPC-B run; print the top-N cumulative-time entries.

    Answers "where do the update cycles actually go" for the write-path
    work: run under ``--profile`` before and after a change (or after
    flipping ``image_backing``) to see which frames moved.
    """
    import cProfile
    import pstats

    workload = TPCBConfig().scaled(scale)
    workdir = tempfile.mkdtemp(prefix="repro-profile-")
    spec = SchemeSpec("profiled", scheme)
    profiler = cProfile.Profile()
    try:
        profiler.enable()
        result = run_scheme(spec, workload, os.path.join(workdir, "db"))
        profiler.disable()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(
        f"cProfile of one TPC-B run: scheme={scheme}, scale={scale} "
        f"({workload.operations:,} operations, "
        f"{result.ops_per_sec:,.0f} virtual ops/sec)\n"
    )
    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative").print_stats(top)


def print_fault_campaign(
    seeds: tuple[int, ...],
    schemes: tuple[str, ...],
    schedules: int,
    ops: int,
    image_backing: str = "heap",
):
    """Run a seeded fault campaign and print its scoreboard."""
    from repro.faults.campaign import CampaignSpec, run_campaign

    spec = CampaignSpec(
        seeds=seeds,
        schemes=schemes,
        schedules_per_config=schedules,
        ops_per_schedule=ops,
        image_backing=image_backing,
    )
    workdir = tempfile.mkdtemp(prefix="repro-faults-")
    try:
        result = run_campaign(spec, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    board = result.scoreboard()
    rows = []
    for scheme, row in board.items():
        latency = row["mean_detection_latency_ops"]
        rows.append(
            [
                scheme,
                str(row["schedules"]),
                str(row["direct_faults"]),
                str(row["detected"]),
                str(row["erased"]),
                str(row["false_negatives"]),
                "-" if latency is None else f"{latency:.2f}",
                f"{row['repairs_ok']}/{row['repairs']}",
                f"{row['values_ok']}/{row['schedules']}",
                str(row["quarantine_blocked_reads"]),
                str(row["quarantine_served_garbage"]),
            ]
        )
    print(
        render_table(
            [
                "Scheme",
                "Runs",
                "Direct",
                "Detected",
                "Erased",
                "FalseNeg",
                "Latency(ops)",
                "Repairs",
                "Values",
                "Blocked",
                "Garbage",
            ],
            rows,
            title=(
                f"Fault campaign: {result.spec.total_schedules} schedules "
                f"({len(spec.seeds)} seeds x {len(spec.schemes)} schemes x "
                f"{spec.schedules_per_config}, "
                f"image_backing={spec.image_backing})"
            ),
        )
    )
    return result


def fault_gate_failures(result) -> list[str]:
    """Every reason the ``--faults`` gate fails, as printable lines."""
    failures = [
        f"schedule raised: {o.scheme} seed={o.seed} idx={o.index}: {o.error}"
        for o in result.errors
    ]
    if result.false_negatives:
        failures.append(f"FALSE NEGATIVES: {len(result.false_negatives)}")
    if result.garbage_served:
        failures.append(
            f"QUARANTINE SERVED GARBAGE: {len(result.garbage_served)}"
        )
    return failures


# --------------------------------------------------------- registration


def _add_tables_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--table",
        choices=["1", "2", "all", "none"],
        default="all",
        help="which table to reproduce (default: all; 'none' skips tables, "
        "e.g. for a --faults-only run)",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=0.02,
        help="TPC-B scale factor; 1.0 = the paper's 100k accounts (default 0.02)",
    )
    parser.add_argument(
        "--stacked",
        action="store_true",
        help="append the stacked-pipeline rows (e.g. data_cw+read_logging) "
        "to Table 2",
    )
    parser.add_argument(
        "--sweep",
        action="store_true",
        help="also print the region-size ablation sweep",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write the reproduced tables as machine-readable JSON "
        "(a BENCH_*.json perf-trajectory artifact)",
    )
    parser.add_argument(
        "--faults",
        action="store_true",
        help="run the seeded crash/fault campaign and print its detection/"
        "repair scoreboard (exit 1 on any false negative or quarantined "
        "read served as data)",
    )
    parser.add_argument(
        "--faults-seeds",
        default="1,2,3",
        help="comma-separated campaign seeds (default: 1,2,3)",
    )
    parser.add_argument(
        "--faults-schemes",
        default=None,
        help="comma-separated scheme stacks for the campaign (default: "
        "data_codeword,read_precheck,read_logging,data_cw+cw_read_logging)",
    )
    parser.add_argument(
        "--faults-schedules",
        type=int,
        default=17,
        help="randomized schedules per (seed, scheme) pair (default: 17)",
    )
    parser.add_argument(
        "--faults-ops",
        type=int,
        default=24,
        help="workload operations per schedule (default: 24)",
    )
    parser.add_argument(
        "--faults-backing",
        choices=["heap", "mmap"],
        default="heap",
        help="memory-image backing for campaign databases (default: heap)",
    )


def _run_tables(args: argparse.Namespace) -> int:
    table1 = None
    table2 = None
    campaign = None
    if args.table in ("1", "all"):
        table1 = print_table1()
        print()
    if args.table in ("2", "all"):
        table2 = print_table2(args.scale, stacked=args.stacked)
    if args.sweep:
        print()
        print_region_sweep(args.scale)
    if args.faults:
        if args.table != "none":
            print()
        from repro.faults.campaign import DEFAULT_SCHEMES

        schemes = (
            tuple(s for s in args.faults_schemes.split(",") if s)
            if args.faults_schemes
            else DEFAULT_SCHEMES
        )
        seeds = tuple(int(s) for s in args.faults_seeds.split(",") if s)
        campaign = print_fault_campaign(
            seeds,
            schemes,
            args.faults_schedules,
            args.faults_ops,
            image_backing=args.faults_backing,
        )
    if args.json:
        payload = bench_json_payload(table1=table1, table2=table2, scale=args.scale)
        if campaign is not None:
            payload["faults"] = campaign.to_payload()
        write_bench_json(args.json, payload)
        print(f"\nwrote {args.json}")
    return report_gates(
        fault_gate_failures(campaign) if campaign is not None else []
    )


def _add_profile_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--profile",
        action="store_true",
        help="cProfile one TPC-B run and print the hottest frames by "
        "cumulative time (see --profile-scheme / --profile-top)",
    )
    parser.add_argument(
        "--profile-scheme",
        default="data_cw",
        help="scheme for the --profile run (default: data_cw)",
    )
    parser.add_argument(
        "--profile-top",
        type=int,
        default=25,
        help="entries of the --profile report to print (default: 25)",
    )


def _run_profile(args: argparse.Namespace) -> int:
    print_profile(args.scale, args.profile_scheme, args.profile_top)
    return 0


#: The default suite: tables + sweep + fault campaign + --json artifact.
TABLES_SUITE = Suite(
    name="tables",
    add_arguments=_add_tables_arguments,
    run=_run_tables,
    selected=None,
)

PROFILE_SUITE = Suite(
    name="profile",
    add_arguments=_add_profile_arguments,
    run=_run_profile,
    selected=lambda args: args.profile,
)
