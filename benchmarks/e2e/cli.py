"""Command line: run workloads, A/A-gate the benchmark, compare result files.

::

    python -m benchmarks.e2e [--workload W] [--seed S] [--seconds N]
                             [--trace [0|1]] [--json PATH]
    python -m benchmarks.e2e --aa N [--json PATH]
    python -m benchmarks.e2e --compare A.json B.json

Each workload runs in a fresh interpreter with ``PYTHONHASHSEED=0`` (set
and dict layouts, hence timings, then repeat from run to run).  Every
metric is printed by name with its unit; the last line of standard
output is one JSON object ``{correct, attempted, failed, metrics}``.  A
failed correctness check prints no metrics and exits non-zero.  ``--aa``
exits 1 if a gap exceeds its bound or any op failed; ``--compare`` exits 1
if any row reads *worse* and 2 if the two files did not run the same work.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from benchmarks.e2e import quiet
from benchmarks.e2e.workloads import DEFAULT_SECONDS, END_TO_END, WORKLOADS, workload

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT_DIR = os.path.join(HERE, "out")
CHILD_TIMEOUT_S = 170


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[w.name for w in WORKLOADS],
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="length of the measured phase on the reference box")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: traced run, per-layer metrics; 0: end-to-end metrics")
    parser.add_argument("--json", metavar="PATH", help="also write the full result file")
    parser.add_argument("--aa", type=int, metavar="N",
                        help="A/A gate: two interleaved sets of N full runs")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="apply the BENCHMARK.json bounds to two result files")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--result", help=argparse.SUPPRESS)
    return parser


# ------------------------------------------------------------ one workload


def _pin_to_one_cpu() -> None:
    """Run this interpreter, its threads and the shard workers it forks on
    one CPU.

    Every workload is one closed loop -- client, server worker thread and
    shard worker take turns, nothing runs in parallel -- so a second core
    adds no throughput, only cross-core wake-ups.  On the reference VM
    those cost more than the request they carry, and whether the client
    and worker threads share a core flips between runs: unpinned, the
    served workload measured 876 ops/s in one run and 403-523 in the next
    nine; pinned, 797-845 in five runs of six.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _child(args) -> int:
    """Run one workload in this (fresh) interpreter; write its record."""
    from benchmarks.e2e import runner
    from benchmarks.e2e.checks import CheckFailed

    _pin_to_one_cpu()
    try:
        record = runner.run(
            workload(args.workload), args.seed, args.seconds, bool(args.trace), OUT_DIR
        )
    except CheckFailed as exc:
        print(f"benchmarks.e2e: correctness check failed: {exc}", file=sys.stderr)
        return 1
    with open(args.result, "w") as handle:
        json.dump(record, handle)
    return 0


def _commit_id() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10, cwd=HERE
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict | None:
    """One run in a fresh interpreter; ``None`` if it failed its checks."""
    os.makedirs(OUT_DIR, exist_ok=True)
    result_path = os.path.join(OUT_DIR, f"result-{name}-{os.getpid()}.json")
    command = [
        sys.executable, os.path.join(HERE, "__main__.py"), "--child",
        "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--result", result_path,
    ]
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        done = subprocess.run(command, cwd=ROOT, env=env, timeout=CHILD_TIMEOUT_S)
        if done.returncode != 0:
            return None
        with open(result_path) as handle:
            record = json.load(handle)
        record["env"]["commit"] = _commit_id()
        return record
    except subprocess.TimeoutExpired:
        print(f"benchmarks.e2e: {name} exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    finally:
        if os.path.exists(result_path):
            os.remove(result_path)


def _print_record(record: dict) -> None:
    kind = "traced, per-layer" if record["trace"] else "end-to-end"
    print(
        f"\n== {record['workload']}  ({kind}; seed {record['seed']}, "
        f"{record['seconds']:g} s nominal, run took {record['run_wall_s']:.1f} s, "
        f"{record['attempted']} ops attempted, {record['failed']} failed)"
    )
    for name, metric in record["metrics"].items():
        print(f"  {name:<38} {metric['value']:>14.6g} {metric['unit']}")
    for name, value in record["diagnostics"].items():
        if isinstance(value, dict):
            print(f"  {name}:")
            for key, item in value.items():
                print(f"    {key:<46} {item:>12.2f}")
        elif isinstance(value, list):
            print(f"  ({name:<36} {', '.join(f'{x:.4g}' for x in value)})")
        else:
            print(f"  ({name:<36} {value:>14.6g})")
    coverage = record["metrics"].get("driver.span_coverage_pct")
    if coverage is not None and coverage["value"] < 90.0:
        print("  WARNING: less than 90% of the traced phase is attributed to a layer")


def _run_once(args) -> int:
    names = [args.workload] if args.workload else [w.name for w in WORKLOADS]
    records = []
    for name in names:
        record = run_workload(name, args.seed, args.seconds, args.trace)
        if record is None:
            return 1
        _print_record(record)
        records.append(record)
    if args.json:
        _write_results(args.json, records)
    single = len(records) == 1
    metrics = {
        (name if single else f"{r['workload']}/{name}"): metric
        for r in records
        for name, metric in r["metrics"].items()
    }
    print(json.dumps({
        "correct": True,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


def _write_results(path: str, records: list[dict]) -> None:
    with open(path, "w") as handle:
        json.dump({"schema": "benchmarks.e2e/1", "runs": records}, handle, indent=1)
        handle.write("\n")


# ------------------------------------------------------- A/A and compare


def _bounds() -> dict[str, dict]:
    """End-to-end metric -> its BENCHMARK.json entry (bound, direction)."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {m["name"]: m for m in json.load(handle)["end_to_end"]}


def _untraced(runs: list[dict], name: str) -> list[dict]:
    return [r for r in runs if r["workload"] == name and not r["trace"]]


def _values(runs: list[dict], name: str, metric: str) -> list[float]:
    return [r["metrics"][metric]["value"] for r in _untraced(runs, name)]


def _failed_share(runs: list[dict]) -> float:
    """Ops that failed / ops attempted, over ``runs``."""
    return sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)


def _worse_by(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a`` (< 0: better)."""
    change = (b - a) / abs(a)
    return change if better == "lower" else -change


def _aa(args) -> int:
    sets: dict[str, list[dict]] = {"A": [], "B": []}
    for i in range(args.aa):
        for label in ("A", "B"):
            for spec in WORKLOADS:
                record = run_workload(spec.name, args.seed + i, args.seconds, 0)
                if record is None:
                    return 1
                record["set"] = label
                sets[label].append(record)
                print(f"  [{label}{i}] {spec.name}: {record['run_wall_s']:.1f} s", flush=True)
    _write_results(args.json or os.path.join(OUT_DIR, "aa.json"), sets["A"] + sets["B"])
    bounds = _bounds()
    print(
        f"\nA/A: two interleaved sets of {args.aa} runs, seeds {args.seed}.."
        f"{args.seed + args.aa - 1}.  spread = (Q3-Q1)/median within a set; gap = "
        "|median B - median A| / median A."
    )
    header = (
        f"{'workload':<26}{'metric':<28}{'median A':>12}{'median B':>12}"
        f"{'spread A':>10}{'spread B':>10}{'gap':>9}{'bound':>7}"
    )
    print(header)
    failed = False
    for spec in WORKLOADS:
        for metric in END_TO_END:
            a = _values(sets["A"], spec.name, metric.name)
            b = _values(sets["B"], spec.name, metric.name)
            med_a, med_b = statistics.median(a), statistics.median(b)
            gap = abs(med_b - med_a) / abs(med_a)
            bound = bounds[metric.name]["bound"]
            verdict = "" if gap <= bound else "  EXCEEDS BOUND"
            failed = failed or gap > bound
            print(
                f"{spec.name:<26}{metric.name:<28}{med_a:>12.5g}{med_b:>12.5g}"
                f"{quiet.relative_iqr(a):>10.4f}{quiet.relative_iqr(b):>10.4f}"
                f"{gap:>9.4f}{bound:>7.2f}{verdict}"
            )
        # No op fails on these workloads: one that does is a defect, not noise.
        shares = [_failed_share(_untraced(sets[label], spec.name)) for label in ("A", "B")]
        verdict = "  OPS FAILED" if any(shares) else ""
        failed = failed or any(shares)
        print(
            f"{spec.name:<26}{'failed_op_share':<28}{shares[0]:>12.5g}{shares[1]:>12.5g}"
            f"{'':>29}{0:>7.2f}{verdict}"
        )
    return 1 if failed else 0


def _not_comparable(runs_a: list[dict], runs_b: list[dict]) -> str | None:
    """Why the two sets of runs of one workload do not measure the same thing."""
    for field in ("seconds", "op_counts"):
        in_a, in_b = (
            sorted({json.dumps(r[field], sort_keys=True) for r in runs})
            for runs in (runs_a, runs_b)
        )
        if in_a != in_b or len(in_a) != 1:
            return f"{field} differ: {in_a} against {in_b}"
    seeds = [sorted(r["seed"] for r in runs) for runs in (runs_a, runs_b)]
    if seeds[0] != seeds[1]:
        return f"seeds differ: {seeds[0]} against {seeds[1]}"
    return None


def _compare(path_a: str, path_b: str) -> int:
    with open(path_a) as handle:
        runs_a = json.load(handle)["runs"]
    with open(path_b) as handle:
        runs_b = json.load(handle)["runs"]
    print(
        f"{'workload':<26}{'metric':<28}{'median A':>12}{'median B':>12}"
        f"{'worse by':>10}{'spread':>9}{'bound':>7}  verdict"
    )
    any_worse = False
    bounds = _bounds()
    for spec in WORKLOADS:
        untraced_a, untraced_b = _untraced(runs_a, spec.name), _untraced(runs_b, spec.name)
        if not untraced_a or not untraced_b:
            continue
        reason = _not_comparable(untraced_a, untraced_b)
        if reason is not None:
            print(f"benchmarks.e2e: {spec.name}: not comparable: {reason}", file=sys.stderr)
            return 2
        for name, entry in bounds.items():
            a, b = _values(runs_a, spec.name, name), _values(runs_b, spec.name, name)
            med_a, med_b = statistics.median(a), statistics.median(b)
            worse = _worse_by(med_a, med_b, entry["better"])
            spread = max(quiet.relative_iqr(a), quiet.relative_iqr(b))
            bound = entry["bound"]
            all_better = all(
                _worse_by(x, y, entry["better"]) < 0 for x in a for y in b
            )
            if spread > bound and not all_better:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "worse"
            elif worse < -bound:
                verdict = "better"
            else:
                verdict = "within bound"
            any_worse = any_worse or verdict == "worse"
            print(
                f"{spec.name:<26}{name:<28}{med_a:>12.5g}{med_b:>12.5g}"
                f"{worse:>+10.4f}{spread:>9.4f}{bound:>7.2f}  {verdict}"
            )
        # Any increase in failures is a regression, whatever the timings say.
        share_a, share_b = _failed_share(untraced_a), _failed_share(untraced_b)
        verdict = "worse" if share_b > share_a else "better" if share_b < share_a else "within bound"
        any_worse = any_worse or verdict == "worse"
        print(
            f"{spec.name:<26}{'failed_op_share':<28}{share_a:>12.5g}{share_b:>12.5g}"
            f"{share_b - share_a:>+10.4f}{'':>9}{0:>7.2f}  {verdict}"
        )
    return 1 if any_worse else 0


def main(argv: list[str]) -> int:
    args = _parser().parse_args(argv)
    if args.child:
        return _child(args)
    if args.compare:
        return _compare(*args.compare)
    if args.aa:
        return _aa(args)
    return _run_once(args)
