"""One run of one workload, in this interpreter.

Untraced (end-to-end metrics)::

    set up (timed) -> warm-up -> measured phase in windows -> sums check
    -> open one transaction, crash -> 5 x [copy, recover (timed), sums
    check], two more timed set-ups in between -> wild writes + audit on
    the last recovered copy

Traced (per-layer metrics; a quarter of the windows per phase)::

    install wrappers -> set up -> warm-up -> phase A untraced -> phase B
    traced -> full audit (timed) -> crash, recover once (timed) -> the same
    op stream as A against scheme ``baseline`` -> price ``Meter.charge``

Both return one result record: the metrics plus the raw per-window times
and an environment stamp, so a noisy run can be diagnosed afterwards.
"""

from __future__ import annotations

import gc
import math
import os
import platform
import resource
import shutil
import statistics
import time

import numpy

from repro.errors import ReproError

from benchmarks.e2e import quiet, spans
from benchmarks.e2e.checks import CheckFailed, check_sums, check_wild_writes
from benchmarks.e2e.loadgen import ENQUIRY, MIX_BLOCK, generate
from benchmarks.e2e.shapes import OpFailed, shape_class
from benchmarks.e2e.workloads import (
    END_TO_END,
    MIN_PERCENTILE_SAMPLES,
    PER_LAYER,
    RECOVERIES,
    SETUPS,
    TRACE_SHARE,
    WARMUP_WINDOWS,
    Workload,
)

RECORD_BYTES = 100
#: the per-window raw numbers every result record carries
WINDOW_KEYS = ("window_s", "window_acked", "window_p50_ms")
_now = time.perf_counter


# -------------------------------------------------------------- the phase


class PhaseResult:
    """What the client measured over one phase."""

    def __init__(self) -> None:
        self.window_s: list[float] = []
        self.window_acked: list[int] = []  # ops acknowledged in each window
        self.window_latencies_s: list[list[float]] = []  # of the acked ops
        self.window_kinds: list[list[str]] = []  # op kind of each latency
        self.wall_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.acked_delta = 0
        self.acked_updates = 0


def run_phase(client, ops, spec, tracer=None) -> PhaseResult:
    """Closed loop over ``ops``: windows of transactions of ops."""
    result = PhaseResult()
    phase_began = _now()
    for w in range(0, len(ops), spec.window_ops):
        latencies: list[float] = []
        kinds: list[str] = []
        window_began = _now()
        for t in range(w, w + spec.window_ops, spec.ops_per_txn):
            chunk = ops[t : t + spec.ops_per_txn]
            result.attempted += len(chunk)
            chunk_latencies: list[float] = []
            try:
                if tracer is not None:
                    tracer.set_op(t)
                began = _now()
                client.begin()
                for k, op in enumerate(chunk):
                    if tracer is not None:
                        tracer.set_op(t + k)
                    client.apply(op)
                    ended = _now()
                    chunk_latencies.append(ended - began)
                    began = ended
                client.commit()
                # Commit is acknowledged here; it belongs to the op
                # that waited for it.
                chunk_latencies[-1] += _now() - began
            except (OpFailed, ReproError):
                # Nothing in this transaction was acknowledged.
                result.failed += len(chunk)
                try:
                    client.abort()
                except (OpFailed, ReproError):
                    pass
                continue
            latencies += chunk_latencies
            for op in chunk:
                kinds.append(op[0])
                if op[0] != ENQUIRY:
                    result.acked_delta += op[4]
                    result.acked_updates += 1
        result.window_s.append(_now() - window_began)
        result.window_acked.append(len(latencies))
        result.window_latencies_s.append(latencies)
        result.window_kinds.append(kinds)
    result.wall_s = _now() - phase_began
    return result


def _windows_by_kind(result: PhaseResult) -> dict[str, list[list[float]]]:
    """op kind -> per-window latencies of that kind."""
    by_kind: dict[str, list[list[float]]] = {}
    for kinds, latencies in zip(result.window_kinds, result.window_latencies_s):
        window: dict[str, list[float]] = {}
        for kind, seconds in zip(kinds, latencies):
            window.setdefault(kind, []).append(seconds)
        for kind, values in window.items():
            by_kind.setdefault(kind, []).append(values)
    return by_kind


def _latency_ms(by_kind: dict[str, list[list[float]]], q: float) -> float:
    """Quiet-value ``q``-th percentile op latency, per op kind, combined
    by each kind's share of the ops.

    A percentile of the pooled latencies is ill-conditioned on a mixed
    workload: with half enquiries (~0.4 ms) and half updates (~1 ms) the
    pooled median falls in the empty gap between the two modes and
    jumped 0.53-1.05 ms from window to window of one run.  Within one kind
    it is an ordinary central quantile; on a single-kind workload this is
    the plain percentile.
    """
    samples = {kind: sum(map(len, windows)) for kind, windows in by_kind.items()}
    total = sum(samples.values())
    return 1e3 * sum(
        samples[kind] / total * quiet.quiet_percentile(windows, q, MIN_PERCENTILE_SAMPLES)
        for kind, windows in by_kind.items()
    )


def phase_summary(result: PhaseResult) -> dict:
    """The timing estimates of one phase (see ``quiet``).

    Only acknowledged ops count as work: a window's rate is the ops it
    acknowledged over the time it took, so a change that makes ops fail
    (an abort is quicker than a commit) reads slower, not faster.
    """
    ops = result.attempted - result.failed
    if not ops:
        raise CheckFailed(f"none of the {result.attempted} ops attempted was acknowledged")
    every_latency = [x for w in result.window_latencies_s for x in w]
    s_per_op = [
        seconds / acked if acked else math.inf
        for seconds, acked in zip(result.window_s, result.window_acked)
    ]
    quiet_rate = 1.0 / quiet.quiet_value(s_per_op)
    by_kind = _windows_by_kind(result)
    return {
        "ops": ops,
        "attempted": result.attempted,
        "failed": result.failed,
        "latency_total_s": sum(every_latency),
        "ops_per_s": quiet_rate,
        "op_p50_ms": _latency_ms(by_kind, 50),
        "op_p95_ms": _latency_ms(by_kind, 95),
        "op_p99_ms": 1e3 * quiet.percentile(every_latency, 99),
        "wall_ops_per_s": ops / result.wall_s,
        "quiet_ratio": (ops / result.wall_s) / quiet_rate,
        "window_s": result.window_s,
        "window_acked": result.window_acked,
        "window_p50_ms": [
            1e3 * quiet.percentile(w, 50) if w else None for w in result.window_latencies_s
        ],
    }


# ---------------------------------------------------------------- helpers


class Acked:
    """Running ground truth: what the database must hold."""

    def __init__(self) -> None:
        self.delta = 0
        self.updates = 0

    def add(self, result: PhaseResult) -> PhaseResult:
        self.delta += result.acked_delta
        self.updates += result.acked_updates
        return result

    def check(self, where: str, shape) -> dict:
        """Verify ``shape`` holds exactly the acknowledged work; its sums."""
        sums = shape.sums()
        check_sums(where, sums, self.delta, self.updates)
        return sums


def _windows(ops, first_window, windows, spec):
    lo = first_window * spec.window_ops
    return ops[lo : lo + windows * spec.window_ops]


def _open_unacked(client, ops) -> None:
    """Leave one update transaction open and unacknowledged."""
    client.begin()
    client.apply(next(op for op in ops[-MIX_BLOCK:] if op[0] != ENQUIRY))


def _live_bytes(sums: dict) -> int:
    return RECORD_BYTES * sum(v for k, v in sums.items() if k.endswith("_rows"))


def _max_rss_mib(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def environment() -> dict:
    """The stamp of this interpreter; ``cli`` adds the commit.

    It must start no process -- so no ``git`` here and no
    ``platform.platform()``, which runs ``uname -p``: a reaped child counts
    in ``RUSAGE_CHILDREN``, which ``peak_rss_mb`` reads for the shard
    workers, at the size of the interpreter that forked it.
    """
    uname = os.uname()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": f"{uname.sysname}-{uname.release}-{uname.machine}",
        "hashseed": os.environ.get("PYTHONHASHSEED"),
        "loadavg_start": list(os.getloadavg()),
    }


def _ops(spec: Workload, seed: int, windows: int):
    """The run's op stream (the last block feeds the open transaction)."""
    count = windows * spec.window_ops + MIX_BLOCK
    began = _now()
    ops = generate(spec, seed, count)
    generator_us = 1e6 * (_now() - began) / count
    return ops, generator_us


def _history_capacity(spec: Workload, ops) -> int:
    # Every history row lands on the client's home shard, and the router
    # splits the global capacity evenly (plus slack), hence the factor.
    return len(ops) * spec.n_shards + MIX_BLOCK


# ----------------------------------------------------------- untraced run


def run_untraced(spec: Workload, seed: int, seconds: float, workdir: str) -> dict:
    windows = spec.windows_for(seconds)
    ops, _generator_us = _ops(spec, seed, WARMUP_WINDOWS + windows)
    capacity = _history_capacity(spec, ops)
    shape_cls = shape_class(spec)

    live_dir = os.path.join(workdir, "db")
    began = _now()
    shape = shape_cls.create(spec, live_dir, capacity)
    setup_s = [_now() - began]

    acked = Acked()
    client = shape.client()
    warmup = acked.add(run_phase(client, _windows(ops, 0, WARMUP_WINDOWS, spec), spec))

    gen2_before = gc.get_stats()[2]["collections"]
    virtual_before, log_before = shape.virtual_ns(), shape.log_bytes()
    result = acked.add(run_phase(client, _windows(ops, WARMUP_WINDOWS, windows, spec), spec))
    virtual_s = (shape.virtual_ns() - virtual_before) / 1e9
    log_bytes = shape.log_bytes() - log_before
    gen2 = gc.get_stats()[2]["collections"] - gen2_before
    summary = phase_summary(result)
    # Peak memory of serving: sampled before the recoveries and repeated
    # set-ups below, which build further databases in this interpreter.
    peak_rss_mib = _max_rss_mib(resource.RUSAGE_SELF)

    sums = acked.check("after the measured phase", shape)
    stored_ratio = shape.stored_bytes() / _live_bytes(sums)

    _open_unacked(client, ops)
    shape.crash()
    # The crash reaped the shard workers, the only processes a run starts:
    # the kernel reports the largest of them (nothing on a single node).
    peak_rss_mib += _max_rss_mib(resource.RUSAGE_CHILDREN)
    # The remaining set-ups go between the recoveries, so each metric's
    # samples are spread over the rest of the run instead of sharing one
    # spell of contention.
    recovery_s: list[float] = []
    redo_records = 0
    scratch_dir = os.path.join(workdir, "scratch")
    for repeat in range(RECOVERIES):
        shutil.copytree(live_dir, scratch_dir)
        began = _now()
        recovered, redo_records = shape_cls.recover(spec, scratch_dir)
        recovery_s.append(_now() - began)
        try:
            acked.check(f"after recovery of copy {repeat}", recovered)
            if repeat == RECOVERIES - 1:
                wild = check_wild_writes(recovered, seed)
        finally:
            recovered.close()
        shutil.rmtree(scratch_dir)
        if repeat % 2 == 1 and len(setup_s) < SETUPS:
            began = _now()
            fresh = shape_cls.create(spec, scratch_dir, capacity)
            setup_s.append(_now() - began)
            fresh.close()
            shutil.rmtree(scratch_dir)

    acked_ops = summary["ops"]
    values = {
        "setup_s": min(setup_s),
        "ops_per_s": summary["ops_per_s"],
        "op_p50_ms": summary["op_p50_ms"],
        "recovery_s": min(recovery_s),
        "virtual_ops_per_s": acked_ops / virtual_s,
        "log_bytes_per_op": log_bytes / acked_ops,
        "stored_bytes_per_user_byte": stored_ratio,
        "peak_rss_mb": peak_rss_mib,
    }
    return {
        "metrics": _with_units(values, END_TO_END),
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "diagnostics": {
            "driver.wall_ops_per_s": summary["wall_ops_per_s"],
            "driver.quiet_ratio": summary["quiet_ratio"],
            "driver.op_p95_ms": summary["op_p95_ms"],
            "driver.op_p99_ms": summary["op_p99_ms"],
            "driver.gc_gen2_collections": gen2,
            "setup_s_each": setup_s,
            "recovery_s_each": recovery_s,
            "redo_records": redo_records,
        },
        "checks": {
            "sums_checked": 1 + RECOVERIES,
            "wild_writes_detected": wild,
            "acked_update_ops": acked.updates,
        },
        "op_counts": {
            "windows": windows,
            "window_ops": spec.window_ops,
            "measured_ops": summary["attempted"],
            "warmup_ops": warmup.attempted,
        },
        "windows": {key: summary[key] for key in WINDOW_KEYS},
    }


# ------------------------------------------------------------- traced run


def _price_charge(tracer: spans.Tracer) -> float:
    """ns per ``Meter.charge`` call, tight loop, unwrapped function."""
    from repro.sim.clock import Meter, VirtualClock
    from repro.sim.costs import DEFAULT_COSTS

    meter = Meter(VirtualClock(), DEFAULT_COSTS)
    charge, calls = tracer.meter_charge, 200_000
    best = math.inf
    for _repeat in range(3):
        began = time.perf_counter_ns()
        for _call in range(calls):
            charge(meter, "lock_acquire")
        best = min(best, (time.perf_counter_ns() - began) / calls)
    return best


def _meter_delta(before: dict, after: dict) -> dict:
    return {event: after.get(event, 0) - before.get(event, 0) for event in after}


def run_traced(spec: Workload, seed: int, seconds: float, workdir: str, trace_path: str) -> dict:
    tracer = spans.Tracer()
    tracer.install()
    windows = max(2, math.ceil(spec.windows_for(seconds) * TRACE_SHARE))
    stream, generator_us = _ops(spec, seed, WARMUP_WINDOWS + 2 * windows)
    capacity = _history_capacity(spec, stream)
    shape_cls = shape_class(spec)

    live_dir = os.path.join(workdir, "db")
    shape = shape_cls.create(spec, live_dir, capacity)
    checkpoint_s = shape.first_checkpoint_s
    acked = Acked()
    client = shape.client()
    acked.add(run_phase(client, _windows(stream, 0, WARMUP_WINDOWS, spec), spec))

    # Phase A: untraced reference for overhead and the baseline ratio.
    gen2_before = gc.get_stats()[2]["collections"]
    virtual_before = shape.virtual_ns()
    result_a = acked.add(run_phase(client, _windows(stream, WARMUP_WINDOWS, windows, spec), spec))
    virtual_a = shape.virtual_ns() - virtual_before
    gen2 = gc.get_stats()[2]["collections"] - gen2_before
    untraced = phase_summary(result_a)

    # Phase B: the same shape of work with spans on.
    meter_before, log_before = shape.meter(), shape.log_bytes()
    shape.trace_workers("start")
    tracer.start()
    result_b = acked.add(
        run_phase(client, _windows(stream, WARMUP_WINDOWS + windows, windows, spec), spec, tracer)
    )
    main_export = tracer.stop()
    worker_exports = shape.trace_workers("stop")
    meter = _meter_delta(meter_before, shape.meter())
    log_bytes = shape.log_bytes() - log_before
    traced = phase_summary(result_b)
    stats = spans.analyse(main_export, worker_exports)
    spans.write_jsonl(trace_path, main_export, worker_exports)

    began = _now()
    corrupt = shape.audit()
    audit_ms = 1e3 * (_now() - began)
    if corrupt:
        raise CheckFailed(f"audit after the traced phase found corruption: {corrupt}")
    acked.check("after the traced phase", shape)
    rejections = shape.backpressure_rejections()

    _open_unacked(client, stream)
    shape.crash()
    began = _now()
    recovered, redo_records = shape_cls.recover(spec, live_dir)
    recovery_s = _now() - began
    try:
        acked.check("after recovery", recovered)
    finally:
        recovered.close()
    shutil.rmtree(live_dir)

    # Reference arm: the same op stream as phase A against scheme baseline.
    shape = shape_cls.create(spec, live_dir, capacity, scheme="baseline")
    client = shape.client()
    run_phase(client, _windows(stream, 0, WARMUP_WINDOWS, spec), spec)
    virtual_before = shape.virtual_ns()
    baseline = phase_summary(
        run_phase(client, _windows(stream, WARMUP_WINDOWS, windows, spec), spec)
    )
    virtual_baseline = shape.virtual_ns() - virtual_before
    shape.close()

    ops, txns = traced["ops"], traced["ops"] / spec.ops_per_txn
    total, own, count, arg = stats.total_ns, stats.self_ns, stats.count, stats.arg_sum

    def per(ns: float, divisor: float) -> float:
        return ns / 1e3 / divisor if divisor else 0.0

    def median_of(values: list[int], scale: float) -> float:
        return statistics.median(values) / scale if values else 0.0

    flushes = meter.get("flush_fixed", 0)
    queue_wait = sum(stats.queue_wait_ns)
    covered = sum(own.values())
    values = {
        "serve.requests_per_op": count["serve.submit"] / ops,
        "serve.dispatch_self_us_per_op": per(
            own["serve.submit"] + own["serve.execute"] - queue_wait, ops
        ),
        "serve.queue_wait_us_per_request": per(queue_wait, len(stats.queue_wait_ns)),
        "serve.backpressure_rejections": rejections,
        "shard.calls_per_op": count["shard.call"] / ops,
        "shard.call_us_p50": median_of(stats.call_ns, 1e3),
        "shard.ipc_us_per_call": median_of(stats.ipc_ns, 1e3),
        "shard.router_self_us_per_op": per(
            own["shard.partition"] + own["shard.route"] + own["shard.commit_session"], ops
        ),
        "shard.twopc_share": len(stats.twopc_commit_ns) / txns,
        "shard.twopc_commit_ms_p50": median_of(stats.twopc_commit_ns, 1e6),
        "shard.local_commit_ms_p50": median_of(stats.local_commit_ns, 1e6),
        "shard.decision_log_appends": count["shard.decision_log"],
        "txn.lock_acquire_us_per_op": per(total["txn.lock"], ops),
        "txn.lock_release_us_per_op": per(
            total["txn.lock_release_op"]
            + total["txn.lock_release_all"]
            + total["txn.locks_held"],
            ops,
        ),
        "txn.locks_held_at_commit": arg["txn.locks_held"] / max(1, count["txn.locks_held"]),
        "txn.commit_self_us_per_txn": per(
            own["txn.commit"] + own["txn.prepare"] + own["txn.commit_prepared"], txns
        ),
        "txn.update_window_self_us_per_op": per(
            own["txn.open_window"] + own["txn.write"] + own["txn.end_update"] + own["txn.update"],
            ops,
        ),
        "txn.updates_per_op": count["txn.end_update"] / ops,
        "core.maintain_us_per_op": per(
            total["core.on_begin_update"] + total["core.on_end_update"], ops
        ),
        "core.on_read_us_per_op": per(total["core.on_read"], ops),
        "core.words_folded_per_op": meter.get("cw_maint_word", 0) / ops,
        "core.regions_checked_per_op": meter.get("cw_check_fixed", 0) / ops,
        "core.audit_full_ms": audit_ms,
        "core.virtual_overhead_pct": 100.0 * (1.0 - virtual_baseline / virtual_a),
        "core.wall_overhead_pct": 100.0 * (1.0 - untraced["ops_per_s"] / baseline["ops_per_s"]),
        "sim.charges_per_op": stats.charges / ops,
        "sim.charge_ns_per_call": _price_charge(tracer),
        "wal.records_per_op": (count["wal.append"] + arg["wal.extend"]) / ops,
        "wal.flushes_per_op": flushes / ops,
        "wal.append_us_per_op": per(total["wal.append"] + total["wal.extend"], ops),
        "wal.flush_us_per_commit": per(total["wal.flush"], txns),
        "wal.bytes_per_flush": log_bytes / flushes if flushes else 0.0,
        "storage.lookup_us_per_call": per(total["storage.lookup"], count["storage.lookup"]),
        "storage.update_self_us_per_call": per(own["storage.update"], count["storage.update"]),
        "storage.insert_self_us_per_call": per(own["storage.insert"], count["storage.insert"]),
        "storage.index_probes_per_lookup": stats.index_probe_reads
        / max(1, count["storage.index_lookup"]),
        "mem.allocate_us_per_insert": per(total["mem.allocate"], count["storage.insert"]),
        "mem.bytes_read_per_op": (arg["txn.read"] + arg["txn.open_window"]) / ops,
        "recovery.checkpoint_s": checkpoint_s,
        "recovery.redo_records": redo_records,
        "recovery.redo_records_per_s": redo_records / recovery_s,
        "runtime.tick_self_us_per_commit": per(own["runtime.tick"], txns),
        "driver.self_us_per_op": generator_us,
        "driver.wall_ops_per_s": untraced["wall_ops_per_s"],
        "driver.quiet_ratio": untraced["quiet_ratio"],
        "driver.op_p95_ms": untraced["op_p95_ms"],
        "driver.op_p99_ms": untraced["op_p99_ms"],
        "driver.gc_gen2_collections": gen2,
        "driver.trace_overhead_pct": 100.0 * (untraced["ops_per_s"] / traced["ops_per_s"] - 1.0),
        "driver.span_coverage_pct": 100.0 * covered / (traced["latency_total_s"] * 1e9),
        "driver.failed_op_share": (untraced["failed"] + traced["failed"])
        / (untraced["attempted"] + traced["attempted"]),
    }
    layer_us = {
        layer: per(ns, ops) for layer, ns in sorted(stats.layer_self_ns().items())
    }
    layer_us["(unattributed: client code between calls)"] = per(
        traced["latency_total_s"] * 1e9 - covered, ops
    )
    return {
        "metrics": _with_units(values, PER_LAYER),
        "attempted": untraced["attempted"] + traced["attempted"],
        "failed": untraced["failed"] + traced["failed"],
        "diagnostics": {
            "layer_self_us_per_op": layer_us,
            "spans": sum(count.values()),
            "recovery_s": recovery_s,
            "virtual_ops_per_s": untraced["ops"] / (virtual_a / 1e9),
            "baseline_virtual_ops_per_s": baseline["ops"] / (virtual_baseline / 1e9),
            "untraced_ops_per_s": untraced["ops_per_s"],
            "traced_ops_per_s": traced["ops_per_s"],
            "baseline_ops_per_s": baseline["ops_per_s"],
        },
        "checks": {"sums_checked": 2, "acked_update_ops": acked.updates},
        "op_counts": {
            "windows": windows,
            "window_ops": spec.window_ops,
            "traced_ops": traced["attempted"],
        },
        "windows": {key: untraced[key] for key in WINDOW_KEYS},
    }


def _with_units(values: dict, metrics) -> dict:
    missing = {m.name for m in metrics} ^ set(values)
    if missing:
        raise AssertionError(f"metric list and runner disagree on {sorted(missing)}")
    return {m.name: {"value": values[m.name], "unit": m.unit} for m in metrics}


# ------------------------------------------------------------------ entry


def run(spec: Workload, seed: int, seconds: float, trace: bool, out_dir: str) -> dict:
    """Run ``spec`` once; raises if any correctness check fails."""
    workdir = os.path.join(out_dir, f"work-{spec.name}-{os.getpid()}")
    if os.path.exists(workdir):
        shutil.rmtree(workdir)
    os.makedirs(workdir)
    env = environment()
    began = _now()
    try:
        if trace:
            trace_path = os.path.join(out_dir, f"trace_{spec.name}.jsonl")
            record = run_traced(spec, seed, seconds, workdir, trace_path)
        else:
            record = run_untraced(spec, seed, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env["loadavg_end"] = list(os.getloadavg())
    record.update(
        workload=spec.name,
        seed=seed,
        seconds=seconds,
        trace=int(trace),
        correct=True,
        run_wall_s=_now() - began,
        env=env,
    )
    return record
