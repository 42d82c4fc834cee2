"""Self-check of the benchmark itself.  Not part of tier-1; run with::

    PYTHONPATH=src python -m pytest benchmarks/e2e/tests -q

The smoke runs take about a minute: each starts a fresh interpreter.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from benchmarks.e2e import cli, loadgen, quiet, runner, shapes, spans
from benchmarks.e2e.workloads import (
    BRANCHES,
    DEFAULT_SECONDS,
    END_TO_END,
    PER_LAYER,
    TRACE_SHARE,
    WORKLOADS,
    workload,
)

SMOKE_SECONDS = DEFAULT_SECONDS * TRACE_SHARE


# ------------------------------------------------------------- generator


@pytest.mark.parametrize("spec", WORKLOADS, ids=lambda s: s.name)
def test_generator_is_deterministic_per_seed(spec):
    first = loadgen.generate(spec, 7, 500)
    assert first == loadgen.generate(spec, 7, 500)
    assert first != loadgen.generate(spec, 8, 500)


@pytest.mark.parametrize("spec", WORKLOADS, ids=lambda s: s.name)
def test_cold_accounts_are_never_drawn_and_history_ids_are_unique(spec):
    ops = loadgen.generate(spec, 3, 2000)
    assert not set(loadgen.COLD_ACCOUNTS) & {op[1] for op in ops}
    hids = [op[5] for op in ops if op[0] != loadgen.ENQUIRY]
    assert len(hids) == len(set(hids))


def test_cross_shard_ops_take_their_account_from_the_other_shard():
    spec = workload("sharded_sessions_datacw")
    ops = loadgen.generate(spec, 5, 400)
    cross = [op for op in ops if op[0] == loadgen.CROSS]
    assert len(cross) == round(spec.cross_share * len(ops))
    for _kind, aid, tid, bid, _delta, _hid in ops:
        assert bid % spec.n_shards == 0  # teller, branch, history: home shard
        assert tid % BRANCHES == bid
    assert all(op[1] % BRANCHES % spec.n_shards == 1 for op in cross)
    assert all(op[1] % BRANCHES % spec.n_shards == 0 for op in ops if op[0] != loadgen.CROSS)


@pytest.mark.parametrize("spec", WORKLOADS, ids=lambda s: s.name)
def test_every_window_holds_the_same_mix(spec):
    assert spec.window_ops % loadgen.MIX_BLOCK == 0
    assert spec.window_ops % spec.ops_per_txn == 0
    ops = loadgen.generate(spec, 9, 4 * spec.window_ops)
    mixes = {
        tuple(sorted(op[0] for op in ops[i : i + spec.window_ops]))
        for i in range(0, len(ops), spec.window_ops)
    }
    assert len(mixes) == 1


@pytest.mark.parametrize("spec", WORKLOADS, ids=lambda s: s.name)
def test_a_full_length_run_has_enough_windows_for_the_quiet_rule(spec):
    assert spec.windows_for(DEFAULT_SECONDS) >= 30


# ------------------------------------------------------------ estimators


def test_quiet_value_ignores_a_slow_spell_over_40_percent_of_windows():
    calm = [0.100 + 0.0005 * (i % 7) for i in range(40)]
    contended = list(calm)
    for i in range(12, 28):  # 16 of 40 windows run at half speed
        contended[i] *= 2.0
    assert quiet.quiet_value(contended) == pytest.approx(quiet.quiet_value(calm), rel=0.01)
    mean = sum(contended) / len(contended)
    assert mean > 1.3 * quiet.quiet_value(contended)  # what a whole-phase rate sees


def test_quiet_value_is_the_slowest_of_the_best_twentieth():
    values = [1.0] * 38 + [0.5, 0.4]  # two freak windows of 40
    assert quiet.quiet_value(values) == 0.5
    assert quiet.quiet_value(values[:19] + [0.5]) == 0.5  # up to 20 windows: the best one
    assert quiet.quiet_value([1.0] * 39 + [0.5, 0.9]) == 1.0  # 41 windows: third best


def test_percentile_windows_are_merged_up_to_the_sample_floor():
    windows = [[float(i)] * 100 for i in range(5)]
    groups = quiet.merge_windows(windows, 200)
    assert [len(g) for g in groups] == [200, 300]
    assert quiet.percentile(list(range(1, 101)), 95) == 95


class _FlakyClient:
    """Takes 1 ms per op; aborts every transaction holding a marked op."""

    def begin(self):
        self.doomed = False

    def apply(self, op):
        time.sleep(0.001)
        self.doomed = self.doomed or op[5] == "fail"

    def commit(self):
        if self.doomed:
            raise shapes.OpFailed("marked op")

    def abort(self):
        pass


def test_failed_ops_are_not_counted_as_work():
    spec = workload("embedded_readmix_strict")
    ops = loadgen.generate(spec, 1, 3 * spec.window_ops)
    clean = runner.phase_summary(runner.run_phase(_FlakyClient(), ops, spec))
    assert clean["failed"] == 0 and clean["window_acked"] == [spec.window_ops] * 3
    marked = [op[:5] + ("fail",) if i % 4 == 0 else op for i, op in enumerate(ops)]
    flaky = runner.phase_summary(runner.run_phase(_FlakyClient(), marked, spec))
    assert flaky["failed"] == len(ops) // 4 and flaky["attempted"] == len(ops)
    assert flaky["window_acked"] == [spec.window_ops * 3 // 4] * 3
    assert flaky["ops_per_s"] == pytest.approx(0.75 * clean["ops_per_s"], rel=0.1)


def test_session_client_refuses_an_enquiry_op():
    client = shapes.SessionClient.__new__(shapes.SessionClient)
    with pytest.raises(ValueError):
        client.apply((loadgen.ENQUIRY, 50, 1, 1, 0, 0))


# ---------------------------------------------------------------- tracer


def test_self_time_is_span_minus_children():
    tracer = spans.Tracer()

    class Layered:
        def outer(self):
            time.sleep(0.002)
            self.inner()
            self.inner()

        def inner(self):
            time.sleep(0.003)

    Layered.outer = tracer._span(Layered.__dict__["outer"], "a.outer", None)
    Layered.inner = tracer._span(Layered.__dict__["inner"], "b.inner", None)
    tracer.start()
    Layered().outer()
    stats = spans.analyse(tracer.stop(), [])
    assert stats.count == {"a.outer": 1, "b.inner": 2}
    assert stats.self_ns["b.inner"] == stats.total_ns["b.inner"] >= 6_000_000
    assert stats.self_ns["a.outer"] == stats.total_ns["a.outer"] - stats.total_ns["b.inner"]
    assert stats.self_ns["a.outer"] >= 2_000_000
    assert set(stats.layer_self_ns()) == {"a", "b"}


# ------------------------------------------------- the runs and the contract


def _benchmark_json() -> dict:
    with open(os.path.join(cli.ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_benchmark_json_matches_the_definitions():
    doc = _benchmark_json()
    assert doc["paths"] == ["benchmarks/e2e"]
    assert doc["run_seconds"] == DEFAULT_SECONDS
    assert doc["workloads"] == [{"name": w.name, "why": w.why} for w in WORKLOADS]
    assert doc["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END
    ]
    assert doc["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
    ]
    setup = next(m for m in END_TO_END if m.name == "setup_s")
    assert setup.bound == max(m.bound for m in END_TO_END) <= 0.25


def _result_file(path, seeds, seconds=10, failed=0, ops_per_s=1000.0):
    runs = [
        {
            "workload": WORKLOADS[0].name,
            "trace": 0,
            "seed": seed,
            "seconds": seconds,
            "op_counts": {"windows": 3 * seconds},
            "attempted": 1000,
            "failed": failed,
            "metrics": {m.name: {"value": ops_per_s, "unit": m.unit} for m in END_TO_END},
        }
        for seed in seeds
    ]
    path.write_text(json.dumps({"runs": runs}))
    return str(path)


def test_compare_refuses_runs_that_did_not_measure_the_same_thing(tmp_path):
    a = _result_file(tmp_path / "a.json", [1, 2, 3])
    assert cli.main(["--compare", a, a]) == 0
    assert cli.main(["--compare", a, _result_file(tmp_path / "b.json", [1, 2, 3], seconds=2)]) == 2
    assert cli.main(["--compare", a, _result_file(tmp_path / "c.json", [4, 5, 6])]) == 2


def test_compare_calls_any_new_failed_op_a_regression(tmp_path, capsys):
    a = _result_file(tmp_path / "a.json", [1, 2, 3])
    b = _result_file(tmp_path / "b.json", [1, 2, 3], failed=1)
    assert cli.main(["--compare", a, b]) == 1
    rows = [line for line in capsys.readouterr().out.splitlines() if "failed_op_share" in line]
    assert len(rows) == 1 and rows[0].endswith("worse")
    assert cli.main(["--compare", b, a]) == 0


@pytest.mark.parametrize("spec", WORKLOADS, ids=lambda s: s.name)
def test_quarter_scale_smoke_run_passes_its_checks(spec):
    record = cli.run_workload(spec.name, seed=2, seconds=SMOKE_SECONDS, trace=0)
    assert record is not None, "the run failed a correctness check"
    assert record["correct"] and record["failed"] == 0
    assert record["checks"]["wild_writes_detected"] == 8
    names = [m["name"] for m in _benchmark_json()["end_to_end"]]
    assert list(record["metrics"]) == names
    assert all(record["metrics"][name]["value"] > 0 for name in names)
    assert len(record["windows"]["window_s"]) == spec.windows_for(SMOKE_SECONDS)


def test_traced_smoke_run_emits_every_per_layer_metric():
    record = cli.run_workload("sharded_sessions_datacw", seed=2, seconds=SMOKE_SECONDS, trace=1)
    assert record is not None
    metrics = record["metrics"]
    assert list(metrics) == [m["name"] for m in _benchmark_json()["per_layer"]]
    assert metrics["driver.span_coverage_pct"]["value"] >= 90.0
    assert metrics["shard.twopc_share"]["value"] == pytest.approx(0.15)
    assert metrics["serve.requests_per_op"]["value"] == 12
    assert os.path.exists(os.path.join(cli.OUT_DIR, "trace_sharded_sessions_datacw.jsonl"))
