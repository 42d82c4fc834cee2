"""The serving, sharded and chaos fault harnesses hold their gates.

Every schedule key each harness runs is run here at its CI smoke size,
one schedule per key through the campaign kernel
(:func:`repro.faults.campaign.run_schedule`), and scored on ground
truth: every injected wild write convicted, quarantined and repaired,
traffic untouched, every committed value read back exactly, and a worker
killed mid-2PC leaving the transfer applied exactly once.
"""

from __future__ import annotations

from dataclasses import asdict, replace
from types import SimpleNamespace

import pytest

from repro.bench.chaos import CHAOS_KEYS, KILL_POINTS, ChaosSchedule, ChaosSpec
from repro.bench.serving import ServingSchedule, ServingSpec
from repro.bench.sharded import SHARDED_KEYS, InFlightSchedule, ShardedSpec
from repro.faults.campaign import gate_lines, run_schedule

SERVING = ServingSpec().quick()
CHAOS = ChaosSpec().quick()
#: The hang and the soak (which hangs workers too) run a shortened
#: deadline pair: a hang still outlives the call deadline, in a third of
#: the time.
SHORT_DEADLINES = replace(CHAOS, hang_s=1.0, call_timeout_s=0.3)

#: Every key the engine runs -> (smoke spec, schedule).
CASES = {
    **{key: (SERVING, ServingSchedule) for key in SERVING.keys},
    **{key: (ShardedSpec().quick(), InFlightSchedule) for key in SHARDED_KEYS},
    **{
        key: (SHORT_DEADLINES if key in ("hang", "soak") else CHAOS,
              ChaosSchedule)
        for key in CHAOS_KEYS
    },
}


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """One schedule per key, run once and shared by the tests below."""
    done = {}

    def run(key):
        if key not in done:
            spec, schedule = CASES[key]
            done[key] = run_schedule(
                spec, key, spec.seeds[0], 0, schedule,
                str(tmp_path_factory.mktemp("harness")),
            )
        return done[key]

    return run


@pytest.mark.parametrize("key", list(CASES))
def test_schedule_passes_its_gate(run, key):
    outcome = run(key)
    assert outcome.error is None, outcome.error
    assert gate_lines([outcome]) == []
    assert outcome.value_ok
    assert outcome.false_negatives == 0


def _assert_repaired_without_misses(outcome) -> None:
    assert outcome.injected > 0
    assert outcome.detected == outcome.injected
    assert outcome.false_negatives == 0
    assert outcome.traffic_errors == 0
    assert outcome.quarantined_regions > 0
    assert outcome.repaired_regions > 0
    assert outcome.post_repair_audit_clean


def test_serving_fault_campaign(run):
    for key in SERVING.keys:
        outcome = run(key)
        _assert_repaired_without_misses(outcome)
        assert outcome.max_open_txns > 1
        # Distinct targets: a repeat would overwrite an earlier scribble
        # and score it convicted without an audit ever seeing it.
        targets = [acct for _, _, _, acct in outcome.faults]
        assert len(set(targets)) == len(targets) == SERVING.fault_injections


def test_serving_wild_writes_hit_distinct_cold_accounts(tmp_path):
    """As many injections as cold accounts hit each of them once; one
    more is refused rather than doubled up on an account."""
    n, key = SERVING.sessions, next(iter(SERVING.keys))
    cold = list(range(n + n // 2, 2 * n))

    def run_with(injections):
        return run_schedule(
            replace(SERVING, fault_injections=injections), key,
            SERVING.seeds[0], 0, ServingSchedule, str(tmp_path),
        )

    every = run_with(len(cold))
    assert every.error is None, every.error
    assert sorted(acct for _, _, _, acct in every.faults) == cold
    _assert_repaired_without_misses(every)
    assert "ValueError" in run_with(len(cold) + 1).error


def test_sharded_fault_campaign(run):
    for key in SHARDED_KEYS:
        outcome = run(key)
        _assert_repaired_without_misses(outcome)
        assert outcome.other_shards_audit_clean
        assert outcome.balances_conserved
        assert outcome.in_flight_at_injection > 0


def _assert_transfers_exactly_once(outcome) -> None:
    assert outcome.acked
    assert outcome.applied_exactly_once
    assert outcome.decision_log_agrees
    assert outcome.survivor_served_mid_recovery
    assert outcome.healed and outcome.all_serving
    assert outcome.audits_clean
    assert outcome.hard_errors == 0


@pytest.mark.parametrize("point", KILL_POINTS)
def test_kill_point(run, point):
    outcome = run(point)
    _assert_transfers_exactly_once(outcome)
    assert outcome.restarts >= 1


def test_soak(run):
    outcome = run("soak")
    _assert_transfers_exactly_once(outcome)
    assert outcome.lost_committed == 0
    assert outcome.conserved
    assert outcome.gave_up == 0
    assert outcome.false_negatives == 0
    assert outcome.wild_writes_convicted >= 1
    assert outcome.detected == outcome.wild_writes_convicted
    assert outcome.detection_stage == "audit"
    assert outcome.fault_op == outcome.faults[0][0]
    assert outcome.post_repair_audit_clean


def test_survivor_probe_fails_on_a_missing_row():
    """A survivor that answers without the probed row did not serve."""
    schedule = ChaosSchedule(CHAOS, "serving", CHAOS.seeds[0], 0, "", None)
    schedule.db = SimpleNamespace(submit_txn=lambda ops: [None])
    schedule._survivor_probe(0)
    assert schedule.outcome.survivor_probe_failures == 1
    assert not schedule.outcome.survivor_served_mid_recovery
    assert any("surviving shard" in line
               for line in gate_lines([schedule.outcome]))


@pytest.mark.parametrize("key", [*SERVING.keys][-1:] + [*SHARDED_KEYS, "soak"])
def test_rerun_from_spec_draws_the_same_faults(run, tmp_path, key):
    """A schedule reruns from its spec alone: same fault, same shard,
    same op index."""
    first = run(key)
    spec, schedule = CASES[key]
    again = run_schedule(
        replace(spec, seeds=(first.seed,)), first.key, first.seed,
        first.index, schedule, str(tmp_path),
    )
    assert first.faults
    assert again.faults == first.faults
    if key in SERVING.keys:
        # In-process and single-threaded: the whole outcome repeats.
        assert asdict(again) == asdict(first)
