"""The serving, sharded and chaos fault harnesses hold their gates.

Each runs at its CI smoke size and is scored on ground truth by the
shared campaign kernel (:mod:`repro.faults.campaign`): every injected
wild write convicted, quarantined and repaired, traffic untouched, and
a worker killed mid-2PC leaving the transfer applied exactly once.
"""

from __future__ import annotations

import pytest

from repro.bench.chaos import KILL_POINTS, ChaosBenchConfig, run_kill_point
from repro.bench.serving import ServingConfig, run_serving_fault_campaign
from repro.bench.sharded import ShardedBenchConfig, run_sharded_fault_campaign


def _assert_repaired_without_misses(campaign: dict) -> None:
    assert campaign["injected"] > 0
    assert campaign["detected"] == campaign["injected"]
    assert campaign["false_negatives"] == 0
    assert campaign["traffic_errors"] == 0
    assert campaign["quarantined_regions"] > 0
    assert campaign["repaired_regions"] > 0
    assert campaign["post_repair_audit_clean"]


def test_serving_fault_campaign(tmp_path):
    campaign = run_serving_fault_campaign(str(tmp_path), ServingConfig().quick())
    _assert_repaired_without_misses(campaign)


def test_sharded_fault_campaign(tmp_path):
    campaign = run_sharded_fault_campaign(
        str(tmp_path), ShardedBenchConfig().quick()
    )
    _assert_repaired_without_misses(campaign)
    assert campaign["other_shards_audit_clean"]
    assert campaign["balances_conserved"]


# ``hang`` is left out: its worker sleeps past the call deadline (3 s).
@pytest.mark.parametrize("point", [p for p in KILL_POINTS if p != "hang"])
def test_kill_point(tmp_path, point):
    result = run_kill_point(str(tmp_path), ChaosBenchConfig().quick(), point)
    assert result["acked"]
    assert result["applied_exactly_once"]
    assert result["decision_log_agrees"]
    assert result["survivor_served_mid_recovery"]
    assert result["healed"] and result["all_serving"]
    assert result["audits_clean"]
    assert result["hard_errors"] == 0
