"""A small replication campaign run: the bench gate must hold.

One seed over a representative slice of the fault matrix -- the full
3-seed x 11-kind matrix runs under ``python -m repro.bench
--replication`` (and the CI ``fault-harness gates`` job).
"""

from __future__ import annotations

import json

from repro.bench.replication import gate_failures, replication_payload
from repro.replication.campaign import (
    ReplicationCampaignResult,
    ReplicationCampaignSpec,
    _ReplicationSchedule,
    run_replication_campaign,
)


def test_small_campaign_gate_holds(tmp_path):
    spec = ReplicationCampaignSpec(
        seeds=(1,),
        kinds=(
            "clean",
            "abrupt_death",
            "primary_wild_write_cold",
            "replica_wild_write",
            "ship_drop",
            "crash_replica",
        ),
    )
    result = run_replication_campaign(spec, str(tmp_path / "campaign"))
    assert len(result.outcomes) == spec.total_schedules
    assert gate_failures(result) == [], [o.error for o in result.errors]

    # Every schedule failed over to a certified image with good values.
    for outcome in result.outcomes:
        assert outcome.promoted and outcome.certified
        assert outcome.value_ok

    # The headline: the replica's digest epoch caught the cold wild
    # write strictly faster than the single node's final full sweep.
    cold = result.cold_comparison()
    assert cold["compared"] == 1
    assert cold["replica_strictly_faster"]

    # The abrupt death lost commits -- surfaced, and within the bound.
    dead = [o for o in result.outcomes if o.kind == "abrupt_death"]
    assert dead[0].lost_commit_window is not None
    assert dead[0].lost_commit_window <= dead[0].lost_window_bound

    payload = replication_payload(result, quick=True)
    assert payload["false_negatives"] == 0
    assert payload["detection_latency_ops"]["max"] is not None


def test_payload_spec_reproduces_the_run():
    spec = ReplicationCampaignSpec(seeds=(7,), audit_every_batches=2)
    payload = json.loads(json.dumps(ReplicationCampaignResult(spec).to_payload()))
    rebuilt = ReplicationCampaignSpec(**payload["spec"])
    assert rebuilt.audit_every_batches == 2
    assert ReplicationCampaignResult(rebuilt).to_payload()["spec"] == payload["spec"]


def test_region_size_goes_only_to_schemes_that_take_it(tmp_path):
    def params(scheme):
        spec = ReplicationCampaignSpec(scheme=scheme)
        schedule = _ReplicationSchedule(spec, "kill", 7, 0, str(tmp_path), None)
        return schedule._db_config("primary").scheme_params

    assert params("baseline") == {}
    assert params(ReplicationCampaignSpec.scheme) == {
        "region_size": ReplicationCampaignSpec.region_size
    }
