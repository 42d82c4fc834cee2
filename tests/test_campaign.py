"""Fault-campaign engine: seeded schedules, scoring, determinism."""

import dataclasses

import pytest

from repro.bench.__main__ import main
from repro.core.audit import AuditReport
from repro.faults.campaign import (
    CampaignSpec,
    DEFAULT_SCHEMES,
    DIRECT_FAULT_KINDS,
    HarnessOutcome,
    convicted,
    gate_lines,
    run_campaign,
    run_schedules,
    score_injections,
)


TINY = CampaignSpec(
    seeds=(1, 2),
    schemes=("data_codeword", "read_precheck"),
    schedules_per_config=4,
    ops_per_schedule=12,
    accounts=8,
)


@pytest.fixture(scope="module")
def tiny_result(tmp_path_factory):
    return run_campaign(TINY, str(tmp_path_factory.mktemp("campaign")))


class TestCampaign:
    def test_runs_every_schedule(self, tiny_result):
        assert len(tiny_result.outcomes) == TINY.total_schedules == 16
        assert not tiny_result.errors

    def test_zero_false_negatives_for_direct_faults(self, tiny_result):
        assert tiny_result.false_negatives == []
        for outcome in tiny_result.outcomes:
            if outcome.fault_kind in DIRECT_FAULT_KINDS and not outcome.crashed:
                assert outcome.detection_stage != "none"

    def test_quarantine_never_serves_garbage(self, tiny_result):
        assert tiny_result.garbage_served == []

    def test_repairs_and_values_check_out(self, tiny_result):
        for outcome in tiny_result.outcomes:
            assert outcome.repair_ok, outcome
            assert outcome.value_ok, outcome

    def test_scoreboard_covers_every_scheme(self, tiny_result):
        board = tiny_result.scoreboard()
        assert set(board) == set(TINY.schemes)
        for row in board.values():
            assert row["schedules"] == 8
            assert row["false_negatives"] == 0

    def test_payload_is_json_shaped(self, tiny_result):
        import json

        payload = tiny_result.to_payload()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["schedules"] == 16
        assert payload["false_negatives"] == 0

    def test_deterministic_across_runs(self, tmp_path_factory, tiny_result):
        again = run_campaign(TINY, str(tmp_path_factory.mktemp("campaign2")))
        key = lambda o: (o.scheme, o.seed, o.index)
        first = sorted(tiny_result.outcomes, key=key)
        second = sorted(again.outcomes, key=key)
        assert [dataclasses.asdict(o) for o in first] == [
            dataclasses.asdict(o) for o in second
        ]


class TestSpec:
    def test_default_schemes_cover_issue_stacks(self):
        assert "data_codeword" in DEFAULT_SCHEMES
        assert "read_precheck" in DEFAULT_SCHEMES
        assert "read_logging" in DEFAULT_SCHEMES
        assert any("+" in scheme for scheme in DEFAULT_SCHEMES)

    def test_acceptance_scale_meets_200_schedules(self):
        assert CampaignSpec().total_schedules >= 200


class TestPlantedMisses:
    """The one scorer every harness convicts through must report a miss."""

    def test_convicted_stops_at_the_range_edges(self):
        ranges = [(100, 16)]
        assert convicted(100, ranges)
        assert convicted(115, ranges)
        assert not convicted(99, ranges)  # just before the range
        assert not convicted(116, ranges)  # just past it

    def test_score_injections_counts_one_miss(self):
        scored = score_injections(
            [100, 300], [(96, 8)], quarantined=1,
            repair=lambda: 1, audit_clean=lambda: True,
        )
        assert scored["injected"] == 2
        assert scored["detected"] == 1
        assert scored["false_negatives"] == 1

    def test_blind_detection_audit_is_a_gate_breach(
        self, monkeypatch, tmp_path, capsys
    ):
        # The detection audit still quarantines and repairs its regions,
        # but reports no corrupt byte ranges: nothing is convicted.
        monkeypatch.setattr(
            AuditReport, "corrupt_byte_ranges", property(lambda self: ())
        )
        argv = ["--serving", "--quick", "--serving-json", str(tmp_path / "s.json")]
        assert main(argv) == 1
        gates = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("GATE: ")
        ]
        assert gates == [
            f"GATE: group_commit_{n} seed=97 idx=0: 3 of 3 injections never "
            "convicted"
            for n in (1, 4)
        ]


class _Raises:
    def __init__(self, spec, key, seed, index, work_dir, rng) -> None:
        self.outcome = HarnessOutcome(key=key, seed=seed, index=index)

    def run(self):
        raise RuntimeError("boom")

    def close(self) -> None:
        pass


def test_schedule_error_names_key_seed_and_index(tmp_path):
    outcomes = run_schedules(TINY, ["kill"], 1, _Raises, str(tmp_path))
    assert gate_lines(outcomes) == [
        "kill seed=1 idx=0: schedule raised RuntimeError: boom",
        "kill seed=2 idx=0: schedule raised RuntimeError: boom",
    ]
