"""Virtual clock, meter and cost model."""

import pytest

from repro.sim.clock import Meter, VirtualClock
from repro.sim.costs import CostModel, DEFAULT_COSTS


class TestVirtualClock:
    def test_starts_at_zero(self):
        assert VirtualClock().now_ns == 0

    def test_advance_accumulates(self):
        clock = VirtualClock()
        meter = Meter(clock, DEFAULT_COSTS)
        meter.charge("latch_pair", 5)
        meter.charge_ns("mprotect_call", 7)
        assert clock.now_ns == 5 * DEFAULT_COSTS.unit_ns("latch_pair") + 7

    def test_negative_advance_rejected(self):
        clock = VirtualClock()
        meter = Meter(clock, DEFAULT_COSTS)
        with pytest.raises(ValueError):
            meter.charge("latch_pair", -1)
        with pytest.raises(ValueError):
            meter.counter("latch_pair", "log_record")(1, -1)
        with pytest.raises(ValueError):
            meter.charge_ns("mprotect_call", -1)
        assert clock.now_ns == 0 and meter.snapshot() == {}

    def test_now_seconds(self):
        clock = VirtualClock()
        Meter(clock, DEFAULT_COSTS).charge_ns("mprotect_call", 2_500_000_000)
        assert clock.now_seconds == pytest.approx(2.5)

    def test_now_keeps_rising_across_reset(self):
        """The harness pattern: read the clock, reset the meter, run,
        read again -- the reset clears the counts, not the time."""
        clock = VirtualClock()
        meter = Meter(clock, DEFAULT_COSTS)
        meter.charge("base_operation", 3)
        meter.charge_ns("mprotect_call", 11)
        start_ns = clock.now_ns
        meter.reset()
        assert clock.now_ns == start_ns and meter.snapshot() == {}
        meter.charge("latch_pair")
        assert clock.now_ns - start_ns == DEFAULT_COSTS.unit_ns("latch_pair")

    def test_one_meter_per_clock(self):
        clock = VirtualClock()
        Meter(clock, DEFAULT_COSTS)
        with pytest.raises(ValueError):
            Meter(clock, DEFAULT_COSTS)


class TestMeter:
    def test_charge_advances_clock_by_unit_cost(self):
        clock = VirtualClock()
        meter = Meter(clock, DEFAULT_COSTS)
        meter.charge("latch_pair")
        assert clock.now_ns == DEFAULT_COSTS.unit_ns("latch_pair")

    def test_charge_count_multiplies(self):
        clock = VirtualClock()
        meter = Meter(clock, DEFAULT_COSTS)
        meter.charge("log_byte", 100)
        assert clock.now_ns == 100 * DEFAULT_COSTS.unit_ns("log_byte")
        assert meter.counts["log_byte"] == 100

    def test_unknown_event_raises(self):
        meter = Meter(VirtualClock(), DEFAULT_COSTS)
        with pytest.raises(KeyError):
            meter.charge("no_such_event")

    def test_charge_ns_explicit_duration(self):
        clock = VirtualClock()
        meter = Meter(clock, DEFAULT_COSTS)
        meter.charge_ns("mprotect_call", 12_345)
        assert clock.now_ns == 12_345
        assert meter.counts["mprotect_call"] == 1

    def test_snapshot_and_reset(self):
        meter = Meter(VirtualClock(), DEFAULT_COSTS)
        meter.charge("latch_pair", 3)
        snap = meter.snapshot()
        assert snap["latch_pair"] == (3, 3 * DEFAULT_COSTS.unit_ns("latch_pair"))
        meter.reset()
        assert meter.snapshot() == {}


class TestCostModel:
    def test_override_returns_new_model(self):
        derived = DEFAULT_COSTS.override(latch_pair=99)
        assert derived.unit_ns("latch_pair") == 99
        assert DEFAULT_COSTS.unit_ns("latch_pair") != 99

    def test_override_unknown_event_rejected(self):
        with pytest.raises(KeyError):
            DEFAULT_COSTS.override(bogus=1)

    def test_negative_unit_cost_rejected(self):
        with pytest.raises(ValueError):
            DEFAULT_COSTS.override(latch_pair=-1)
        with pytest.raises(ValueError):
            CostModel(unit_costs={"latch_pair": -1})

    def test_free_model_charges_nothing(self):
        clock = VirtualClock()
        meter = Meter(clock, CostModel.free())
        meter.charge("base_operation", 100)
        assert clock.now_ns == 0

    def test_free_model_covers_every_event(self):
        free = CostModel.free()
        for event in DEFAULT_COSTS.unit_costs:
            assert free.unit_ns(event) == 0
