"""The count-only meter against the meter it replaced.

``SeedClock`` and ``SeedMeter`` below are the advancing clock and the
meter that priced every charge into it, copied as they were before the
clock became a value derived from the counts.  A hypothesis property
drives both with the same calls and asserts the same counters, the same
snapshot, the same clock reading and the same exception type after every
step.  The one deliberate difference -- a negative count of an event
whose unit cost is zero moved no clock, so the seed let its counter go
negative, and the count-only meter rejects it -- is kept out of the
property and pinned by its own test.
"""

from __future__ import annotations

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.clock import Meter, VirtualClock
from repro.sim.costs import DEFAULT_COSTS


class SeedClock:
    __slots__ = ("now_ns",)

    def __init__(self) -> None:
        self.now_ns: int = 0

    def advance(self, ns: int) -> None:
        if ns < 0:
            raise ValueError(f"cannot advance clock by negative time: {ns}")
        self.now_ns += ns


class _Tally(dict):
    __slots__ = ()

    def __missing__(self, event: str) -> int:
        return 0


class SeedMeter:
    def __init__(self, clock: SeedClock, costs) -> None:
        self.clock = clock
        self.costs = costs
        self._unit_ns = costs.unit_costs
        self.counts: dict[str, int] = _Tally()
        self._explicit: dict[str, list[int]] = {}
        self._lock: threading.Lock | None = None

    def enable_thread_safety(self) -> None:
        if self._lock is None:
            self._lock = threading.Lock()

    def charge(self, event: str, count: int = 1) -> None:
        try:
            ns = self._unit_ns[event] * count
        except KeyError:
            ns = self.costs.unit_ns(event) * count
        if ns < 0:
            raise ValueError(f"cannot advance clock by negative time: {ns}")
        lock = self._lock
        if lock is None:
            self.clock.now_ns += ns
            self.counts[event] += count
            return
        with lock:
            self.clock.now_ns += ns
            self.counts[event] += count

    def charge_many(self, charges) -> None:
        unit_ns = self._unit_ns
        lock = self._lock
        if lock is not None:
            lock.acquire()
        counts = self.counts
        total = 0
        try:
            for event, count in charges:
                try:
                    ns = unit_ns[event] * count
                except KeyError:
                    ns = self.costs.unit_ns(event) * count
                if ns < 0:
                    raise ValueError(f"cannot advance clock by negative time: {ns}")
                counts[event] += count
                total += ns
        finally:
            self.clock.now_ns += total
            if lock is not None:
                lock.release()

    def charge_ns(self, event: str, ns: int, count: int = 1) -> None:
        lock = self._lock
        if lock is None:
            self._charge_explicit(event, ns, count)
            return
        with lock:
            self._charge_explicit(event, ns, count)

    def _charge_explicit(self, event: str, ns: int, count: int) -> None:
        self.clock.advance(ns)
        self.counts[event] += count
        explicit = self._explicit.setdefault(event, [0, 0])
        explicit[0] += count
        explicit[1] += ns

    @property
    def time_ns(self) -> dict[str, int]:
        unit_ns = self._unit_ns
        explicit = self._explicit
        times: dict[str, int] = _Tally()
        for event, count in self.counts.items():
            extra = explicit.get(event)
            if extra is None:
                times[event] = unit_ns[event] * count
            else:
                times[event] = unit_ns.get(event, 0) * (count - extra[0]) + extra[1]
        return times

    def snapshot(self) -> dict[str, tuple[int, int]]:
        time_ns = self.time_ns
        return {
            event: (self.counts[event], time_ns[event]) for event in sorted(self.counts)
        }

    def reset(self) -> None:
        self.counts.clear()
        self._explicit.clear()


UNIT_NS = DEFAULT_COSTS.unit_costs
PRICED = sorted(event for event, ns in UNIT_NS.items() if ns > 0)
EVENTS = sorted(UNIT_NS) + ["mprotect_call", "no_such_event"]

#: ``(event, count)`` pairs: any event with a non-negative count, or a
#: negative count of an event that has a price (see the module docstring).
pairs = st.one_of(
    st.tuples(st.sampled_from(EVENTS), st.integers(0, 5000)),
    st.tuples(st.sampled_from(PRICED), st.integers(-3, -1)),
)
bad_pairs = st.one_of(
    st.tuples(st.just("no_such_event"), st.integers(0, 5)),
    st.tuples(st.sampled_from(PRICED), st.integers(-3, -1)),
)
calls = st.one_of(
    pairs.map(lambda pair: ("charge", *pair)),
    st.tuples(
        st.lists(pairs, max_size=6), st.lists(bad_pairs, max_size=1), st.lists(pairs, max_size=3)
    ).map(lambda parts: ("charge_many", parts[0] + parts[1] + parts[2])),
    st.tuples(
        st.just("charge_ns"),
        st.sampled_from(EVENTS),
        st.integers(-2, 10**9),
        st.integers(-2, 4),
    ),
    st.just(("reset",)),
    st.just(("enable_thread_safety",)),
)


def _call(meter, call) -> type | None:
    name, *args = call
    try:
        if name == "charge_many":
            meter.charge_many(iter(args[0]))
        else:
            getattr(meter, name)(*args)
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc)
    return None


class TestParentMeterIdentity:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(calls, max_size=40))
    def test_same_counts_snapshot_clock_and_errors(self, history):
        seed_clock, clock = SeedClock(), VirtualClock()
        seed, meter = SeedMeter(seed_clock, DEFAULT_COSTS), Meter(clock, DEFAULT_COSTS)
        seed_now, now = seed_clock.now_ns, clock.now_ns
        for step, call in enumerate(history):
            assert _call(meter, call) is _call(seed, call), (step, call)
            assert meter.counts == seed.counts, (step, call)
            assert meter.snapshot() == seed.snapshot(), (step, call)
            assert meter.time_ns == seed.time_ns, (step, call)
            assert clock.now_ns - now == seed_clock.now_ns - seed_now, (step, call)
            seed_now, now = seed_clock.now_ns, clock.now_ns

    def test_negative_count_of_a_free_event_is_rejected(self):
        """The seed priced ``audit_region`` (0 ns) x -1 at 0 ns and let its
        counter go negative; a count is never negative now."""
        assert UNIT_NS["audit_region"] == 0
        seed = SeedMeter(SeedClock(), DEFAULT_COSTS)
        seed.charge("audit_region", -1)
        assert seed.counts["audit_region"] == -1
        meter = Meter(VirtualClock(), DEFAULT_COSTS)
        with pytest.raises(ValueError):
            meter.charge("audit_region", -1)
        assert meter.counts == {}
