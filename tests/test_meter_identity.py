"""The count-only meter against the meter it replaced, and its compiled
counters against ``charge``.

``SeedClock`` and ``SeedMeter`` below are the advancing clock and the
meter that priced every charge into it, copied as they were before the
clock became a value derived from the counts.  A hypothesis property
drives both with the same calls and asserts the same counters, the same
snapshot, the same clock reading and the same exception type after every
step; a compiled counter's call is driven on the seed as one ``charge``
per pair, the whole group checked first (a counter moves nothing when
any event or count is bad).  Two deliberate differences are
pinned by their own tests: a negative count of an event whose unit cost
is zero moved no clock, so the seed let its counter go negative, and the
count-only meter rejects it (kept out of the property); and the seed's
``charge_ns`` took a negative ``count``, which the meter rejects -- the
reference's ``charge_ns`` below rejects it too, so the property keeps
drawing negative counts there.

A second property holds ``Meter.counter`` to ``Meter.charge`` on two
meters: the same calls, across resets.  The meter under threads is
``tests/test_thread_safety.py::TestMeterUnderThreads``.
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

    def charge_ns(self, event: str, ns: int, count: int = 1) -> None:
        if count < 0:  # the deliberate difference: the seed took it
            raise ValueError(f"cannot charge a negative count: {count}")
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
#: A compiled counter's call: one to three pairs, at most one of them bad.
groups = st.tuples(
    st.lists(pairs, max_size=2), st.lists(bad_pairs, max_size=1), st.lists(pairs, max_size=2)
).map(lambda parts: parts[0] + parts[1] + parts[2]).filter(lambda group: 1 <= len(group) <= 3)
calls = st.one_of(
    pairs.map(lambda pair: ("charge", *pair)),
    groups.map(lambda group: ("counter", group)),
    st.tuples(
        st.just("charge_ns"),
        st.sampled_from(EVENTS),
        st.integers(-2, 10**9),
        st.integers(-2, 4),
    ),
    st.just(("reset",)),
)


def _charge_group(meter, group) -> None:
    """What ``counter(*events)(*counts)`` is, written with ``charge``:
    every event checked, then every count, then one charge per pair."""
    for event, _count in group:
        meter.costs.unit_ns(event)  # an unknown event: KeyError
    if any(count < 0 for _event, count in group):
        raise ValueError("cannot charge a negative count")
    for event, count in group:
        meter.charge(event, count)


def _count_group(meter, group) -> None:
    meter.counter(*(e for e, _c in group))(*(c for _e, c in group))


def _call(meter, call) -> type | None:
    name, *args = call
    try:
        if name == "counter":
            (_charge_group if isinstance(meter, SeedMeter) else _count_group)(meter, args[0])
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

    def test_negative_charge_ns_count_is_rejected(self):
        """The seed's ``charge_ns`` let a count go negative; the meter
        raises before anything moves, as ``charge`` and counters do."""
        meter = Meter(VirtualClock(), DEFAULT_COSTS)
        with pytest.raises(ValueError):
            meter.charge_ns("mprotect_call", 100, count=-3)
        assert meter.counts == {} and meter.snapshot() == {} and meter.clock.now_ns == 0
        meter.charge_ns("mprotect_call", 100, count=0)  # unpriced events stay legal
        assert meter.snapshot() == {"mprotect_call": (0, 100)}


#: ``("counter", group)`` compiles a counter for the group's events and
#: calls it with its counts; the charge side runs ``_charge_group``.
counter_calls = st.one_of(
    groups.map(lambda group: ("counter", group)),
    st.just(("reset",)),
)


def _drive(meter, call, compiled: bool) -> type | None:
    name, *args = call
    try:
        if name != "counter":
            getattr(meter, name)()
        elif compiled:
            _count_group(meter, args[0])
        else:
            _charge_group(meter, args[0])
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc)
    return None


class TestCounterIdentity:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(counter_calls, max_size=40), st.booleans())
    def test_counters_are_charges(self, history, precompile):
        """``precompile`` compiles every counter before the first call,
        so the ones called after ``reset`` were compiled before it."""
        charged, counted = Meter(VirtualClock(), DEFAULT_COSTS), Meter(VirtualClock(), DEFAULT_COSTS)
        adders = {}
        if precompile:
            for name, *args in history:
                if name == "counter":
                    events = tuple(e for e, _c in args[0])
                    try:
                        adders[events] = counted.counter(*events)
                    except KeyError:
                        pass
        for step, call in enumerate(history):
            name, *args = call
            events = tuple(e for e, _c in args[0]) if name == "counter" else None
            if events in adders:
                try:
                    adders[events](*(c for _e, c in args[0]))
                    error = None
                except Exception as exc:  # noqa: BLE001
                    error = type(exc)
            else:
                error = _drive(counted, call, compiled=True)
            assert error is _drive(charged, call, compiled=False), (step, call)
            assert counted.counts == charged.counts, (step, call)
            assert counted.snapshot() == charged.snapshot(), (step, call)
            assert counted.clock.now_ns == charged.clock.now_ns, (step, call)

    def test_compiling_checks_events_once(self):
        meter = Meter(VirtualClock(), DEFAULT_COSTS)
        with pytest.raises(KeyError):
            meter.counter("latch_pair", "no_such_event")
        with pytest.raises(TypeError):
            meter.counter()
        with pytest.raises(TypeError):
            meter.counter("latch_pair", "log_record", "log_byte", "flush_fixed")
        add = meter.counter("log_record", "log_byte")
        with pytest.raises(ValueError):
            add(1, -1)
        assert meter.counts == {}
        add(2, 40)
        meter.reset()
        add(1, 8)
        assert meter.snapshot() == {
            "log_record": (1, DEFAULT_COSTS.unit_ns("log_record")),
            "log_byte": (8, 8 * DEFAULT_COSTS.unit_ns("log_byte")),
        }
