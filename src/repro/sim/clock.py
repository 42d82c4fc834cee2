"""Virtual clock and event meter.

The performance results of the paper were measured on a 2x200 MHz
UltraSPARC running a C storage manager.  Re-measuring the same algorithms
in CPython wall-clock time would invert every relative result (interpreter
overhead dwarfs a 16-word XOR), so the benchmark harness instead runs the
*real* implementation while charging each primitive event -- a word folded
into a codeword, a latch acquired, a log byte appended, an ``mprotect``
call issued -- to a :class:`VirtualClock` at calibrated unit costs.

Every component receives a :class:`Meter`, which pairs the clock with a
:class:`~repro.sim.costs.CostModel` and keeps per-event counters.  The
counters make the benchmarks auditable: a reported slowdown can always be
decomposed into "N events of kind K at C ns each".
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.sim.costs import CostModel


class VirtualClock:
    """A monotonically advancing nanosecond counter.

    The clock only moves when a component charges time to it; it is the
    single source of "elapsed time" for throughput calculations in the
    benchmark harness.
    """

    __slots__ = ("now_ns",)

    def __init__(self) -> None:
        self.now_ns: int = 0

    def advance(self, ns: int) -> None:
        """Advance the clock by ``ns`` nanoseconds (must be >= 0)."""
        if ns < 0:
            raise ValueError(f"cannot advance clock by negative time: {ns}")
        self.now_ns += ns

    @property
    def now_seconds(self) -> float:
        return self.now_ns / 1e9

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VirtualClock(now_ns={self.now_ns})"


class _Tally(dict):
    """Event totals: reading an event never charged gives 0 and adds no row.

    ``collections.Counter`` reads the same way, but it defines
    ``__delitem__``, which routes every ``tally[event] = n`` through a
    Python-level slot lookup -- the larger half of what a charge cost.
    """

    __slots__ = ()

    def __missing__(self, event: str) -> int:
        return 0


class Meter:
    """Charges named events to a clock at unit costs from a cost model.

    ``meter.charge("cw_maint_word", 16)`` advances the clock by sixteen
    times the ``cw_maint_word`` unit cost and increments the event counter.
    Unknown event names raise ``KeyError`` immediately: silent free events
    would corrupt the cost accounting.
    """

    __slots__ = ("clock", "costs", "counts", "_explicit", "_lock", "_unit_ns")

    def __init__(self, clock: VirtualClock, costs: "CostModel") -> None:
        self.clock = clock
        self.costs = costs
        #: The (frozen) cost model's table, read directly on every charge.
        self._unit_ns = costs.unit_costs
        self.counts: dict[str, int] = _Tally()
        #: Events charged an explicit duration (:meth:`charge_ns`):
        #: ``event -> [count, ns]``.  Every other charge is ``count x
        #: unit``, so its nanoseconds follow from ``counts`` (:attr:`time_ns`).
        self._explicit: dict[str, list[int]] = {}
        # ``None`` on the single-threaded fast path; installed by
        # ``enable_thread_safety`` when concurrent serving sessions share
        # this meter, so clock advances and counters never lose updates.
        self._lock: threading.Lock | None = None

    def enable_thread_safety(self) -> None:
        """Serialize charges (concurrent serving / threaded scheduler).

        Virtual time loses its single-call-stack meaning once real
        threads interleave, but the counters stay exact and the clock
        still advances monotonically -- which is what the fault and
        audit machinery relies on.
        """
        if self._lock is None:
            self._lock = threading.Lock()

    def charge(self, event: str, count: int = 1) -> None:
        """Charge ``count`` occurrences of ``event`` to the clock.

        The hottest call in the system (80-150 per TPC-B operation), so
        the cost lookup and the clock advance are inlined; an unknown
        event or a negative charge still raises before anything moves.
        """
        try:
            ns = self._unit_ns[event] * count
        except KeyError:
            ns = self.costs.unit_ns(event) * count  # raises the explanatory KeyError
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
        """Charge ``(event, count)`` pairs in one call.

        Identical to one :meth:`charge` per pair, in order -- counters,
        nanoseconds and the clock, and the error a bad pair raises (the
        pairs before it stay charged, as they would have been).  For hot
        paths that charge a fixed group of events together.
        """
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
        """Charge an explicit duration under an event label.

        Used for costs that are not a simple ``unit x count`` product, such
        as a platform-dependent ``mprotect`` call.
        """
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
        """Nanoseconds charged per event: ``count x unit`` for the charges
        priced by the cost model (a sum of such products is the product
        of the sum), plus the durations :meth:`charge_ns` was given."""
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
        """Return ``{event: (count, total_ns)}`` for reporting."""
        time_ns = self.time_ns
        return {
            event: (self.counts[event], time_ns[event]) for event in sorted(self.counts)
        }

    def reset(self) -> None:
        self.counts.clear()
        self._explicit.clear()
