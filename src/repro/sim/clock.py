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

    __slots__ = ("clock", "costs", "counts", "time_ns", "_lock", "_unit_ns")

    def __init__(self, clock: VirtualClock, costs: "CostModel") -> None:
        self.clock = clock
        self.costs = costs
        #: The (frozen) cost model's table, read directly on every charge.
        self._unit_ns = costs.unit_costs
        self.counts: dict[str, int] = _Tally()
        self.time_ns: dict[str, int] = _Tally()
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
            self.time_ns[event] += ns
            return
        with lock:
            self.clock.now_ns += ns
            self.counts[event] += count
            self.time_ns[event] += ns

    def charge_ns(self, event: str, ns: int, count: int = 1) -> None:
        """Charge an explicit duration under an event label.

        Used for costs that are not a simple ``unit x count`` product, such
        as a platform-dependent ``mprotect`` call.
        """
        lock = self._lock
        if lock is None:
            self.clock.advance(ns)
            self.counts[event] += count
            self.time_ns[event] += ns
            return
        with lock:
            self.clock.advance(ns)
            self.counts[event] += count
            self.time_ns[event] += ns

    def snapshot(self) -> dict[str, tuple[int, int]]:
        """Return ``{event: (count, total_ns)}`` for reporting."""
        return {
            event: (self.counts[event], self.time_ns[event])
            for event in sorted(self.counts)
        }

    def reset(self) -> None:
        self.counts.clear()
        self.time_ns.clear()
