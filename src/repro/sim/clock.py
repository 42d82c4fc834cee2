"""Virtual clock and event meter.

The performance results of the paper were measured on a 2x200 MHz
UltraSPARC running a C storage manager.  Re-measuring the same algorithms
in CPython wall-clock time would invert every relative result (interpreter
overhead dwarfs a 16-word XOR), so the benchmark harness instead runs the
*real* implementation while counting each primitive event -- a word folded
into a codeword, a latch acquired, a log byte appended, an ``mprotect``
call issued -- in a :class:`Meter`.  Time is derived from the counts: the
:class:`VirtualClock` reads ``sum(count x unit cost)`` at the calibrated
unit costs of a :class:`~repro.sim.costs.CostModel`, so events are priced
in one place and a reported slowdown always decomposes into "N events of
kind K at C ns each".

Every thread counts into a tally of its own, so a charge takes no lock,
threaded or not; reads merge the tallies under one registry lock.
A read in mid-run never raises and the clock never runs backwards; totals
are exact once the charging threads are quiet; ``Meter.reset`` is exact
only when no other thread is charging.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.sim.costs import CostModel


def _reject_negative(*counts: int) -> None:
    """Raise for the first negative count of a compiled counter's call."""
    raise ValueError(
        f"cannot charge a negative count: {next(c for c in counts if c < 0)}"
    )


class VirtualClock:
    """Nanoseconds of virtual time, computed when read: what its meter's
    counts are worth plus ``base_ns``, the worth of the counts earlier
    :meth:`Meter.reset` calls cleared.  It is the single source of
    "elapsed time" for throughput calculations in the benchmark harness.
    """

    __slots__ = ("base_ns", "meter")

    def __init__(self) -> None:
        self.base_ns: int = 0
        #: The one :class:`Meter` whose counts this clock reads.
        self.meter: Meter | None = None

    @property
    def now_ns(self) -> int:
        meter = self.meter
        return self.base_ns if meter is None else meter._now_ns()

    @property
    def now_seconds(self) -> float:
        return self.now_ns / 1e9


class _Tally(dict):
    """Event totals: reading an event never charged gives 0 and adds no row."""

    __slots__ = ()

    def __missing__(self, event: str) -> int:
        return 0


def _add_touched(total: dict[str, int], tally: dict[str, int]) -> None:
    """Add a thread's tally into ``total``, skipping rows no charge touched."""
    for event, count in tally.items():
        if count is not False:
            total[event] += count


class _ThreadTally(threading.local):
    """One thread's event counts, made and registered on its first charge
    (``threading.local`` runs ``__init__`` in each thread on first read): a
    plain dict of every priced event, so an add takes the exact-dict fast
    path.  ``False`` adds like 0 and marks an event no charge touched."""

    def __init__(self, meter: "Meter") -> None:
        self.counts = dict.fromkeys(meter._unit_ns, False)
        with meter._registry:
            meter._retire_exited()
            meter._tallies.append((threading.current_thread(), self.counts))


class Meter:
    """Counts named events; its clock prices them at a cost model's units.

    ``meter.charge("cw_maint_word", 16)`` adds sixteen to the
    ``cw_maint_word`` counter, which moves the clock by sixteen times that
    event's unit cost.  Unknown event names raise ``KeyError`` immediately:
    silent free events would corrupt the cost accounting.
    """

    __slots__ = ("clock", "costs", "_explicit", "_mine", "_registry", "_retired", "_tallies", "_unit_ns")

    def __init__(self, clock: VirtualClock, costs: "CostModel") -> None:
        if clock.meter is not None:
            raise ValueError("this clock already reads another meter's counts")
        clock.meter = self
        self.clock = clock
        self.costs = costs
        #: The (frozen) cost model's table, read to validate every charge.
        self._unit_ns = costs.unit_costs
        #: Guards ``_tallies``, ``_retired``, ``_explicit`` and every merge.
        self._registry = threading.Lock()
        #: ``(thread, tally)`` for every live thread that has charged.
        self._tallies: list[tuple[threading.Thread, dict[str, int]]] = []
        #: The summed tallies of threads that have exited.
        self._retired: dict[str, int] = _Tally()
        self._mine = _ThreadTally(self)
        #: ``event -> ns``: how far the durations :meth:`charge_ns` gave
        #: differ from ``count x unit`` for the same charges, so every
        #: event's nanoseconds follow from the counts (:attr:`time_ns`).
        self._explicit: dict[str, int] = _Tally()

    def charge(self, event: str, count: int = 1) -> None:
        """Count ``count`` occurrences of ``event``.

        The form for cold sites (one call per TPC-B operation, the
        workload's ``base_operation``): an unknown event or a negative
        count raises before anything moves, and nothing is priced until
        the clock is read.  ``charge(event, count)`` is
        ``counter(event)(count)``; hot sites that charge a fixed group of
        events compile a :meth:`counter`.
        """
        if event not in self._unit_ns:
            self.costs.unit_ns(event)  # raises the explanatory KeyError
        if count < 0:
            raise ValueError(f"cannot charge a negative count: {count}")
        self._mine.counts[event] += count

    def counter(self, *events: str):
        """Compile an adder for a fixed group of one to three events.

        ``add = meter.counter("log_record", "log_byte")`` checks the event
        names once (an unknown one raises ``KeyError`` here); ``add(1,
        size)`` then counts ``1`` of the first and ``size`` of the second,
        the same as ``charge("log_record", 1)`` then ``charge("log_byte",
        size)``, in one call.  A negative count raises ``ValueError``
        before any counter moves.  The adder counts into the calling
        thread's tally, so one compiled on any thread serves every thread.
        """
        unit_ns = self._unit_ns
        for event in events:
            if event not in unit_ns:
                self.costs.unit_ns(event)  # raises the explanatory KeyError
        mine = self._mine
        if len(events) == 1:
            (e0,) = events

            def add(c0: int) -> None:
                if c0 < 0:
                    _reject_negative(c0)
                mine.counts[e0] += c0

        elif len(events) == 2:
            e0, e1 = events

            def add(c0: int, c1: int) -> None:
                if c0 < 0 or c1 < 0:
                    _reject_negative(c0, c1)
                counts = mine.counts
                counts[e0] += c0
                counts[e1] += c1

        elif len(events) == 3:
            e0, e1, e2 = events

            def add(c0: int, c1: int, c2: int) -> None:
                if c0 < 0 or c1 < 0 or c2 < 0:
                    _reject_negative(c0, c1, c2)
                counts = mine.counts
                counts[e0] += c0
                counts[e1] += c1
                counts[e2] += c2

        else:
            raise TypeError(f"a counter counts one to three events, not {len(events)}")
        return add

    def charge_ns(self, event: str, ns: int, count: int = 1) -> None:
        """Charge an explicit duration under an event label.

        Used for costs that are not a simple ``unit x count`` product, such
        as a platform-dependent ``mprotect`` call, so ``event`` need not
        be priced by the cost model.  A negative duration or count raises
        ``ValueError`` before anything moves.
        """
        if ns < 0:
            raise ValueError(f"cannot charge a negative duration: {ns}")
        if count < 0:
            raise ValueError(f"cannot charge a negative count: {count}")
        counts = self._mine.counts  # outside the lock: a first read registers
        with self._registry:
            counts[event] = counts.get(event, False) + count
            self._explicit[event] += ns - self._unit_ns.get(event, 0) * count

    def _retire_exited(self) -> None:
        """Move each exited thread's (final) tally into ``_retired``; run under
        the registry lock on every read and registration."""
        for entry in [entry for entry in self._tallies if not entry[0].is_alive()]:
            self._tallies.remove(entry)
            _add_touched(self._retired, entry[1])

    def _merged(self) -> dict[str, int]:
        """Every thread's counts summed, under the registry lock."""
        self._retire_exited()
        merged = _Tally(self._retired)
        for _thread, tally in self._tallies:
            _add_touched(merged, tally.copy())  # ``dict.copy`` runs whole, in C
        return merged

    def _times(self, counts: dict[str, int]) -> dict[str, int]:
        unit_ns, explicit = self._unit_ns, self._explicit
        return _Tally(
            (event, unit_ns.get(event, 0) * count + explicit[event])
            for event, count in counts.items()
        )

    def _now_ns(self) -> int:
        with self._registry:
            return self.clock.base_ns + sum(self._times(self._merged()).values())

    @property
    def counts(self) -> dict[str, int]:
        """Events counted so far, over every thread (a merged copy)."""
        with self._registry:
            return self._merged()

    @property
    def time_ns(self) -> dict[str, int]:
        """Nanoseconds charged per event: ``count x unit`` for the charges
        priced by the cost model (a sum of such products is the product
        of the sum), plus the durations :meth:`charge_ns` was given."""
        with self._registry:
            return self._times(self._merged())

    def snapshot(self) -> dict[str, tuple[int, int]]:
        """Return ``{event: (count, total_ns)}`` for reporting."""
        with self._registry:
            counts = self._merged()
            time_ns = self._times(counts)
            return {event: (counts[event], time_ns[event]) for event in sorted(counts)}

    def reset(self) -> None:
        """Clear the counters; the clock keeps the time they were worth.  Exact
        only while no other thread charges: an add that spans the reset
        writes back its pre-reset row, so that row counts twice."""
        with self._registry:
            self.clock.base_ns += sum(self._times(self._merged()).values())
            for _thread, tally in self._tallies:
                tally.update(dict.fromkeys(tally, False))
            self._retired.clear()
            self._explicit.clear()
