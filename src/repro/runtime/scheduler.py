"""The task scheduler: one owner for every deferred activity.

Before this subsystem existed, "who runs when" was scattered: the
group-commit window flushed itself from inside ``TransactionManager.commit``,
background full-sweep folds managed a private worker thread
(:mod:`repro.core.background`), and shutdown/crash each re-implemented
their own join/flush ordering.  The scheduler centralizes all of it:

* **Tick tasks** run at named trigger points (``"commit"``,
  ``"checkpoint"``, ``"interval"``): the group-commit size trigger and
  the certification join are tick tasks, not inline code.
* **Background work** is spawned through :meth:`Scheduler.spawn`, which
  returns a :class:`TaskHandle`.  In ``threaded`` mode the work runs on
  a worker thread; in ``deterministic`` mode it is *deferred* and runs
  inline at join -- same results, same meter charges, no threads.
* **Drain steps** give shutdown and crash one fixed order (flush the
  group-commit window, then settle in-flight sweeps, then the caller
  closes the log) instead of scattered joins.

Deterministic mode is the default and is observably pure: every task
fires at exactly the program point where the pre-scheduler code ran
inline, so meter snapshots are bit-identical (property-tested in
``tests/test_scheduler.py``).  Threaded mode is what the serving
front-end (:mod:`repro.serve`) runs on.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable

from repro.errors import ConfigError

DETERMINISTIC = "deterministic"
THREADED = "threaded"

#: Trigger points a tick task may subscribe to.  ``"interval"`` only
#: fires in threaded mode (from the ticker thread) -- deterministic mode
#: has no wall-clock, so interval tasks are inert there by design.
#: ``"replay"`` fires on a replica after each applied ship batch (its
#: commits happen on the primary, so replayed work needs its own program
#: point for audit cadence and ship-pump tasks).
TICK_EVENTS = ("commit", "checkpoint", "interval", "replay")


class TaskHandle:
    """Completion handle for one unit of background work.

    ``result()`` is idempotent: the first call produces (or waits for)
    the value, later calls return the cached value.  ``abandon()`` waits
    the work out and discards the value -- the crash/close path.
    """

    def result(self):  # pragma: no cover - interface
        raise NotImplementedError

    def abandon(self) -> None:
        self.result()

    @property
    def done(self) -> bool:  # pragma: no cover - interface
        raise NotImplementedError


class ThreadHandle(TaskHandle):
    """Background work on a real worker thread (threaded mode)."""

    def __init__(self, name: str, fn: Callable[[], object]) -> None:
        self._value: object = None
        self._error: BaseException | None = None
        self._joined = False

        def run() -> None:
            try:
                self._value = fn()
            except BaseException as exc:  # pragma: no cover - defensive
                self._error = exc

        self._thread = threading.Thread(target=run, name=name, daemon=True)
        self._thread.start()

    @property
    def done(self) -> bool:
        return not self._thread.is_alive()

    def result(self):
        self._thread.join()
        self._joined = True
        if self._error is not None:  # pragma: no cover - defensive
            raise self._error
        return self._value

    def abandon(self) -> None:
        self._thread.join()
        self._joined = True


class InlineHandle(TaskHandle):
    """Deferred background work (deterministic mode).

    The work function runs inline, on the joining thread, the first time
    ``result()`` is called.  ``abandon()`` discards the work without
    running it at all -- nothing was in flight, so there is nothing to
    wait out.
    """

    def __init__(self, name: str, fn: Callable[[], object]) -> None:
        self.name = name
        self._fn: Callable[[], object] | None = fn
        self._value: object = None

    @property
    def done(self) -> bool:
        return self._fn is None

    def result(self):
        if self._fn is not None:
            fn, self._fn = self._fn, None
            self._value = fn()
        return self._value

    def abandon(self) -> None:
        self._fn = None
        self._value = None


@dataclass
class _TickTask:
    name: str
    events: frozenset[str]
    fn: Callable[[str], None]
    runs: int = 0


@dataclass
class _DrainStep:
    name: str
    on_close: Callable[[], None] | None
    on_crash: Callable[[], None] | None
    runs: int = 0


@dataclass
class TaskInfo:
    """One row of :meth:`Scheduler.tasks` -- the task taxonomy snapshot."""

    name: str
    kind: str  # "tick" | "drain" | "background"
    detail: str = ""
    runs: int = 0
    live: bool = False


class Scheduler:
    """Owns every deferred/background activity of one database.

    Parameters
    ----------
    mode:
        ``"deterministic"`` (no threads; background work defers to its
        join point; meter-identical to inline execution) or
        ``"threaded"`` (worker threads for background work, plus an
        optional ticker thread driving ``"interval"`` tick tasks).
    tick_interval_s:
        Period of the ticker thread in threaded mode.  The ticker only
        starts when at least one task subscribes to ``"interval"``.
    """

    def __init__(self, mode: str = DETERMINISTIC, tick_interval_s: float = 0.01) -> None:
        if mode not in (DETERMINISTIC, THREADED):
            raise ConfigError(
                f"scheduler mode must be 'deterministic' or 'threaded': {mode!r}"
            )
        self.mode = mode
        self.tick_interval_s = tick_interval_s
        self._tick_tasks: list[_TickTask] = []
        self._drain_steps: list[_DrainStep] = []
        # Live background handles by name; completed/abandoned handles
        # are reaped opportunistically on the next spawn/drain.
        self._live: dict[str, TaskHandle] = {}
        self._guard = threading.RLock()
        self._ticker: threading.Thread | None = None
        self._ticker_stop = threading.Event()
        self._shutdown = False
        self.spawn_count = 0
        self.tick_count = 0

    # ---------------------------------------------------------- registry

    def register_tick(
        self, name: str, events, fn: Callable[[str], None]
    ) -> None:
        """Register a task that runs whenever one of ``events`` ticks.

        Tasks run synchronously on the ticking thread, in registration
        order -- a tick is a program point, not a context switch, which
        is what keeps deterministic mode deterministic.
        """
        events = frozenset(events)
        unknown = events.difference(TICK_EVENTS)
        if unknown:
            raise ConfigError(
                f"unknown tick event(s) {sorted(unknown)}; valid: {TICK_EVENTS}"
            )
        with self._guard:
            if any(t.name == name for t in self._tick_tasks):
                raise ConfigError(f"tick task {name!r} already registered")
            self._tick_tasks.append(_TickTask(name, events, fn))
            if "interval" in events:
                self._maybe_start_ticker()

    def add_drain_step(
        self,
        name: str,
        on_close: Callable[[], None] | None,
        on_crash: Callable[[], None] | None = None,
    ) -> None:
        """Register one step of the fixed shutdown/crash drain order.

        Steps run in registration order; ``on_close`` runs on clean
        shutdown, ``on_crash`` on crash (``None`` skips the step on that
        path).  Steps must be idempotent -- the drain itself may run
        more than once (close after crash, double close).
        """
        with self._guard:
            if any(s.name == name for s in self._drain_steps):
                raise ConfigError(f"drain step {name!r} already registered")
            self._drain_steps.append(_DrainStep(name, on_close, on_crash))

    # -------------------------------------------------------------- tick

    def tick(self, event: str) -> None:
        """Run every tick task subscribed to ``event``, in order."""
        self.tick_count += 1
        for task in self._tick_tasks:
            if event in task.events:
                task.runs += 1
                task.fn(event)

    def _maybe_start_ticker(self) -> None:
        if self.mode != THREADED or self._ticker is not None or self._shutdown:
            return

        def loop() -> None:
            while not self._ticker_stop.wait(self.tick_interval_s):
                self.tick("interval")

        self._ticker = threading.Thread(target=loop, name="scheduler-ticker", daemon=True)
        self._ticker.start()

    # -------------------------------------------------------- background

    def spawn(self, name: str, fn: Callable[[], object]) -> TaskHandle:
        """Run ``fn`` as background work; returns its handle.

        Threaded mode starts a worker thread immediately; deterministic
        mode returns a deferred handle whose work runs inline at
        ``result()``.  The handle stays registered (visible in
        :meth:`tasks`, settled by :meth:`drain`) until it completes or
        is abandoned.
        """
        with self._guard:
            self._reap()
            if name in self._live:
                raise ConfigError(f"background task {name!r} already in flight")
            if self.mode == THREADED:
                handle: TaskHandle = ThreadHandle(name, fn)
            else:
                handle = InlineHandle(name, fn)
            self._live[name] = handle
            self.spawn_count += 1
            return handle

    def forget(self, handle: TaskHandle) -> None:
        """Deregister a handle its owner has already joined/abandoned."""
        with self._guard:
            for name, live in list(self._live.items()):
                if live is handle:
                    del self._live[name]

    def _reap(self) -> None:
        for name, handle in list(self._live.items()):
            if handle.done and getattr(handle, "_joined", True):
                del self._live[name]

    @property
    def live_background(self) -> tuple[str, ...]:
        with self._guard:
            return tuple(self._live)

    # -------------------------------------------------------------- drain

    def drain(self, crash: bool = False) -> list[str]:
        """Run the registered drain steps in their fixed order.

        Returns the names of the steps that ran.  Any background handle
        still live afterwards is abandoned (waited out, result
        discarded) -- by the time the drain finishes, no scheduler-owned
        work is in flight.  Safe to call repeatedly.
        """
        ran: list[str] = []
        for step in self._drain_steps:
            fn = step.on_crash if crash else step.on_close
            if fn is None:
                continue
            step.runs += 1
            fn()
            ran.append(step.name)
        with self._guard:
            leftovers = list(self._live.values())
            self._live.clear()
        for handle in leftovers:
            handle.abandon()
        return ran

    def shutdown(self, crash: bool = False) -> list[str]:
        """Drain and stop: after this, no scheduler activity remains."""
        self._shutdown = True
        self._ticker_stop.set()
        ticker = self._ticker
        if ticker is not None:
            ticker.join(timeout=5)
            self._ticker = None
        return self.drain(crash=crash)

    # ------------------------------------------------------------- status

    def tasks(self) -> list[TaskInfo]:
        """Snapshot of the task taxonomy (for reports and docs examples)."""
        with self._guard:
            rows = [
                TaskInfo(t.name, "tick", ",".join(sorted(t.events)), t.runs)
                for t in self._tick_tasks
            ]
            rows += [
                TaskInfo(
                    s.name,
                    "drain",
                    "close" + ("/crash" if s.on_crash is not None else ""),
                    s.runs,
                )
                for s in self._drain_steps
            ]
            rows += [
                TaskInfo(name, "background", type(h).__name__, 1, live=True)
                for name, h in self._live.items()
            ]
        return rows

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Scheduler(mode={self.mode!r}, ticks={self.tick_count}, "
            f"spawned={self.spawn_count}, live={list(self._live)})"
        )


def resolve_scheduler_mode(requested: str, background_sweeps: bool) -> str:
    """Map the DBConfig knob to a concrete mode.

    ``"auto"`` keeps pre-scheduler behaviour: databases that opted into
    background sweeps get worker threads, everything else runs fully
    deterministic.
    """
    if requested == "auto":
        return THREADED if background_sweeps else DETERMINISTIC
    if requested not in (DETERMINISTIC, THREADED):
        raise ConfigError(
            "scheduler_mode must be 'auto', 'deterministic' or 'threaded': "
            f"{requested!r}"
        )
    return requested


__all__ = [
    "DETERMINISTIC",
    "THREADED",
    "InlineHandle",
    "Scheduler",
    "TaskHandle",
    "TaskInfo",
    "ThreadHandle",
    "resolve_scheduler_mode",
]
