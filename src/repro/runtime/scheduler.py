"""The interval ticker, and the mode knob for background sweep folds.

Deferred work in a database runs where it happens: a commit flushes a
full group-commit window (:meth:`~repro.txn.manager.TransactionManager.commit`),
a replica runs its audit cadence after each applied batch, the auditor
owns its background sweep fold, and ``Database.close`` / ``crash`` drain
in one fixed order.  What is left here is:

* :class:`Scheduler` -- a ticker that runs ``"interval"`` tasks every
  ``tick_interval_s`` on one daemon thread (the shard supervisor's
  automatic supervision).
* :func:`resolve_scheduler_mode` -- maps ``DBConfig.scheduler_mode`` to a
  concrete mode; a database runs its background sweep fold on a thread
  iff the mode is ``threaded``.
"""

from __future__ import annotations

import threading
from typing import Callable

from repro.errors import ConfigError

DETERMINISTIC = "deterministic"
THREADED = "threaded"

#: The one trigger point a tick task may subscribe to.
TICK_EVENTS = ("interval",)


class Scheduler:
    """Runs registered ``"interval"`` tasks every ``tick_interval_s``.

    The ticker thread starts when the first task registers.
    """

    def __init__(self, tick_interval_s: float = 0.01) -> None:
        self.tick_interval_s = tick_interval_s
        self._tasks: list[tuple[str, Callable[[str], None]]] = []
        self._ticker: threading.Thread | None = None
        self._ticker_stop = threading.Event()

    def register_tick(self, name: str, events, fn: Callable[[str], None]) -> None:
        """Register ``fn`` to run on every tick of ``events``.

        Tasks run synchronously on the ticking thread, in registration
        order.
        """
        unknown = set(events).difference(TICK_EVENTS)
        if unknown:
            raise ConfigError(
                f"unknown tick event(s) {sorted(unknown)}; valid: {TICK_EVENTS}"
            )
        if any(task_name == name for task_name, _ in self._tasks):
            raise ConfigError(f"tick task {name!r} already registered")
        self._tasks.append((name, fn))
        if self._ticker is None and not self._ticker_stop.is_set():

            def loop() -> None:
                while not self._ticker_stop.wait(self.tick_interval_s):
                    self.tick("interval")

            self._ticker = threading.Thread(target=loop, name="scheduler-ticker", daemon=True)
            self._ticker.start()

    def tick(self, event: str) -> None:
        """Run every registered task, in order."""
        for _name, fn in self._tasks:
            fn(event)

    def shutdown(self) -> None:
        """Stop the ticker and wait out a tick in flight."""
        self._ticker_stop.set()
        ticker, self._ticker = self._ticker, None
        if ticker is not None:
            ticker.join(timeout=5)


def resolve_scheduler_mode(requested: str, background_sweeps: bool) -> str:
    """Map the DBConfig knob to a concrete mode.

    ``"auto"`` is ``"threaded"`` iff the database opted into background
    sweeps, ``"deterministic"`` otherwise.
    """
    if requested == "auto":
        return THREADED if background_sweeps else DETERMINISTIC
    if requested not in (DETERMINISTIC, THREADED):
        raise ConfigError(
            "scheduler_mode must be 'auto', 'deterministic' or 'threaded': "
            f"{requested!r}"
        )
    return requested


__all__ = ["DETERMINISTIC", "THREADED", "Scheduler", "resolve_scheduler_mode"]
