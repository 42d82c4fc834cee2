"""Waits and instrumentation for the admission-gate tests.

Waits are event-driven wherever a thread can signal.  A request parked
*inside* ``Server.submit`` cannot, so :func:`until` re-reads a public
gauge instead; only its failure deadline depends on the clock.
"""

from __future__ import annotations

import os
import threading
import time

TIMEOUT = 30.0


def until(predicate, what: str) -> None:
    """Re-read a gauge until ``predicate`` holds (bounded by ``TIMEOUT``)."""
    deadline = time.monotonic() + TIMEOUT
    while not predicate():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        os.sched_yield()


def join_all(threads) -> None:
    for thread in threads:
        thread.join(timeout=TIMEOUT)
    assert [t.name for t in threads if t.is_alive()] == []


class Probe:
    """Instruments ``Session.execute``: who is inside, in what order.

    Every request stays inside ``execute`` until :meth:`open`;
    ``entered`` is released once per entry, so a test can wait for "N
    requests are executing" without looking at a clock.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._go = threading.Event()
        self.entered = threading.Semaphore(0)
        self.inside = 0
        self.peak = 0
        self.order: list[int] = []

    def attach(self, session):
        inner = session.execute

        def execute(request):
            with self._lock:
                self.inside += 1
                self.peak = max(self.peak, self.inside)
                self.order.append(session.session_id)
            self.entered.release()
            try:
                assert self._go.wait(TIMEOUT)
                return inner(request)
            finally:
                with self._lock:
                    self.inside -= 1

        session.execute = execute
        return session

    def wait_entered(self, count: int) -> None:
        for _ in range(count):
            assert self.entered.acquire(timeout=TIMEOUT)

    def open(self) -> None:
        self._go.set()


class InterruptedPark(Exception):
    """What :class:`InterruptedTurn` raises instead of blocking."""


class InterruptedTurn:
    """A gate turn whose park is interrupted.

    ``Server.submit`` takes a fresh turn lock once (never contended) and
    then parks on a second ``acquire``; here that blocking acquire raises
    at once, the deterministic stand-in for a signal landing in the wait.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        if self._lock.acquire(blocking=False):
            return True
        raise InterruptedPark("interrupted while parked")

    def release(self) -> None:
        self._lock.release()
