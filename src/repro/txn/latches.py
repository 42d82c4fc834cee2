"""Latches: short-duration shared/exclusive synchronization primitives.

The paper uses three latch roles: the per-region *protection latch*
(Section 3.1), the *codeword latch* guarding codeword values under the
Data Codeword scheme (Section 3.2), and the *system log latch* serializing
flushes (Section 2.1).

Latches here are real (thread-safe, blocking) so multi-threaded tests can
exercise them, but the performance study -- like the paper's -- runs a
single process, so only their *cost* (charged by callers per
acquire/release pair) shows up in the benchmark, never contention.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

from repro.errors import LatchError

_get_ident = threading.get_ident

SHARED = "S"
EXCLUSIVE = "X"


class Latch:
    """A shared/exclusive latch, reentrant for its current owner thread.

    The uncontended cases -- the latch is free, or the caller is its
    exclusive owner -- are granted inline under the raw mutex.  The
    ``threading.Condition`` waiters park on is only built the first time
    a request has to wait, so the one-latch-per-region tables never pay
    for one on a single-threaded run.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._cond: threading.Condition | None = None
        self._waiters = 0
        self._shared_holders: dict[int, int] = {}  # thread id -> depth
        self._exclusive_owner: int | None = None
        self._exclusive_depth = 0
        self.acquire_count = 0

    # ---------------------------------------------------------- acquire

    def acquire(self, mode: str, timeout: float | None = 10.0) -> None:
        if mode != EXCLUSIVE and mode != SHARED:
            raise LatchError(f"bad latch mode {mode!r}")
        me = _get_ident()
        with self._lock:
            owner = self._exclusive_owner
            if owner == me:
                # Reentrant: the exclusive owner may nest either mode.
                self._exclusive_depth += 1
            elif owner is None and not self._shared_holders:
                if mode == EXCLUSIVE:
                    self._exclusive_owner = me
                    self._exclusive_depth = 1
                else:
                    self._shared_holders[me] = 1
            else:
                self._acquire_slow(mode, me, timeout)
            self.acquire_count += 1

    def _acquire_slow(self, mode: str, me: int, timeout: float | None) -> None:
        """Grant a request the fast path could not; called with the mutex held."""
        if not self._grantable(mode, me):
            cond = self._cond
            if cond is None:
                cond = self._cond = threading.Condition(self._lock)
            deadline = None if timeout is None else (
                threading.TIMEOUT_MAX if timeout <= 0 else timeout
            )
            self._waiters += 1
            try:
                while not self._grantable(mode, me):
                    if not cond.wait(timeout=deadline):
                        raise LatchError(
                            f"timeout acquiring latch {self.name!r} in mode {mode}"
                        )
            finally:
                self._waiters -= 1
        self._grant(mode, me)

    def _grantable(self, mode: str, me: int) -> bool:
        # Only reached when the caller is not the exclusive owner (the fast
        # path re-enters that), and waiting cannot make it one.
        if self._exclusive_owner is not None:
            return False
        if mode == SHARED or not self._shared_holders:
            return True
        # Exclusive request while shared: an upgrade by the sole holder.
        return set(self._shared_holders) == {me}

    def _grant(self, mode: str, me: int) -> None:
        if mode == SHARED:
            self._shared_holders[me] = self._shared_holders.get(me, 0) + 1
            return
        # Exclusive grant; fold any shared depth we held into exclusive depth
        # so releases pair up (upgrade path).
        upgraded_depth = self._shared_holders.pop(me, 0)
        self._exclusive_owner = me
        self._exclusive_depth = 1 + upgraded_depth

    # ---------------------------------------------------------- release

    def release(self) -> None:
        me = _get_ident()
        with self._lock:
            if self._exclusive_owner == me:
                depth = self._exclusive_depth - 1
                self._exclusive_depth = depth
                if depth == 0:
                    self._exclusive_owner = None
            elif me in self._shared_holders:
                depth = self._shared_holders[me] - 1
                if depth:
                    self._shared_holders[me] = depth
                else:
                    del self._shared_holders[me]
            else:
                raise LatchError(
                    f"thread releasing latch {self.name!r} it does not hold"
                )
            if self._waiters:
                self._cond.notify_all()

    # ------------------------------------------------------------ views

    def held_exclusive(self) -> bool:
        return self._exclusive_owner is not None

    def held(self) -> bool:
        return self._exclusive_owner is not None or bool(self._shared_holders)

    @contextmanager
    def shared(self):
        self.acquire(SHARED)
        try:
            yield self
        finally:
            self.release()

    @contextmanager
    def exclusive(self):
        self.acquire(EXCLUSIVE)
        try:
            yield self
        finally:
            self.release()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Latch({self.name!r})"


class LatchTable:
    """Lazily-created named latches (one protection latch per region)."""

    def __init__(self, prefix: str) -> None:
        self.prefix = prefix
        self._latches: dict[int, Latch] = {}
        self._guard = threading.Lock()
        #: The latch of a key if it exists yet, else None: one dict
        #: lookup, for hot loops that fall back to :meth:`latch`.
        self.existing = self._latches.get

    def latch(self, key: int) -> Latch:
        # Double-checked fast path: dict reads are atomic under the GIL,
        # and this lookup is on the per-update hot path.  The guard is
        # only taken to serialize creation of a missing latch.
        latch = self._latches.get(key)
        if latch is not None:
            return latch
        with self._guard:
            latch = self._latches.get(key)
            if latch is None:
                latch = Latch(f"{self.prefix}[{key}]")
                self._latches[key] = latch
            return latch

    def any_held(self) -> bool:
        """Whether any latch in the table is currently held.

        Used by the batch audit fast path: when nothing is in flight, a
        whole-table scan may fold every region in one vectorized kernel
        instead of latching region by region.
        """
        with self._guard:
            return any(latch.held() for latch in self._latches.values())

    def __len__(self) -> int:
        return len(self._latches)
