"""Latches: short-duration shared/exclusive synchronization primitives.

The paper uses three latch roles: the per-region *protection latch*
(Section 3.1), the *codeword latch* guarding codeword values under the
Data Codeword scheme (Section 3.2), and the *system log latch* serializing
flushes (Section 2.1).

Latches here are real (thread-safe, blocking) so multi-threaded tests can
exercise them, but the performance study -- like the paper's -- runs a
single process, so only their *cost* (charged by callers per
acquire/release pair) shows up in the benchmark, never contention.

A latch has state only while some thread holds it: a :class:`LatchTable`
keeps one entry per *held* key, and a key leaves the table on its last
release.  Protection therefore costs memory for the latches in flight,
not for every region ever latched.  A read precheck of a key nobody
holds makes no entry at all: it checks under the table's mutex
(:meth:`LatchTable.exclusion`).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from types import MappingProxyType

from repro.errors import LatchError

_get_ident = threading.get_ident

SHARED = "S"
EXCLUSIVE = "X"
_MODES = (EXCLUSIVE, SHARED)


class LatchTable:
    """Shared/exclusive latches named by key (one per region), reentrant
    for their exclusive owner thread.

    ``_held`` maps each held key to ``[exclusive owner, exclusive depth,
    {shared holder: depth}]``; an exclusive owner never coexists with
    shared holders, and a key granted exclusively first has no holder
    dict (``None``).  The uncontended cases -- the key is free, or the
    caller is its exclusive owner -- are granted inline under the one
    raw mutex.  The ``threading.Condition`` waiters park on is only built
    the first time a request has to wait, so a single-threaded run never
    pays for one.
    """

    def __init__(self, prefix: str) -> None:
        self.prefix = prefix
        self._mutex = threading.Lock()
        self._cond: threading.Condition | None = None
        self._waiters = 0
        self._held: dict = {}
        self._held_view = MappingProxyType(self._held)

    def _name(self, key) -> str:
        return self.prefix if key is None else f"{self.prefix}[{key}]"

    # ---------------------------------------------------------- acquire

    def acquire(self, key, mode: str, timeout: float | None = 10.0) -> None:
        me = _get_ident()
        held = self._held
        mutex = self._mutex
        # An explicit mutex acquire/release pair and ``in`` / subscript
        # instead of ``with`` and ``dict.get``: this is the hot path.
        mutex.acquire()
        try:
            if key not in held:
                if mode == EXCLUSIVE:
                    held[key] = [me, 1, None]
                elif mode == SHARED:
                    held[key] = [None, 0, {me: 1}]
                else:
                    self._acquire_slow(key, mode, me, timeout)
            elif held[key][0] == me and mode in _MODES:
                # Reentrant: the exclusive owner may nest either mode.
                held[key][1] += 1
            else:
                self._acquire_slow(key, mode, me, timeout)
        finally:
            mutex.release()

    def _acquire_slow(self, key, mode: str, me: int, timeout: float | None) -> None:
        """Grant a request the fast path could not; called with the mutex held."""
        if mode not in _MODES:
            raise LatchError(f"bad latch mode {mode!r}")
        if not self._grantable(key, mode, me):
            cond = self._cond
            if cond is None:
                cond = self._cond = threading.Condition(self._mutex)
            wait = None if timeout is None else (
                threading.TIMEOUT_MAX if timeout <= 0 else timeout
            )
            self._waiters += 1
            try:
                # wait_for keeps one deadline across wake-ups: a release
                # of any key wakes every waiter of the table.
                if not cond.wait_for(lambda: self._grantable(key, mode, me), wait):
                    raise LatchError(
                        f"timeout acquiring latch {self._name(key)!r} in mode {mode}"
                    )
            finally:
                self._waiters -= 1
        entry = self._held.get(key)
        if entry is None:
            self._held[key] = [me, 1, None] if mode == EXCLUSIVE else [None, 0, {me: 1}]
        elif mode == SHARED:
            holders = entry[2]
            holders[me] = holders.get(me, 0) + 1
        else:
            # Upgrade by the sole shared holder: fold its shared depth into
            # the exclusive depth so releases pair up.
            entry[0] = me
            entry[1] = 1 + entry[2].pop(me)

    def _grantable(self, key, mode: str, me: int) -> bool:
        # Only reached when the caller is not the exclusive owner (the fast
        # path re-enters that), and waiting cannot make it one.
        entry = self._held.get(key)
        if entry is None:
            return True
        if entry[0] is not None:
            return False
        # Shared holders only: an exclusive request is an upgrade by the
        # sole holder.
        return mode == SHARED or entry[2].keys() == {me}

    # ---------------------------------------------------------- release

    def release(self, key) -> None:
        me = _get_ident()
        held = self._held
        mutex = self._mutex
        mutex.acquire()
        try:
            entry = held[key] if key in held else None
            if entry is not None and entry[0] == me:
                depth = entry[1] - 1
                if depth:
                    entry[1] = depth
                else:
                    del held[key]
            elif entry is not None and entry[0] is None and me in entry[2]:
                holders = entry[2]
                depth = holders[me] - 1
                if depth:
                    holders[me] = depth
                elif len(holders) == 1:
                    del held[key]
                else:
                    del holders[me]
            else:
                raise LatchError(
                    f"thread releasing latch {self._name(key)!r} it does not hold"
                )
            if self._waiters:
                self._cond.notify_all()
        finally:
            mutex.release()

    # ------------------------------------------------------------ views

    def exclusion(self) -> tuple:
        """``(mutex, held)``: the table's raw mutex and a live read-only
        view of the keys some thread holds, for reading what a free key's
        latch guards without taking it.

        No latch is granted or released while ``mutex`` is held, so a key
        not in ``held`` then belongs to no thread and cannot be granted
        to one: work done under the mutex sees that key's state at least
        as exclusively as under its ``EXCLUSIVE`` latch.  A key in
        ``held`` must be latched through :meth:`acquire` after the mutex
        is released (it is not reentrant).  Hold the mutex only for short
        work that touches no latch.
        """
        return self._mutex, self._held_view

    def latch(self, key) -> Latch:
        """A handle on one key's latch (for cold paths and tests)."""
        return Latch(self._name(key), self, key)

    def held(self, key) -> bool:
        return key in self._held

    def held_exclusive(self, key) -> bool:
        entry = self._held.get(key)
        return entry is not None and entry[0] is not None

    def any_held(self) -> bool:
        """Whether any latch in the table is currently held.

        Used by the batch audit fast path: when nothing is in flight, a
        whole-table scan may fold every region in one vectorized kernel
        instead of latching region by region.
        """
        return bool(self._held)

    def __len__(self) -> int:
        """The number of keys held right now."""
        return len(self._held)


class Latch:
    """One latch: a one-key view of a :class:`LatchTable`.

    ``Latch(name)`` is a latch of its own (the system log latch);
    :meth:`LatchTable.latch` returns a view of one key of a shared table.
    Either way the grant, wait and release code is the table's.
    """

    def __init__(self, name: str, table: LatchTable | None = None, key=None) -> None:
        self.name = name
        self.table = LatchTable(name) if table is None else table
        self.key = key
        #: Acquires made through this view.
        self.acquire_count = 0

    def acquire(self, mode: str, timeout: float | None = 10.0) -> None:
        self.table.acquire(self.key, mode, timeout)
        self.acquire_count += 1

    def release(self) -> None:
        self.table.release(self.key)

    def held_exclusive(self) -> bool:
        return self.table.held_exclusive(self.key)

    def held(self) -> bool:
        return self.table.held(self.key)

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
