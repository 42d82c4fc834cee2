"""Logical lock manager for multi-level transactions.

Locks are keyed by logical object keys (``"account:123"``) and come in two
durations, following multi-level recovery (Section 2.1):

* ``txn`` -- held to transaction end (strict two-phase locking at the
  transaction level);
* ``op``  -- lower-level locks released when the enclosing operation
  commits, after its redo records have moved to the system log and its
  undo has been replaced by a logical undo record.

The manager is non-blocking: a conflicting request raises
:class:`~repro.errors.LockError` immediately instead of waiting.  The
paper's benchmark runs one transaction at a time, where a conflict
indicates a bug; the serving front-end (:mod:`repro.serve`) turns the
same fail-fast conflict into a per-session abort-and-retry.

Release cost follows what is being released, not what is held.  A
reverse index maps each transaction to the keys it holds, so
``release_all`` is O(locks held by the transaction) and never scans keys
owned by other sessions.  Op-duration grants are also listed per
(transaction, operation) when they are taken, so ``release_operation``
is O(op-duration locks that operation took): an operation commit costs
the same whether it is the first or the five-hundredth of its
transaction (the numbers are in ``BENCH_txn.json`` under
``lock_release``).  All public methods take an internal mutex --
concurrent serving sessions share one lock table, and check-then-act
sequences like conflict detection must be atomic against them.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from enum import Enum

from repro.errors import LockError


class LockMode(Enum):
    SHARED = "S"
    EXCLUSIVE = "X"

    def compatible_with(self, other: "LockMode") -> bool:
        return self is LockMode.SHARED and other is LockMode.SHARED


@dataclass
class _Grant:
    txn_id: int
    mode: LockMode
    duration: str  # "txn" or "op"
    op_id: int | None
    depth: int = 1


class LockManager:
    """Conflict-detecting, non-blocking logical lock table."""

    def __init__(self) -> None:
        self._table: dict[str, list[_Grant]] = {}
        #: Reverse index: txn_id -> keys it holds at least one grant on.
        #: Invariant: ``key in self._txn_keys[t]`` iff ``self._table[key]``
        #: contains a grant with ``txn_id == t`` (there is at most one
        #: such grant per (txn, key); re-acquisition nests its depth).
        self._txn_keys: dict[int, set[str]] = {}
        #: txn_id -> op_id -> keys first granted with op duration under
        #: that operation, in grant order.  A listed key may since have
        #: escalated to txn duration (``release_operation`` re-checks the
        #: grant); a key whose grant is op-duration is always listed, and
        #: a transaction's lists go when it ends.
        self._op_keys: dict[int, dict[int | None, list[str]]] = {}
        self._mutex = threading.RLock()
        self.acquire_count = 0

    def acquire(
        self,
        txn_id: int,
        key: str,
        mode: LockMode,
        duration: str = "txn",
        op_id: int | None = None,
    ) -> None:
        if duration not in ("txn", "op"):
            raise LockError(f"bad lock duration {duration!r}")
        with self._mutex:
            grants = self._table.setdefault(key, [])
            mine = None
            for grant in grants:
                if grant.txn_id == txn_id:
                    mine = grant
                    continue
                if not mode.compatible_with(grant.mode):
                    raise LockError(
                        f"transaction {txn_id} requests {mode.value} on {key!r} "
                        f"held {grant.mode.value} by transaction {grant.txn_id}",
                        holder_txn_id=grant.txn_id,
                    )
            self.acquire_count += 1
            if mine is not None:
                mine.depth += 1
                if mode is LockMode.EXCLUSIVE:
                    mine.mode = LockMode.EXCLUSIVE  # upgrade
                if duration == "txn":
                    mine.duration = "txn"  # op lock escalates to txn duration
                return
            grants.append(_Grant(txn_id, mode, duration, op_id))
            self._txn_keys.setdefault(txn_id, set()).add(key)
            if duration == "op":
                self._op_keys.setdefault(txn_id, {}).setdefault(op_id, []).append(key)

    def holds(self, txn_id: int, key: str, mode: LockMode | None = None) -> bool:
        with self._mutex:
            for grant in self._table.get(key, ()):
                if grant.txn_id != txn_id:
                    continue
                if (
                    mode is None
                    or grant.mode is mode
                    or grant.mode is LockMode.EXCLUSIVE
                ):
                    return True
            return False

    def would_conflict(self, txn_id: int, key: str, mode: LockMode) -> bool:
        """Check without acquiring (used by corruption-recovery conflict tests)."""
        with self._mutex:
            for grant in self._table.get(key, ()):
                if grant.txn_id != txn_id and not mode.compatible_with(grant.mode):
                    return True
            return False

    def release_operation(self, txn_id: int, op_id: int) -> None:
        """Release the op-duration locks of one committed operation.

        Visits only the keys that operation took with op duration (its
        per-op list), not every key the transaction holds -- a long
        transaction holds thousands of txn-duration locks, and walking
        them on every operation commit made operation cost grow with
        the number of operations already run.
        """
        with self._mutex:
            by_op = self._op_keys.get(txn_id)
            if not by_op:
                return
            listed = by_op.pop(op_id, None)
            if not by_op:
                del self._op_keys[txn_id]
            if not listed:
                return
            keys = self._txn_keys[txn_id]
            for key in listed:
                grants = self._table[key]
                for i, grant in enumerate(grants):
                    if grant.txn_id != txn_id:
                        continue
                    # Still op-duration, i.e. not escalated to txn since.
                    if grant.duration == "op" and grant.op_id == op_id:
                        del grants[i]
                        keys.discard(key)
                        if not grants:
                            del self._table[key]
                    break
            if not keys:
                del self._txn_keys[txn_id]

    def release_all(self, txn_id: int) -> None:
        """Release every lock of a finished transaction: O(locks held)."""
        with self._mutex:
            self._op_keys.pop(txn_id, None)
            keys = self._txn_keys.pop(txn_id, None)
            if not keys:
                return
            for key in keys:
                grants = self._table[key]
                for i, grant in enumerate(grants):
                    if grant.txn_id == txn_id:
                        del grants[i]
                        break
                if not grants:
                    del self._table[key]

    def locks_held(self, txn_id: int) -> list[str]:
        with self._mutex:
            return sorted(self._txn_keys.get(txn_id, ()))

    def clear(self) -> None:
        with self._mutex:
            self._table.clear()
            self._txn_keys.clear()
            self._op_keys.clear()
