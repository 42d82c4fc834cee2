"""Lock manager vs. a scan-all-keys reference model, under random histories.

``LockManager.release_operation`` visits only the keys an operation took
with op duration (a per-(txn, op) list filled at ``acquire``).  The
implementation it replaced walked every key the transaction held and
tested each grant; that version is kept here, whole, as the reference
model.  A hypothesis state machine drives both with the same random
``acquire`` / ``release_operation`` / ``release_all`` calls over several
transactions -- both durations, S->X upgrade, op->txn escalation,
re-acquisition by a later operation, ``op_id=None`` -- and requires the
same answers, the reverse-index invariant, and no per-op list left behind
once its transaction ends.
"""

from __future__ import annotations

from dataclasses import dataclass

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.errors import LockError
from repro.txn.locks import LockManager, LockMode

TXNS = (1, 2, 3)
KEYS = ("a", "b", "c", "d")
MODES = (LockMode.SHARED, LockMode.EXCLUSIVE)


@dataclass
class _Grant:
    txn_id: int
    mode: LockMode
    duration: str
    op_id: int | None
    depth: int = 1


class ScanAllKeysLocks:
    """The lock table as it was before per-op key lists (reference model)."""

    def __init__(self) -> None:
        self._table: dict[str, list[_Grant]] = {}
        self._txn_keys: dict[int, set[str]] = {}

    def acquire(self, txn_id, key, mode, duration="txn", op_id=None) -> None:
        grants = self._table.setdefault(key, [])
        mine = None
        for grant in grants:
            if grant.txn_id == txn_id:
                mine = grant
                continue
            if not mode.compatible_with(grant.mode):
                raise LockError("conflict", holder_txn_id=grant.txn_id)
        if mine is not None:
            mine.depth += 1
            if mode is LockMode.EXCLUSIVE:
                mine.mode = LockMode.EXCLUSIVE
            if duration == "txn":
                mine.duration = "txn"
            return
        grants.append(_Grant(txn_id, mode, duration, op_id))
        self._txn_keys.setdefault(txn_id, set()).add(key)

    def holds(self, txn_id, key, mode=None) -> bool:
        for grant in self._table.get(key, ()):
            if grant.txn_id == txn_id and (
                mode is None or grant.mode is mode or grant.mode is LockMode.EXCLUSIVE
            ):
                return True
        return False

    def would_conflict(self, txn_id, key, mode) -> bool:
        return any(
            grant.txn_id != txn_id and not mode.compatible_with(grant.mode)
            for grant in self._table.get(key, ())
        )

    def release_operation(self, txn_id, op_id) -> None:
        keys = self._txn_keys.get(txn_id)
        if not keys:
            return
        for key in list(keys):
            grants = self._table[key]
            for i, grant in enumerate(grants):
                if grant.txn_id != txn_id:
                    continue
                if grant.duration == "op" and grant.op_id == op_id:
                    del grants[i]
                    keys.discard(key)
                    if not grants:
                        del self._table[key]
                break
        if not keys:
            del self._txn_keys[txn_id]

    def release_all(self, txn_id) -> None:
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

    def locks_held(self, txn_id) -> list[str]:
        return sorted(self._txn_keys.get(txn_id, ()))


class LockHistories(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.real = LockManager()
        self.model = ScanAllKeysLocks()
        self.next_op_id = 1
        #: txn -> ids of the operations it has opened (None = outside any).
        self.ops: dict[int, list[int | None]] = {txn: [None] for txn in TXNS}

    @rule(txn=st.sampled_from(TXNS))
    def begin_operation(self, txn):
        self.ops[txn].append(self.next_op_id)
        self.next_op_id += 1

    @rule(
        txn=st.sampled_from(TXNS),
        key=st.sampled_from(KEYS),
        mode=st.sampled_from(MODES),
        duration=st.sampled_from(("txn", "op")),
        latest_op=st.booleans(),
        data=st.data(),
    )
    def acquire(self, txn, key, mode, duration, latest_op, data):
        # Mostly the innermost operation, as the manager does; sometimes
        # an older one or none, which the lock table must also survive.
        op_id = (
            self.ops[txn][-1]
            if latest_op
            else data.draw(st.sampled_from(self.ops[txn]))
        )
        outcomes = []
        for locks in (self.real, self.model):
            try:
                locks.acquire(txn, key, mode, duration, op_id)
                outcomes.append(None)
            except LockError as exc:
                outcomes.append(exc.holder_txn_id)
        assert outcomes[0] == outcomes[1]

    @rule(txn=st.sampled_from(TXNS), data=st.data())
    def release_operation(self, txn, data):
        op_id = data.draw(st.sampled_from(self.ops[txn]))
        self.real.release_operation(txn, op_id)
        self.model.release_operation(txn, op_id)

    @rule(txn=st.sampled_from(TXNS))
    def release_all(self, txn):
        self.real.release_all(txn)
        self.model.release_all(txn)
        self.ops[txn] = [None]
        assert txn not in self.real._op_keys

    @invariant()
    def same_answers(self):
        for txn in TXNS:
            assert self.real.locks_held(txn) == self.model.locks_held(txn)
            for key in KEYS:
                for mode in (None, *MODES):
                    assert self.real.holds(txn, key, mode) == self.model.holds(
                        txn, key, mode
                    )
                for mode in MODES:
                    assert self.real.would_conflict(
                        txn, key, mode
                    ) == self.model.would_conflict(txn, key, mode)

    @invariant()
    def reverse_index_matches_table(self):
        real = self.real
        from_table: dict[int, set[str]] = {}
        for key, grants in real._table.items():
            assert grants, f"empty grant list kept for {key!r}"
            owners = [grant.txn_id for grant in grants]
            assert len(owners) == len(set(owners))
            for txn in owners:
                from_table.setdefault(txn, set()).add(key)
        assert real._txn_keys == from_table

    @invariant()
    def op_lists_cover_op_grants_and_do_not_leak(self):
        real = self.real
        for txn, by_op in real._op_keys.items():
            assert by_op and txn in real._txn_keys
            for listed in by_op.values():
                assert listed and len(listed) == len(set(listed))
                assert set(listed) <= real._txn_keys[txn]
        for key, grants in real._table.items():
            for grant in grants:
                if grant.duration == "op":
                    assert key in real._op_keys[grant.txn_id][grant.op_id]


LockHistories.TestCase.settings = settings(
    max_examples=150, stateful_step_count=60, deadline=None
)
TestLockHistories = LockHistories.TestCase


def test_release_operation_is_independent_of_locks_held():
    """The op-commit release touches the operation's own keys only."""
    locks = LockManager()
    for i in range(1000):
        locks.acquire(1, f"row:{i}", LockMode.EXCLUSIVE, "txn", op_id=i)

    class CountingDict(dict):
        lookups = 0

        def __getitem__(self, key):
            CountingDict.lookups += 1
            return super().__getitem__(key)

    locks._table = CountingDict(locks._table)
    locks.acquire(1, "alloc", LockMode.EXCLUSIVE, "op", op_id=1000)
    locks.release_operation(1, 1000)
    assert CountingDict.lookups == 1
    assert not locks.holds(1, "alloc")
    assert len(locks.locks_held(1)) == 1000
