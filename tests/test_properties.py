"""End-to-end property-based tests.

Two system-level invariants from the paper:

* crash/recovery equivalence -- after a crash, exactly the committed
  transactions' effects are visible (Section 2.1's "repeating history");
* delete-transaction correctness -- after corruption recovery, the
  database matches a conflict-/view-consistent delete history and no
  injected corruption survives (Section 4).
"""

from __future__ import annotations

import shutil

from hypothesis import HealthCheck, given, settings, strategies as st

from repro import Database, DBConfig, FaultInjector
from repro.recovery.history import (
    check_conflict_consistent,
    check_view_consistent,
    expected_final_state,
)

from tests.conftest import ACCT_SCHEMA

SLOW = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)

# One scripted action: (kind, key, value)
action = st.one_of(
    st.tuples(st.just("insert"), st.integers(0, 39), st.integers(0, 1000)),
    st.tuples(st.just("update"), st.integers(0, 39), st.integers(0, 1000)),
    st.tuples(st.just("delete"), st.integers(0, 39), st.just(0)),
    st.tuples(st.just("read"), st.integers(0, 39), st.just(0)),
    st.tuples(st.just("commit"), st.just(0), st.just(0)),
    st.tuples(st.just("abort"), st.just(0), st.just(0)),
    st.tuples(st.just("checkpoint"), st.just(0), st.just(0)),
)


def fresh_db(tmp_path, scheme, sub):
    path = tmp_path / sub
    if path.exists():
        shutil.rmtree(path)
    config = DBConfig(dir=str(path), scheme=scheme, record_history=True)
    db = Database(config)
    db.create_table("acct", ACCT_SCHEMA, 80, key_field="id")
    db.start()
    return db


class Model:
    """Committed-state model the recovered database must match."""

    def __init__(self) -> None:
        self.committed: dict[int, int] = {}
        self.pending: dict[int, int | None] = {}

    def apply(self, kind, key, value):
        if kind == "insert":
            self.pending[key] = value
        elif kind == "update":
            self.pending[key] = value
        elif kind == "delete":
            self.pending[key] = None

    def commit(self):
        for key, value in self.pending.items():
            if value is None:
                self.committed.pop(key, None)
            else:
                self.committed[key] = value
        self.pending.clear()

    def abort(self):
        self.pending.clear()

    def view(self) -> dict[int, int]:
        merged = dict(self.committed)
        for key, value in self.pending.items():
            if value is None:
                merged.pop(key, None)
            else:
                merged[key] = value
        return merged


def run_script(db, script):
    """Drive the database and a model through a random script."""
    model = Model()
    table = db.table("acct")
    txn = db.begin()
    for kind, key, value in script:
        view = model.view()
        if kind == "insert":
            if key in view:
                continue
            table.insert(txn, {"id": key, "balance": value})
            model.apply(kind, key, value)
        elif kind == "update":
            if key not in view:
                continue
            table.update(txn, table.lookup(txn, key), {"balance": value})
            model.apply(kind, key, value)
        elif kind == "delete":
            if key not in view:
                continue
            table.delete(txn, table.lookup(txn, key))
            model.apply(kind, key, 0)
        elif kind == "read":
            if key in view:
                row = table.read(txn, table.lookup(txn, key))
                assert row["balance"] == view[key]
        elif kind == "commit":
            db.commit(txn)
            model.commit()
            txn = db.begin()
        elif kind == "abort":
            db.abort(txn)
            model.abort()
            txn = db.begin()
        elif kind == "checkpoint":
            db.checkpoint()
    # leave the last transaction uncommitted: it must disappear at crash
    return model


def committed_state(db) -> dict[int, int]:
    table = db.table("acct")
    txn = db.begin()
    state = {}
    for slot in table.scan_slots(txn):
        row = table.read(txn, slot)
        state[row["id"]] = row["balance"]
    db.commit(txn)
    return state


class TestCrashRecoveryEquivalence:
    @SLOW
    @given(script=st.lists(action, max_size=40))
    def test_recovered_state_is_committed_prefix(self, tmp_path, script):
        db = fresh_db(tmp_path, "baseline", "crash")
        try:
            model = run_script(db, script)
            db.crash()
            db2, report = Database.recover(db.config)
            assert report.mode == "normal"
            assert committed_state(db2) == model.committed
            db2.close()
        finally:
            db.close()

    @SLOW
    @given(script=st.lists(action, max_size=30))
    def test_recovery_with_codewords_stays_auditable(self, tmp_path, script):
        db = fresh_db(tmp_path, "data_cw", "cw")
        try:
            model = run_script(db, script)
            db.crash()
            db2, _ = Database.recover(db.config)
            assert db2.audit().clean
            assert committed_state(db2) == model.committed
            db2.close()
        finally:
            db.close()


corruption_script = st.lists(
    st.tuples(
        st.sampled_from(["read_then_write", "write", "wild"]),
        st.integers(0, 19),
        st.integers(0, 19),
    ),
    min_size=3,
    max_size=15,
)


class TestDeleteTransactionProperties:
    @SLOW
    @given(script=corruption_script, fault_at=st.integers(0, 5))
    def test_view_consistent_recovery(self, tmp_path, script, fault_at):
        db = fresh_db(tmp_path, "cw_read_logging", "del")
        try:
            table = db.table("acct")
            txn = db.begin()
            slots = {
                i: table.insert(txn, {"id": i, "balance": 100}) for i in range(20)
            }
            db.commit(txn)
            db.checkpoint()
            injector = FaultInjector(db, seed=fault_at)
            injected = False
            for i, (kind, a, b) in enumerate(script):
                if i == fault_at:
                    injector.wild_write(
                        table.record_address(slots[a]) + 8, 8
                    )
                    injected = True
                    continue
                txn = db.begin()
                if kind == "read_then_write":
                    value = table.read(txn, slots[a])["balance"]
                    table.update(txn, slots[b], {"balance": value})
                elif kind == "write":
                    table.update(txn, slots[b], {"balance": a * 7})
                db.commit(txn)
            if not injected:
                injector.wild_write(table.record_address(slots[0]) + 8, 8)
            report = db.audit()
            history = db.history
            if report.clean:
                # The wild write may have hit bytes that fold to the same
                # codeword only with ~2^-32 probability; treat as clean run.
                return
            db.crash_with_corruption(report)
            db2, recovery = Database.recover(db.config)
            deleted = recovery.deleted_set
            # The checksum variant guarantees VIEW-consistency only: a
            # deleted transaction that wrote the same value the delete
            # history holds does not recruit its readers ("not propagating
            # corruption when the corrupt transaction wrote the same data
            # ... as it would have had in the delete-history", Section 4.3
            # last paragraph) -- which can violate conflict-consistency.
            # Hypothesis actually finds such schedules.
            assert check_view_consistent(history, deleted) == []
            assert db2.audit().clean
            # The recovered image matches the delete history's final state.
            expected = expected_final_state(history, deleted)
            txn = db2.begin()
            for (tbl, slot), value in expected.items():
                if value is None:
                    continue
                assert db2.table(tbl).read_bytes(txn, slot) == value
            db2.commit(txn)
            db2.close()
        finally:
            db.close()

    @SLOW
    @given(script=corruption_script, fault_at=st.integers(0, 5))
    def test_conflict_consistent_recovery(self, tmp_path, script, fault_at):
        db = fresh_db(tmp_path, "read_logging", "del2")
        db.pipeline.region_size  # plain variant, large regions
        try:
            table = db.table("acct")
            txn = db.begin()
            slots = {
                i: table.insert(txn, {"id": i, "balance": 100}) for i in range(20)
            }
            db.commit(txn)
            db.checkpoint()
            injector = FaultInjector(db, seed=fault_at)
            for i, (kind, a, b) in enumerate(script):
                if i == fault_at:
                    injector.wild_write(table.record_address(slots[a]) + 8, 8)
                    continue
                txn = db.begin()
                if kind == "read_then_write":
                    value = table.read(txn, slots[a])["balance"]
                    table.update(txn, slots[b], {"balance": value})
                elif kind == "write":
                    table.update(txn, slots[b], {"balance": a * 7})
                db.commit(txn)
            report = db.audit()
            history = db.history
            if report.clean:
                return
            db.crash_with_corruption(report)
            db2, recovery = Database.recover(db.config)
            assert check_conflict_consistent(history, recovery.deleted_set) == []
            assert db2.audit().clean
            db2.close()
        finally:
            db.close()
