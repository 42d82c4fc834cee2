"""Record-level ``Table.update`` through batched update windows.

A multi-field update used to open one maintenance window per field; it
now queues the field writes on the accessor and flushes them as a single
``apply_writes`` window over all changed field ranges, folding the
codeword delta once.  That must be *identical* to a window per field in
everything but shape: same final bytes, same undo behavior, and -- the
meter-identity claim -- exactly the same virtual charge counts event for
event (the window bulk-charges ``begin_update``/``end_update`` with the
range count, so the totals match the reference by construction).  The
reference is ``tests/conftest.py``'s ``PassThroughAccessor``, which opens
a window per update.
"""

from __future__ import annotations

from contextlib import nullcontext

import pytest

from tests.conftest import insert_accounts, window_per_update


def _meter_delta(after: dict, before: dict) -> dict:
    return {
        event: (
            counts[0] - before.get(event, (0, 0))[0],
            counts[1] - before.get(event, (0, 0))[1],
        )
        for event, counts in after.items()
        if counts != before.get(event, (0, 0))
    }


def _spy_windows(db):
    """Wrap the manager's window entry points with call counters: the
    accessor's one-call windows (their range counts) and explicit
    one-range windows."""
    counts = {"apply_writes": [], "begin_update": 0}
    mgr = db.manager
    real_batch, real_scalar = mgr.apply_writes, mgr.begin_update

    def apply_writes(txn, writes):
        counts["apply_writes"].append(len(writes))
        return real_batch(txn, writes)

    def begin_update(txn, address, length):
        counts["begin_update"] += 1
        return real_scalar(txn, address, length)

    mgr.apply_writes = apply_writes
    mgr.begin_update = begin_update
    return counts


class TestBatchedDispatch:
    def test_multi_field_update_uses_one_window(self, db_factory):
        db = db_factory(scheme="data_codeword")
        slots = insert_accounts(db, 1)
        counts = _spy_windows(db)
        txn = db.begin()
        db.table("acct").update(
            txn, slots[0], {"balance": 500, "name": "renamed"}
        )
        db.commit(txn)
        # One batched window covering both field ranges, no per-field
        # scalar windows.
        assert counts["apply_writes"] == [2]
        assert counts["begin_update"] == 0

    def test_single_field_update_stays_scalar(self, db_factory):
        db = db_factory(scheme="data_codeword")
        slots = insert_accounts(db, 1)
        counts = _spy_windows(db)
        txn = db.begin()
        db.table("acct").update(txn, slots[0], {"balance": 500})
        db.commit(txn)
        assert counts["apply_writes"] == [1]
        assert counts["begin_update"] == 0


class TestBatchedScalarIdentity:
    """Same values through both paths: identical bytes and totals."""

    def _pair(self, db_factory):
        return (
            db_factory(scheme="data_codeword"),
            db_factory(scheme="data_codeword"),
        )

    def _apply(self, db, values, batched: bool):
        slots = insert_accounts(db, 3)
        txn = db.begin()
        table = db.table("acct")
        with nullcontext() if batched else window_per_update():
            for slot in slots.values():
                table.update(txn, slot, values)
        db.commit(txn)
        return slots

    @pytest.mark.parametrize(
        "values",
        [
            {"balance": 1234, "name": "after"},
            {"balance": 0, "name": ""},
            {"id": 77, "balance": -5, "name": "all-fields"},
        ],
    )
    def test_bytes_identical(self, db_factory, values):
        db_batched, db_scalar = self._pair(db_factory)
        self._apply(db_batched, values, batched=True)
        self._apply(db_scalar, values, batched=False)
        assert (
            db_batched.memory.snapshot_segments()
            == db_scalar.memory.snapshot_segments()
        )

    def test_values_and_audit_identical(self, db_factory):
        db_batched, db_scalar = self._pair(db_factory)
        values = {"balance": 42, "name": "x"}
        slots_b = self._apply(db_batched, values, batched=True)
        slots_s = self._apply(db_scalar, values, batched=False)
        for db, slots in ((db_batched, slots_b), (db_scalar, slots_s)):
            txn = db.begin()
            for slot in slots.values():
                row = db.table("acct").read(txn, slot)
                assert row["balance"] == 42 and row["name"] == b"x"
            db.commit(txn)
            assert db.audit().clean

    def test_callable_values_supported(self, db_factory):
        db = db_factory(scheme="data_codeword")
        slots = insert_accounts(db, 1, balance=100)
        txn = db.begin()
        db.table("acct").update(
            txn,
            slots[0],
            {"balance": lambda cur: cur + 23, "name": "bumped"},
        )
        db.commit(txn)
        check = db.begin()
        row = db.table("acct").read(check, slots[0])
        db.commit(check)
        assert row["balance"] == 123 and row["name"] == b"bumped"

    def test_abort_restores_prior_bytes(self, db_factory):
        db = db_factory(scheme="data_codeword")
        slots = insert_accounts(db, 1, balance=100)
        reference = db.memory.snapshot_segments()
        txn = db.begin()
        db.table("acct").update(
            txn, slots[0], {"balance": 999, "name": "doomed"}
        )
        db.abort(txn)
        assert db.memory.snapshot_segments() == reference
        assert db.audit().clean

    def test_meter_identity_charge_totals(self, db_factory):
        """The batch coalesces *windows*, not charges: every event's
        count and virtual-time total matches the scalar path exactly."""
        db_batched, db_scalar = self._pair(db_factory)
        values = {"balance": 7, "name": "meter"}
        results = {}
        for name, db, batched in (
            ("batched", db_batched, True),
            ("scalar", db_scalar, False),
        ):
            insert_accounts(db, 2)
            windows = _spy_windows(db)
            before = db.meter.snapshot()
            txn = db.begin()
            table = db.table("acct")
            with nullcontext() if batched else window_per_update():
                for slot in (0, 1):
                    table.update(txn, slot, values)
            db.commit(txn)
            results[name] = (_meter_delta(db.meter.snapshot(), before), windows)
        batched_meter, batched_windows = results["batched"]
        scalar_meter, scalar_windows = results["scalar"]
        assert batched_meter == scalar_meter
        # The two sides really took different shapes.
        assert batched_windows == {"apply_writes": [2, 2], "begin_update": 0}
        assert scalar_windows == {"apply_writes": [], "begin_update": 4}
