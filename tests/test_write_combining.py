"""The write-combining ``TxnAccessor``: one update window per insert.

``TxnAccessor.update`` queues its writes and ``flush`` applies them
through one ``begin_updates`` window, so an insert's bitmap byte,
allocator header, record and index writes stop opening a window each.
That must change the *shape* of the work only.  The identity tests run
one insert / delete / insert_at / update / abort history twice -- once
as shipped, once with the pass-through accessor of ``tests/conftest.py``
that opens a window per update, which is what the storage layer did
before -- and require equal memory, codewords, meter counts, virtual time, stable-log
size and per-operation log records, for every protection scheme and both
index types.  The unit cases pin the overlap-flush rule and the failure
path (an insert that dies after queueing writes applies none of them).
"""

from __future__ import annotations

import os
import struct

import pytest

from repro import Database, DBConfig
from repro.errors import OutOfSpaceError
from repro.storage.table import TxnAccessor
from repro.wal.records import (
    LogicalUndo,
    OpBeginRecord,
    OpCommitRecord,
    UpdateRecord,
)
from tests.conftest import ACCT_SCHEMA, insert_accounts, window_per_update

#: (scheme name, scheme params): the Table 2 rows plus one stacked pipeline.
SCHEMES = [
    ("baseline", {}),
    ("data_cw", {}),
    ("precheck", {"region_size": 64}),
    ("read_logging", {}),
    ("cw_read_logging", {}),
    ("deferred", {}),
    ("hardware", {}),
    ("precheck+read_logging", {"region_size": 64}),
]


def _build(tmp_path, name: str, scheme: str, params: dict) -> Database:
    db = Database(
        DBConfig(dir=str(tmp_path / name), scheme=scheme, scheme_params=dict(params))
    )
    db.create_table("acct", ACCT_SCHEMA, 64, key_field="id")
    db.create_table("ordered", ACCT_SCHEMA, 64, key_field="id", index_type="btree")
    db.start()
    return db


def _row(key: int) -> dict:
    return {"id": key, "balance": 10 * key, "name": f"row{key}"}


def _history(db: Database) -> None:
    """Inserts, deletes, slot reuse, updates, and an abort whose logical
    undo runs delete, ``insert_at`` and ``write_fields``."""
    for name in ("acct", "ordered"):
        table = db.table(name)
        txn = db.begin()
        slots = {key: table.insert(txn, _row(key)) for key in range(20)}
        db.commit(txn)

        txn = db.begin()
        table.update(txn, slots[3], {"balance": lambda cur: cur + 1})
        for key in (2, 9, 10, 17):
            table.delete(txn, slots.pop(key))
        for key in (40, 41):  # reuses freed slots: the hint went down
            slots[key] = table.insert(txn, _row(key))
        table.update(txn, slots[40], {"balance": 7, "name": "both"})
        db.commit(txn)

        txn = db.begin()
        table.delete(txn, slots[5])
        table.update(txn, slots[6], {"balance": -1, "name": "doomed"})
        table.insert(txn, _row(50))
        table.delete(txn, slots[40])
        db.abort(txn)

        txn = db.begin()
        slots[60] = table.insert(txn, _row(60))
        assert table.lookup(txn, 5) == slots[5]
        assert table.lookup(txn, 50) is None
        db.commit(txn)


def _operations(db: Database) -> list[tuple[list, list]]:
    """The stable log cut at operation brackets; per piece, its update
    records and its other records, each in log order."""
    pieces: list[list] = [[]]
    for _lsn, record in db.system_log.scan(strict=True):
        if isinstance(record, OpBeginRecord):
            pieces.append([])
        pieces[-1].append(record)
        if isinstance(record, OpCommitRecord):
            pieces.append([])
    return [
        (
            [r for r in piece if isinstance(r, UpdateRecord)],
            [r for r in piece if not isinstance(r, UpdateRecord)],
        )
        for piece in pieces
    ]


def _observe(db: Database) -> dict:
    maintainer = db.pipeline.maintainer
    state = {
        "segments": db.memory.snapshot_segments(),
        "meter": dict(db.meter.counts),
        "now_ns": db.clock.now_ns,
        "log_bytes": os.path.getsize(db.system_log.path),
        "operations": _operations(db),
    }
    assert db.audit().clean  # also settles deferred codeword deltas
    if maintainer is not None:
        table = maintainer.table
        state["codewords"] = [table.stored(r) for r in range(table.region_count)]
    return state


@pytest.mark.parametrize("scheme,params", SCHEMES, ids=[s for s, _ in SCHEMES])
def test_identical_to_window_per_update(tmp_path, scheme, params):
    combined = _build(tmp_path, "combined", scheme, params)
    _history(combined)
    with window_per_update():
        reference = _build(tmp_path, "reference", scheme, params)
        _history(reference)
    try:
        got, want = _observe(combined), _observe(reference)
        # Updates keep their program order and so do reads; only a read's
        # position relative to a non-overlapping queued write may differ,
        # so each operation logs the same multiset of records.
        assert got.pop("operations") == want.pop("operations")
        assert got == want
    finally:
        combined.close()
        reference.close()


def _spy_windows(db) -> list[int]:
    """Record the range count of every update window the manager opens."""
    opened: list[int] = []
    mgr = db.manager
    real = mgr._open_window

    def open_window(txn, ranges):
        opened.append(len(ranges))
        return real(txn, ranges)

    mgr._open_window = open_window
    return opened


class TestOneWindowPerOperation:
    def test_insert_opens_one_window(self, db_factory):
        db = db_factory(scheme="data_codeword")
        opened = _spy_windows(db)
        insert_accounts(db, 1)
        # bitmap byte, allocator header, record, index header, entry, bucket
        assert opened == [6]

    def test_delete_opens_one_window(self, db_factory):
        db = db_factory(scheme="data_codeword")
        slots = insert_accounts(db, 2)
        opened = _spy_windows(db)
        txn = db.begin()
        db.table("acct").delete(txn, slots[0])
        db.commit(txn)
        assert len(opened) == 1 and opened[0] > 1

    def test_write_fields_opens_one_window(self, db_factory):
        """The logical undo of a two-field update is one two-range window."""
        db = db_factory(scheme="data_codeword")
        slots = insert_accounts(db, 1)
        table = db.table("acct")
        before = db.memory.snapshot_segments()
        txn = db.begin()
        table.update(txn, slots[0], {"balance": 7, "name": "both"})
        opened = _spy_windows(db)
        db.abort(txn)  # runs write_fields with the two saved field images
        assert opened == [2]
        assert db.memory.snapshot_segments() == before
        assert db.audit().clean


class TestOverlapFlush:
    @pytest.fixture
    def in_operation(self, db_factory):
        db = db_factory(scheme="data_codeword")
        slots = insert_accounts(db, 2)
        txn = db.begin()
        db.manager.begin_operation(txn, "test:accessor")
        address = db.table("acct").record_address(slots[0])
        yield db, txn, address
        db.manager.commit_operation(txn, LogicalUndo("noop"))
        db.commit(txn)
        assert db.audit().clean

    def test_updates_wait_for_flush(self, in_operation):
        db, txn, address = in_operation
        before = db.memory.read(address, 8)
        ctx = TxnAccessor(db, txn)
        ctx.update(address, b"\x01" * 4)
        ctx.update(address + 4, b"\x02" * 4)
        assert db.memory.read(address, 8) == before
        opened = _spy_windows(db)
        ctx.flush()
        assert opened == [2] and ctx.pending == []
        assert db.memory.read(address, 8) == b"\x01" * 4 + b"\x02" * 4
        ctx.flush()  # nothing queued: no window
        assert opened == [2]

    def test_read_after_pending_write_sees_it(self, in_operation):
        db, txn, address = in_operation
        ctx = TxnAccessor(db, txn)
        ctx.update(address, b"\xaa" * 8)
        # A read elsewhere leaves the queue alone ...
        ctx.read(address + 8, 8)
        assert len(ctx.pending) == 1
        # ... an overlapping one (by a single byte) applies it first.
        assert ctx.read(address + 7, 2)[0] == 0xAA
        assert ctx.pending == []

    def test_write_after_pending_write_keeps_order(self, in_operation):
        db, txn, address = in_operation
        opened = _spy_windows(db)
        ctx = TxnAccessor(db, txn)
        ctx.update(address, b"\x11" * 8)
        ctx.update(address + 16, b"\x22" * 4)
        ctx.update(address + 4, b"\x33" * 8)  # overlaps the first range
        assert opened == [2] and ctx.pending == [(address + 4, b"\x33" * 8)]
        ctx.flush()
        assert opened == [2, 1]
        assert db.memory.read(address, 12) == b"\x11" * 4 + b"\x33" * 8


def test_insert_failing_after_queueing_applies_nothing(db_factory):
    """Index full: the allocator's and the record's writes are queued when
    the index refuses -- ``abort_operation`` must find nothing to undo."""
    db = db_factory(scheme="data_codeword", capacity=8)
    table = db.table("acct")
    insert_accounts(db, 2)
    # Declare the entry pool used up, through the prescribed interface.
    index = table.index
    txn = db.begin()
    db.manager.begin_operation(txn, "test:fill-index")
    header = struct.pack("<IIII", index.bucket_count, index.entry_capacity, 0,
                         index.entry_capacity)
    db.manager.update(txn, index.base, header)
    db.manager.commit_operation(txn, LogicalUndo("noop"))
    db.commit(txn)

    before = db.memory.snapshot_segments()
    opened = _spy_windows(db)
    txn = db.begin()
    with pytest.raises(OutOfSpaceError):
        table.insert(txn, {"id": 99, "balance": 1, "name": "nope"})
    assert opened == []
    assert db.memory.snapshot_segments() == before
    assert txn.pending_update is None and not txn.op_stack
    assert not txn.undo_log.entries
    assert not db.locks.holds(txn.txn_id, "acct:allocator")
    assert table.row_count(txn) == 2
    db.commit(txn)
    assert db.audit().clean
