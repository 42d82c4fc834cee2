"""Shared fixtures: small databases with selectable protection schemes."""

from __future__ import annotations

import sys
from contextlib import contextmanager

import pytest

from repro import Database, DBConfig, Field, FieldType, Schema
from repro.mem.memory import MemoryImage
from repro.storage.table import Table, TxnAccessor
from repro.wal.records import decode_payload, pack_record
from repro.wal.system_log import walk_frames

ACCT_SCHEMA = Schema(
    [
        Field("id", FieldType.INT64),
        Field("balance", FieldType.INT64),
        Field("name", FieldType.CHAR, 16),
    ]
)


def frames_of(*records, first_lsn: int = 0) -> bytes:
    """``records`` packed as one log's frames, with dense LSNs."""
    buf = bytearray()
    for lsn, record in enumerate(records, first_lsn):
        pack_record(record, buf, lsn)
    return bytes(buf)


def records_of(data, stamped: bool = True) -> list:
    """Every frame of ``data`` verified and decoded: ``(lsn, record)``."""
    view = memoryview(data)
    return [
        (lsn, decode_payload(code, view, pos, end))
        for lsn, code, pos, end in walk_frames(view, stamped)
    ]


class PassThroughAccessor(TxnAccessor):
    """Window-per-update reference: every write goes straight through."""

    __slots__ = ()

    def update(self, address: int, new_bytes: bytes) -> None:
        self.db.manager.update(self.txn, address, new_bytes)


@contextmanager
def window_per_update():
    """Table operations inside the block use :class:`PassThroughAccessor`
    -- the reference the write-combining identity tests compare against."""
    real = Table._ctx
    Table._ctx = lambda self, txn: PassThroughAccessor(self.db, txn)
    try:
        yield
    finally:
        Table._ctx = real


def per_store_restore(memory: MemoryImage, address: int, data) -> None:
    """One recovery store made the way it was before batching: locate,
    slice-store, mark its page range dirty.  Written without
    :meth:`MemoryImage.restore_batch` -- the reference batched redo is
    held to."""
    memory._store(address, data)
    memory.dirty_pages.note_dirty_range(address, len(data), memory.page_size)


@contextmanager
def restore_per_store():
    """``MemoryImage.restore`` inside the block is :func:`per_store_restore`."""
    real = MemoryImage.restore
    MemoryImage.restore = per_store_restore
    try:
        yield
    finally:
        MemoryImage.restore = real


@pytest.fixture
def aggressive_thread_switching():
    """Shrink the GIL switch interval so read-modify-write races that
    would hide behind CPython's default 5 ms quantum actually fire."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(previous)


@pytest.fixture
def built_record_codes(monkeypatch) -> list[int]:
    """Wire type code of every record object built from a frame from here
    on, by any reader (frames it only verifies and skips do not appear)."""
    import repro.wal.records as records

    built: list[int] = []

    def spying(code, decode):
        def spy(view, pos, end):
            built.append(code)
            return decode(view, pos, end)

        return spy

    for code, decode in list(records._DECODERS.items()):
        monkeypatch.setitem(records._DECODERS, code, spying(code, decode))
    return built


@pytest.fixture
def db_factory(tmp_path):
    """Create small single-table databases; closes them at teardown.

    Usage::

        db = db_factory(scheme="precheck", region_size=64)
    """
    created: list[Database] = []
    counter = [0]

    def make(
        scheme: str = "baseline",
        capacity: int = 200,
        record_history: bool = True,
        tables: list | None = None,
        index_type: str = "hash",
        **scheme_params,
    ) -> Database:
        counter[0] += 1
        config = DBConfig(
            dir=str(tmp_path / f"db{counter[0]}"),
            scheme=scheme,
            scheme_params=scheme_params,
            record_history=record_history,
        )
        db = Database(config)
        if tables is None:
            db.create_table(
                "acct", ACCT_SCHEMA, capacity, key_field="id", index_type=index_type
            )
        else:
            for name, schema, cap, key in tables:
                db.create_table(name, schema, cap, key_field=key)
        db.start()
        created.append(db)
        return db

    yield make
    for db in created:
        try:
            db.close()
        except Exception:
            pass


@pytest.fixture
def recover():
    """``Database.recover`` that closes every database it recovered at
    teardown (a recovered database owns its ``system.log``)."""
    recovered: list[Database] = []

    def run(config: DBConfig, **kwargs):
        db, report = Database.recover(config, **kwargs)
        recovered.append(db)
        return db, report

    yield run
    for db in recovered:
        try:
            db.close()
        except Exception:
            pass


@pytest.fixture
def db(db_factory):
    """A baseline-scheme single-table database."""
    return db_factory()


def insert_accounts(db: Database, count: int, balance: int = 100) -> dict[int, int]:
    """Insert ``count`` accounts; returns {id: slot}."""
    table = db.table("acct")
    txn = db.begin()
    slots = {
        i: table.insert(txn, {"id": i, "balance": balance, "name": f"acct{i}"})
        for i in range(count)
    }
    db.commit(txn)
    return slots
