"""Shared fixtures: small databases with selectable protection schemes."""

from __future__ import annotations

import sys
from contextlib import contextmanager

import pytest

from repro import Database, DBConfig, Field, FieldType, Schema
from repro.storage.table import Table, TxnAccessor

ACCT_SCHEMA = Schema(
    [
        Field("id", FieldType.INT64),
        Field("balance", FieldType.INT64),
        Field("name", FieldType.CHAR, 16),
    ]
)


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
    """Wire type code of every record a stable-log scan constructs from
    here on (frames it only verifies and skips do not appear)."""
    import repro.wal.system_log as system_log

    built: list[int] = []
    real = system_log.decode_payload

    def spy(code, view, pos, end):
        built.append(code)
        return real(code, view, pos, end)

    monkeypatch.setattr(system_log, "decode_payload", spy)
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
