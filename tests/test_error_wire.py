"""Errors cross the shard worker pipe as objects, not strings.

``ReproError.__reduce__`` rebuilds an error from ``(type, args,
__dict__)``, so every subclass -- including the ones whose constructors
take structured arguments and format their own message -- survives
``pickle`` with its class, message, ``retryable`` bit and attributes.
``tests/test_shard_router.py::TestProcessMode`` pins what that buys on
the real pipe: structured fields the parent acts on (``region_ids``,
``holder_txn_id``) arrive intact.
"""

from __future__ import annotations

import inspect
import pickle

import pytest

from repro import Database, DBConfig, errors
from repro.errors import LockError, QuarantinedRegionError, ReproError
from repro.faults.injector import FaultInjector
from repro.serve import Request, Server, ShardServer
from repro.shard import ShardedConfig, ShardedDatabase
from repro.shard.shard import ShardCrashed

from tests.conftest import ACCT_SCHEMA, insert_accounts

#: Constructor arguments for the classes that do not take a bare message.
STRUCTURED = {
    "ProtectionFault": (0x1000, 8, 3),
    "CorruptionDetected": ([1, 2], "precheck"),
    "AuditFailure": ([4], 77),
    "QuarantinedRegionError": ([0, 5], 64, 16),
    "SimulatedCrash": ("wal.flush", 2),
    "LockError": ("key 7 held by transaction 12", 12),
    "TransactionAborted": (9, "deadlock"),
    "DivergenceDetected": ([3], 500, "replica"),
    "PromotionError": ("audit failed", {"corrupt": [1]}),
    "TwoPhaseCommitError": ("decided", "g2.5", True, (1,)),
    "ShardUnavailableError": (1, "recovering", "pipe closed"),
    "ShardTimeoutError": (1, 0.25),
    "PartialDrainError": ([["row"]], {1: 3}),
    "DeadlockError": (4, (4, 2)),
    "ShardCrashed": (1, "wal.flush", 2),
}

ERROR_CLASSES = sorted(
    (
        cls
        for cls in vars(errors).values()
        if inspect.isclass(cls) and issubclass(cls, ReproError)
    ),
    key=lambda cls: cls.__name__,
) + [ShardCrashed]


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_every_error_survives_pickle(cls):
    exc = cls(*STRUCTURED.get(cls.__name__, ("something broke",)))
    copy = pickle.loads(pickle.dumps(exc))
    assert type(copy) is cls
    assert str(copy) == str(exc)
    assert copy.args == exc.args
    assert copy.retryable == exc.retryable
    assert vars(copy) == vars(exc)


# ------------------------------------------------ error responses
#
# A failed request answers with the contained exception itself
# (``Response.exc``); ``error`` / ``detail`` / ``retryable`` are read off
# it.  A pickled response -- what a remote client would receive -- keeps
# the structured fields a client acts on.


def test_sharded_lock_conflict_response_keeps_the_holder(tmp_path):
    config = ShardedConfig(
        dir=str(tmp_path / "sharded"), n_shards=2, branches=2, scheme="data_codeword"
    )
    db = ShardedDatabase.create(config, [("acct", ACCT_SCHEMA, 64, "id")])
    db.submit_txn([("insert", "acct", {"id": 0, "balance": 1, "name": "a"})])
    update = Request("update", table="acct", slot=0, values={"balance": 2})
    with ShardServer(db) as server:
        holder, waiter = server.open_session(), server.open_session()
        for session in (holder, waiter):
            assert server.submit(session, Request("begin")).ok
        assert server.submit(holder, update).ok
        denied = pickle.loads(pickle.dumps(server.submit(waiter, update)))
        assert (denied.ok, denied.error, denied.retryable) == (False, "LockError", True)
        assert isinstance(denied.exc, LockError)
        assert denied.exc.holder_txn_id == holder.context.open_txns[0]
        assert denied.detail == str(denied.exc)
    db.close()


def test_local_quarantined_read_response_keeps_the_regions(tmp_path):
    db = Database(
        DBConfig(
            dir=str(tmp_path / "local"), scheme="data_codeword",
            scheme_params={"region_size": 64}, quarantine=True,
        )
    )
    db.create_table("acct", ACCT_SCHEMA, 64, key_field="id")
    db.start()
    slots = insert_accounts(db, 4)
    FaultInjector(db, seed=7).wild_write(db.table("acct").record_address(slots[0]), 8)
    db.audit()
    quarantined = set(db.quarantined_regions())
    assert quarantined
    with Server(db) as server:
        session = server.open_session()
        assert server.submit(session, Request("begin")).ok
        response = server.submit(session, Request("read", table="acct", slot=slots[0]))
    assert response.exc.__traceback__ is None  # contained: no frames kept alive
    denied = pickle.loads(pickle.dumps(response))
    assert (denied.ok, denied.error, denied.retryable) == (
        False, "QuarantinedRegionError", False,
    )
    assert isinstance(denied.exc, QuarantinedRegionError)
    assert denied.exc.region_ids and set(denied.exc.region_ids) <= quarantined
    db.close()
