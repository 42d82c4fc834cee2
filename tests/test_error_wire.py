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

from repro import errors
from repro.errors import ReproError
from repro.shard.shard import ShardCrashed

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
