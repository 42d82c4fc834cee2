"""The session: the one interpreter of the serve protocol.

A session owns at most one open transaction at a time and serializes its
own requests (an internal lock -- a client that shares a session between
threads gets in-order execution, not interleaving).  It validates every
request against :mod:`repro.serve.protocol` -- known op, required fields
(``DATA_OPS``), transaction state -- and then drives a
**transaction context**: ``begin() / apply(op, table, *args) / commit()
/ abort()`` plus ``in_txn``, where ``(op, table, *args)`` is the data-op
tuple built from the request's ``DATA_OPS`` fields.  There are exactly
two contexts: :class:`LocalContext` below (one
:class:`~repro.storage.database.Database`)
and :class:`~repro.shard.router.ShardRouter` (per-shard branches, 2PC on
commit); the session is the same over either, so both fronts answer a
malformed request, a state violation or a closed session identically.

Failure of one request is contained to the session: any
:class:`~repro.errors.ReproError` -- a lock conflict from another
session's writer, a quarantined-region read, a transaction-state
violation -- rolls back *this* session's open transaction and is reported
in the response; the server, the image, and every other session keep
running.  Only :class:`~repro.errors.SimulatedCrash` propagates: an armed
crash point means the whole simulated process dies, which no session
survives.
"""

from __future__ import annotations

import threading
from functools import partial
from operator import itemgetter
from typing import TYPE_CHECKING

from repro.errors import ReproError, ServeError, SimulatedCrash
from repro.serve.protocol import DATA_OPS, OPS, Request, Response

if TYPE_CHECKING:  # pragma: no cover
    from repro.storage.database import Database
    from repro.txn.transaction import Transaction

#: Op -> the getter of a data op's tuple ``(op, table, *args)`` off a request, or None.
_DATA_OP_OF = dict.fromkeys(OPS) | {
    op: itemgetter(0, *map(Request._fields.index, f)) for op, f in DATA_OPS.items()
}


class LocalContext:
    """The transaction context over one :class:`Database`."""

    def __init__(self, db: "Database") -> None:
        self.db = db
        self._clear()

    def begin(self) -> int:
        self.txn = txn = self.db.begin()
        self.in_txn = True
        self.apply = partial(self.db.apply, txn)
        return txn.txn_id

    def commit(self) -> int:
        # Cleared only on success: a failed commit leaves the transaction
        # for the session's containment to roll back.
        txn = self.txn
        self.db.commit(txn)
        self._clear()
        return txn.txn_id

    def abort(self) -> int:
        txn = self.txn
        self._clear()
        self.db.abort(txn)
        return txn.txn_id

    def _clear(self) -> None:
        self.txn: "Transaction | None" = None
        self.in_txn = False
        self.apply = partial(self.db.apply, None)


class Session:
    """One client's view of the database."""

    def __init__(self, db, session_id: int, context=None) -> None:
        self.session_id = session_id
        self.context = LocalContext(db) if context is None else context
        self.closed = False
        self._serial = threading.Lock()
        self.requests_served = 0
        self.errors_contained = 0
        self.txns_committed = 0
        self.txns_aborted = 0

    @property
    def in_txn(self) -> bool:
        """Whether this session has an open transaction."""
        return self.context.in_txn

    # ----------------------------------------------------------- execute

    def execute(self, request: Request) -> Response:
        """Run one request; never raises for contained errors."""
        with self._serial:
            if self.closed:
                return self._error(request, ServeError("session is closed"))
            try:
                value = self._dispatch(request)
            except SimulatedCrash:
                raise
            except ReproError as exc:
                return self._contain(request, exc)
            self.requests_served += 1
            return Response(True, request.op, request.request_id, value)

    def _dispatch(self, request: Request):
        op = request.op
        try:
            data_op_of = _DATA_OP_OF[op]
        except (KeyError, TypeError):  # TypeError: an unhashable op
            raise ServeError(f"unknown op {op!r}") from None
        context = self.context
        if data_op_of is None and op == "begin":
            if context.in_txn:
                raise ServeError(
                    f"session {self.session_id} already has an open transaction"
                )
            return context.begin()
        if not context.in_txn:
            raise ServeError(
                f"session {self.session_id} has no open transaction; "
                "send 'begin' first"
            )
        if data_op_of is None:
            return self._end(commit=op == "commit")
        data_op = data_op_of(request)
        if None in data_op:
            missing = DATA_OPS[op][data_op.index(None) - 1]
            raise ServeError(f"op {op!r} needs {missing!r}")
        return context.apply(*data_op)

    def _end(self, commit: bool) -> int:
        """Finish the open transaction; every commit and rollback on this
        session passes through here."""
        if commit:
            value = self.context.commit()
            self.txns_committed += 1
        else:
            value = self.context.abort()
            self.txns_aborted += 1
        return value

    # ------------------------------------------------------- containment

    def _contain(self, request: Request, exc: ReproError) -> Response:
        """Roll back this session's open transaction, and only it."""
        self._rollback()
        self.errors_contained += 1
        return self._error(request, exc)

    def _rollback(self) -> None:
        if not self.in_txn:
            return
        try:
            self._end(commit=False)
        except SimulatedCrash:
            raise  # a crash point fired in the abort: the process dies
        except ReproError:
            # The abort itself failed (e.g. the database crashed under
            # us); the context dropped the transaction -- recovery owns it.
            pass

    def close(self) -> None:
        """End the session; an open transaction rolls back."""
        with self._serial:
            if self.closed:
                return
            self.closed = True
            self._rollback()

    # ---------------------------------------------------------- helpers

    def _error(self, request: Request, exc: Exception) -> Response:
        return Response(False, request.op, request.request_id, None, exc.with_traceback(None))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self.closed else ("in-txn" if self.in_txn else "idle")
        return f"{type(self).__name__}(id={self.session_id}, {state})"
