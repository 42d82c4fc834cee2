"""The session: the one interpreter of the serve protocol.

A session owns at most one open transaction at a time and serializes its
own requests (an internal lock -- a client that shares a session between
threads gets in-order execution, not interleaving).  It validates every
request against :mod:`repro.serve.protocol` -- known op, required fields
(``DATA_OPS``), transaction state, read-only -- and then drives a
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
from operator import attrgetter
from typing import TYPE_CHECKING

from repro.errors import ReproError, ServeError, SimulatedCrash
from repro.serve.protocol import DATA_OPS, MUTATING_OPS, OPS, Request, Response

if TYPE_CHECKING:  # pragma: no cover
    from repro.storage.database import Database
    from repro.txn.transaction import Transaction

#: Data op -> a getter of its request fields as a tuple, in data-op order.
_DATA_FIELDS = {op: attrgetter(*fields) for op, fields in DATA_OPS.items()}


class LocalContext:
    """The transaction context over one :class:`Database`."""

    def __init__(self, db: "Database") -> None:
        self.db = db
        self.txn: "Transaction | None" = None

    @property
    def in_txn(self) -> bool:
        return self.txn is not None

    def begin(self) -> int:
        self.txn = self.db.begin()
        return self.txn.txn_id

    def apply(self, op: str, table: str, *args):
        return self.db.apply(self.txn, op, table, *args)

    def commit(self) -> int:
        # Cleared only on success: a failed commit leaves the transaction
        # for the session's containment to roll back.
        txn = self.txn
        self.db.commit(txn)
        self.txn = None
        return txn.txn_id

    def abort(self) -> int:
        txn, self.txn = self.txn, None
        self.db.abort(txn)
        return txn.txn_id


class Session:
    """One client's view of the database."""

    def __init__(
        self, db, session_id: int, read_only: bool = False, context=None
    ) -> None:
        self.session_id = session_id
        #: Read-only sessions (a hot standby serving reads before
        #: promotion) reject every mutating op with a contained error.
        self.read_only = read_only
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
                return self._ok(request, self._dispatch(request))
            except SimulatedCrash:
                raise
            except ReproError as exc:
                return self._contain(request, exc)

    def _dispatch(self, request: Request):
        op = request.op
        if op not in OPS:
            raise ServeError(f"unknown op {op!r}")
        if self.read_only and op in MUTATING_OPS:
            raise ServeError(
                f"op {op!r} rejected: session {self.session_id} is "
                "read-only (replica not promoted)"
            )
        if op == "begin":
            if self.in_txn:
                raise ServeError(
                    f"session {self.session_id} already has an open transaction"
                )
            return self.context.begin()
        if not self.in_txn:
            raise ServeError(
                f"session {self.session_id} has no open transaction; "
                "send 'begin' first"
            )
        get_args = _DATA_FIELDS.get(op)
        if get_args is not None:
            args = get_args(request)
            if None in args:
                missing = DATA_OPS[op][args.index(None)]
                raise ServeError(f"op {op!r} needs {missing!r}")
            return self.context.apply(op, *args)
        return self._end(commit=op == "commit")

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

    def _ok(self, request: Request, value) -> Response:
        self.requests_served += 1
        return Response(
            ok=True, op=request.op, request_id=request.request_id, value=value
        )

    def _error(self, request: Request, exc: Exception) -> Response:
        return Response(
            ok=False,
            op=request.op,
            request_id=request.request_id,
            exc=exc.with_traceback(None),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self.closed else ("in-txn" if self.in_txn else "idle")
        return f"{type(self).__name__}(id={self.session_id}, {state})"
