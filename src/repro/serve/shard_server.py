"""The sharded serving front-end: the same session over a shard router.

:class:`ShardServer` puts sessions whose transaction context is a
:class:`~repro.shard.router.ShardRouter` behind the same
bounded-admission :class:`~repro.serve.server.Server` that fronts a
single database.  The protocol is interpreted in one place --
:class:`~repro.serve.session.Session` -- so both fronts validate, count
and contain identically; requests pass the same admission gate and run
on their client's thread (``workers`` executing, ``queue_depth`` waiting,
backpressure beyond that), and contained errors carry the taxonomy's
``retryable`` bit so a remote client knows whether to back off and
resubmit.  :class:`ShardSession` adds only this front's error policy
(below).  Under a :class:`~repro.shard.supervisor.ShardSupervisor` this
is degraded-mode serving end to end: a request touching a recovering
shard gets a fail-fast retryable ``ShardUnavailableError`` response
while sessions on surviving shards proceed untouched.

The front-end also hosts the **cross-shard deadlock detector**.  Locks
in this system fail fast (a conflict raises
:class:`~repro.errors.LockError` immediately; no thread ever blocks
inside a shard), so a "deadlock" here is a *retry livelock*: two
sessions each hold a key the other needs and both retry forever.  Per
conflict the session reports a wait-for edge -- waiter session ->
session holding the conflicting shard-local transaction -- into a
:class:`~repro.shard.supervisor.WaitForGraph`; a cycle convicts the
**youngest** member (largest transaction sequence number), whose open
branches are rolled back on every shard and who gets a retryable
:class:`~repro.errors.DeadlockError`, while the older sessions in the
cycle proceed.  Two deliberate consequences of fail-fast locks:

* a session does **not** roll back on a lock conflict -- its other
  branches stay open (that is what lets a cycle exist to be detected),
  and the conflict response is retryable so the client resubmits just
  the failed op;
* a convicted session that is not the current waiter learns its fate at
  its *next* request (nobody is blocked, so there is no thread to wake).
"""

from __future__ import annotations

import threading

from repro.errors import (
    DeadlockError,
    LockError,
    ReproError,
    ServeError,
    SimulatedCrash,
)
from repro.serve.protocol import Request, Response
from repro.serve.server import Server
from repro.serve.session import Session
from repro.shard.router import ShardedDatabase, ShardRouter
from repro.shard.shard import ShardCrashed
from repro.shard.supervisor import WaitForGraph


class ShardSession(Session):
    """One client session on the sharded database.

    The same :class:`Session` -- validation, state checks, counters,
    containment -- over a :class:`ShardRouter` context, plus the three
    policy differences of this front: a ``LockError`` keeps the
    transaction open and records a wait-for edge, a detector conviction
    is served at the next request, and :class:`ShardCrashed` propagates.
    """

    def __init__(
        self, server: "ShardServer", db: ShardedDatabase, session_id: int
    ) -> None:
        super().__init__(
            db, session_id, context=ShardRouter(db, self._on_branch_open)
        )
        self.server = server
        #: Global age order for youngest-victim selection, assigned at
        #: ``begin`` (shard-local txn ids collide across shards).
        self.txn_seq = 0
        #: Set by the detector when this session is convicted while not
        #: the current waiter; consumed at the next request.  Stamped
        #: ``(cycle, txn_seq)`` with the convicted transaction's seq so
        #: a conviction that races this session's commit cannot abort a
        #: *later* transaction (the seq no longer matches).
        self._victim_cycle: tuple[tuple[int, ...], int] | None = None
        self._waiting = False
        self.deadlock_aborts = 0

    # ----------------------------------------------------------- execute

    def execute(self, request: Request) -> Response:
        """Run one request; never raises for contained errors."""
        with self._serial:
            if self.closed:
                return self._error(request, ServeError("session is closed"))
            pending = self._consume_conviction()
            if pending is not None:
                return self._error(request, pending)
            try:
                value = self._dispatch(request)
            except SimulatedCrash:
                raise
            except ShardCrashed:
                raise  # unsupervised process mode: the caller recovers
            except LockError as exc:
                return self._on_lock_conflict(request, exc)
            except ReproError as exc:
                return self._contain(request, exc)
            if request.op == "begin":
                self.txn_seq = self.server._next_txn_seq()
            if self._waiting:
                self._waiting = False
                self.server._graph_progress(self.session_id)
            self.requests_served += 1
            return Response(True, request.op, request.request_id, value)

    def _consume_conviction(self) -> DeadlockError | None:
        """The detector convicted us since our last request; abort now."""
        pending = self._victim_cycle
        if pending is None:
            return None
        self._victim_cycle = None
        cycle, seq = pending
        if not self.in_txn or seq != self.txn_seq:
            # The convicted transaction already ended (we committed or
            # rolled back concurrently with the detection, breaking the
            # cycle); a transaction begun since is innocent.
            return None
        return self._deadlock_abort(cycle)

    def _on_lock_conflict(self, request: Request, exc: LockError) -> Response:
        """A shard refused a lock.  Crucially we do NOT roll back: our
        other branches keep their locks (the precondition for a cycle to
        exist), and the client retries just this op.  The conflict is
        reported as a wait-for edge; if that closes a cycle with us as
        the youngest member, we abort instead."""
        cycle = None
        if exc.holder_txn_id is not None:
            self._waiting = True
            cycle = self.server._on_wait(
                self.session_id, self.context.last_shard, exc.holder_txn_id
            )
        if cycle is not None:
            return self._error(request, self._deadlock_abort(cycle))
        self.errors_contained += 1
        return self._error(request, exc)

    def _deadlock_abort(self, cycle: tuple[int, ...]) -> DeadlockError:
        self._rollback()
        self.deadlock_aborts += 1
        self.errors_contained += 1
        return DeadlockError(self.session_id, cycle)

    # ------------------------------------------------ detector bookkeeping

    def _on_branch_open(self, shard_id: int, txn_id: int) -> None:
        self.server._register_holder(shard_id, txn_id, self.session_id)

    def _end(self, commit: bool) -> int:
        branches = list(self.context.open_txns.items())
        try:
            return super()._end(commit)
        finally:
            # Locks are gone either way (commit, abort, or 2PC failure
            # fan-out); stop advertising the branches.
            self._waiting = False
            self._victim_cycle = None
            self.server._release(self.session_id, branches)


class ShardServer(Server):
    """Bounded-admission serving over a :class:`ShardedDatabase`.

    ``threaded`` says whether several client threads will submit; the
    admission gate is the same either way.
    """

    def __init__(
        self,
        db: ShardedDatabase,
        *,
        queue_depth: int = 64,
        workers: int = 4,
        threaded: bool = False,
    ) -> None:
        super().__init__(
            db, queue_depth=queue_depth, workers=workers, threaded=threaded
        )
        self.graph = WaitForGraph()
        self._graph_lock = threading.Lock()
        #: (shard id, shard-local txn id) -> holding session id.
        self._holders: dict[tuple[int, int], int] = {}
        self._txn_seq = 0
        self.deadlocks_broken = 0

    def _make_session(self, session_id: int) -> ShardSession:
        return ShardSession(self, self.db, session_id)

    def _next_txn_seq(self) -> int:
        with self._graph_lock:
            self._txn_seq += 1
            return self._txn_seq

    # -------------------------------------------------- wait-for graph

    def _register_holder(self, shard_id: int, txn_id: int, session_id: int) -> None:
        with self._graph_lock:
            self._holders[(shard_id, txn_id)] = session_id

    def _release(self, session_id: int, branches: list[tuple[int, int]]) -> None:
        """A session's transaction ended: its branches stop holding, its
        waits are stale, and nobody can be waiting on it any more."""
        with self._graph_lock:
            for branch in branches:
                self._holders.pop(branch, None)
            self.graph.clear_waiter(session_id)
            self.graph.clear_holder(session_id)

    def _graph_progress(self, session_id: int) -> None:
        with self._graph_lock:
            self.graph.clear_waiter(session_id)

    def _on_wait(
        self, waiter_id: int, shard_id: int, holder_txn: int
    ) -> tuple[int, ...] | None:
        """Record one conflict edge; detect and break any cycle.

        Returns the cycle when the *waiter itself* is convicted (the
        caller aborts immediately); a convicted third party is flagged
        and aborts at its next request.
        """
        with self._graph_lock:
            holder_id = self._holders.get((shard_id, holder_txn))
            if holder_id is None or holder_id == waiter_id:
                return None
            self.graph.add(waiter_id, holder_id)
            cycle = self.graph.cycle_from(waiter_id)
            if cycle is None:
                return None
            victim = max(
                cycle, key=lambda sid: self._session_age(sid)
            )
            self.deadlocks_broken += 1
            # The victim will abort; drop its waits now so the cycle is
            # broken in the graph (its holds clear when it rolls back).
            self.graph.clear_waiter(victim)
            if victim == waiter_id:
                return cycle
            victim_session = self._sessions.get(victim)
            if victim_session is not None:
                # Stamp with the convicted transaction's seq: the
                # victim's branches are still in the graph, so its
                # release (which needs this lock) has not run and
                # txn_seq is still the convicted transaction's.  If the
                # victim commits before its next request, the stale seq
                # makes _consume_conviction a no-op instead of
                # aborting an unrelated later transaction.
                victim_session._victim_cycle = (cycle, victim_session.txn_seq)
            return None

    def _session_age(self, session_id: int) -> int:
        session = self._sessions.get(session_id)
        return session.txn_seq if session is not None else -1


__all__ = ["ShardServer", "ShardSession"]
