"""The server: an admission gate in front of the sessions.

``server.submit(session, request)`` runs the request **on the caller's
own thread** and returns its :class:`~repro.serve.protocol.Response` --
the shape the paper assumes, where the application calls the storage
manager inside its own address space.  What the server adds is the
admission gate every submit passes through:

* at most ``workers`` requests execute at once (a concurrency bound,
  not a thread count: the server owns no threads);
* at most ``queue_depth`` more are admitted and wait their turn, oldest
  first -- a finishing request hands its slot to the oldest waiter;
* anything beyond that raises :class:`~repro.errors.BackpressureError`
  to the submitting client: load is shed at admission, never buffered
  without bound.

A single-threaded caller always finds a free slot and never waits.

The server adds no locking of its own around database state: the lock
manager, latches, system-log mutex and group-commit mutex already make the
storage layers safe for concurrent sessions; the server only guards its
own session registry and the gate.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import TYPE_CHECKING

from repro.errors import BackpressureError, ServeError
from repro.serve.protocol import Request, Response
from repro.serve.session import Session

if TYPE_CHECKING:  # pragma: no cover
    from repro.storage.database import Database


class Server:
    """Multiplexes client sessions over one database.

    ``threaded`` is accepted for callers that state their mode; the gate
    behaves the same either way.
    """

    def __init__(
        self,
        db: "Database",
        *,
        queue_depth: int = 64,
        workers: int = 4,
        threaded: bool | None = None,
    ) -> None:
        if queue_depth < 1:
            raise ServeError(f"queue_depth must be >= 1: {queue_depth}")
        if workers < 1:
            raise ServeError(f"workers must be >= 1: {workers}")
        self.db = db
        self.workers = workers
        self.queue_depth = queue_depth
        self._sessions: dict[int, Session] = {}
        self._next_session_id = 1
        #: Guards the session registry and every field of the gate.
        self._guard = threading.Lock()
        self._closed = False
        #: Executor slots not taken: ``workers`` less the requests executing.
        self._free = workers
        #: One held lock per admitted-but-waiting request, oldest first;
        #: releasing it passes an executor slot to that request.
        self._waiters: deque[threading.Lock] = deque()
        self.requests_admitted = 0
        self.backpressure_rejections = 0

    # ---------------------------------------------------------- sessions

    def open_session(self) -> Session:
        with self._guard:
            if self._closed:
                raise ServeError("server is closed")
            session = self._make_session(self._next_session_id)
            self._next_session_id += 1
            self._sessions[session.session_id] = session
            return session

    def _make_session(self, session_id: int) -> Session:
        """Session factory, overridden by fronts with richer sessions
        (the sharded front-end builds router-backed sessions here)."""
        return Session(self.db, session_id)

    def close_session(self, session: Session) -> None:
        session.close()
        with self._guard:
            self._sessions.pop(session.session_id, None)

    # ------------------------------------------------------------ submit

    def submit(self, session: Session, request: Request) -> Response:
        """Execute one request on a session; returns its response.

        Contained failures come back as ``ok=False`` responses.  Only a
        refused admission (:class:`BackpressureError`, or
        :class:`ServeError` once the server is closed) and simulated
        process death raise.  An admitted request always runs, even if
        :meth:`close` is called while it waits.
        """
        with self._guard:
            if self._closed:
                raise ServeError("server is closed")
            if self._free:
                self._free -= 1
                turn = None
            elif len(self._waiters) < self.queue_depth:
                turn = threading.Lock()
                turn.acquire()
                self._waiters.append(turn)
            else:
                self.backpressure_rejections += 1
                raise BackpressureError(
                    f"admission queue full ({self.queue_depth} requests pending); "
                    "back off and retry"
                )
            self.requests_admitted += 1
        if turn is not None:
            try:
                turn.acquire()  # parked until a finishing request hands over its slot
            except BaseException:
                # Interrupted while parked: leave the queue, or pass on a
                # slot that was already handed over, so it is not lost.
                with self._guard:
                    if turn in self._waiters:
                        self._waiters.remove(turn)
                    elif self._waiters:
                        self._waiters.popleft().release()
                    else:
                        self._free += 1
                raise
        try:
            return session.execute(request)
        finally:
            with self._guard:
                if self._waiters:
                    self._waiters.popleft().release()
                else:
                    self._free += 1

    @property
    def executing(self) -> int:
        """Requests inside ``session.execute`` right now (<= ``workers``)."""
        with self._guard:
            return self.workers - self._free

    @property
    def waiting(self) -> int:
        """Requests admitted but waiting for a slot (<= ``queue_depth``)."""
        with self._guard:
            return len(self._waiters)

    # ------------------------------------------------------------- close

    def close(self) -> None:
        """Refuse new requests and close every session (open txns roll back).

        Requests already admitted still run; closing a session waits for
        the one executing on it.
        """
        with self._guard:
            if self._closed:
                return
            self._closed = True
            sessions = list(self._sessions.values())
            self._sessions.clear()
        for session in sessions:
            session.close()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Server(sessions={len(self._sessions)}, executing={self.workers - self._free}, "
            f"waiting={len(self._waiters)}, admitted={self.requests_admitted})"
        )
