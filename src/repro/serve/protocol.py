"""Request/response protocol between serving clients and sessions.

Requests are plain data (no database objects cross the boundary), so a
client can be a thread today and a socket tomorrow without changing the
session layer.  One request maps to one session-layer action:

==========  ============================================  ==============
op          arguments                                     result value
==========  ============================================  ==============
begin                                                     txn id
commit                                                    txn id
abort                                                     txn id
insert      table, values                                 slot id
read        table, slot                                   row dict
update      table, slot, values                           slot id
delete      table, slot                                   slot id
lookup      table, key                                    slot id or None
query       table, key                                    row dict or None
add         table, key, values                            slot id
==========  ============================================  ==============

``query`` is the TPC-B point read (index lookup + record read), ``add``
the TPC-B update (``values`` maps field -> integer delta).  Below the
request a data op is one tuple everywhere, ``(op, table, *args)`` with
``args`` its ``DATA_OPS`` fields after ``table`` in order, run by
:meth:`Database.apply <repro.storage.database.Database.apply>`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Data op -> the request fields it requires, in data-op tuple order.
#: The one table the session validates against and the sharded router
#: routes by: the role of the field after ``table`` (slot, key or row)
#: picks the shard.
DATA_OPS = {
    "insert": ("table", "values"),
    "read": ("table", "slot"),
    "update": ("table", "slot", "values"),
    "delete": ("table", "slot"),
    "lookup": ("table", "key"),
    "query": ("table", "key"),
    "add": ("table", "key", "values"),
}

#: Every op the session layer interprets.
OPS = ("begin", "commit", "abort", *DATA_OPS)

#: Data ops that answer with a row; the others answer with a slot id.
ROW_OPS = frozenset({"read", "query"})

#: Ops a read-only session (an unpromoted replica) rejects.
MUTATING_OPS = frozenset({"insert", "update", "delete", "add"})


@dataclass(frozen=True)
class Request:
    """One client operation."""

    op: str
    table: str | None = None
    slot: int | None = None
    key: int | None = None
    values: dict | None = field(default=None)
    #: Client-chosen correlation id, echoed in the response.
    request_id: int = 0


@dataclass(frozen=True)
class Response:
    """Outcome of one request.

    ``ok=False`` carries the contained exception itself (``exc``, its
    traceback dropped; it pickles with its class and attributes, as on
    the shard worker pipe), and ``error`` (class name) / ``detail``
    (message) / ``retryable`` are read off it.  The session's
    transaction -- if one was open -- has already been rolled back
    (except lock conflicts at the sharded front-end, which keep the
    transaction open for retry), so the client may immediately retry.
    ``retryable`` mirrors the error taxonomy's contract (see
    ``docs/errors.md``): ``True`` means retrying the same work cannot
    double-apply anything and the condition is transient -- back off and
    resubmit; ``False`` means a retry needs new information (fix the
    request, or check outcome first).
    """

    ok: bool
    op: str
    request_id: int = 0
    value: object = None
    exc: Exception | None = None

    @property
    def error(self) -> str | None:
        return None if self.exc is None else type(self.exc).__name__

    @property
    def detail(self) -> str:
        return "" if self.exc is None else str(self.exc)

    @property
    def retryable(self) -> bool:
        return bool(getattr(self.exc, "retryable", False))
