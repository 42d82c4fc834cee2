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
==========  ============================================  ==============

``query`` is the TPC-B style point read: an index lookup followed by a
record read, both inside the session's open transaction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Data op -> the request fields it requires.  The one table the session
#: validates against and the sharded context routes by: an op that names
#: a ``slot`` goes to the shard tagged in it, a ``key`` to the key's
#: shard, and a bare row (``insert``) to the row's.
DATA_OPS = {
    "insert": ("table", "values"),
    "read": ("table", "slot"),
    "update": ("table", "slot", "values"),
    "delete": ("table", "slot"),
    "lookup": ("table", "key"),
    "query": ("table", "key"),
}

#: Every op the session layer interprets.
OPS = ("begin", "commit", "abort", *DATA_OPS)

#: Data ops that answer with a row; the others answer with a slot id.
ROW_OPS = frozenset({"read", "query"})

#: Ops a read-only session (an unpromoted replica) rejects.
MUTATING_OPS = frozenset({"insert", "update", "delete"})


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

    ``ok=False`` carries the error class name (``error``) and message
    (``detail``); the session's transaction -- if one was open -- has
    already been rolled back (except lock conflicts at the sharded
    front-end, which keep the transaction open for retry), so the client
    may immediately retry.  ``retryable`` mirrors the error taxonomy's
    contract (see ``docs/errors.md``): ``True`` means retrying the same
    work cannot double-apply anything and the condition is transient --
    back off and resubmit; ``False`` means a retry needs new information
    (fix the request, or check outcome first).
    """

    ok: bool
    op: str
    request_id: int = 0
    value: object = None
    error: str | None = None
    detail: str = ""
    retryable: bool = False
