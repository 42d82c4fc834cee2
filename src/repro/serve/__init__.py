"""Serving front-end: concurrent sessions over one protected image.

The paper's performance study drives the storage manager from a single
benchmark loop.  This package adds the missing runtime half: a
:class:`~repro.serve.server.Server` multiplexes N client sessions over
the same lock/latch managers, with per-session transaction state, a
request/response operation protocol, bounded admission (a request runs
on its client's thread once the gate lets it in; beyond ``workers``
executing and ``queue_depth`` waiting it is refused with backpressure),
and per-session error containment -- one session hitting a quarantined
region or a lock conflict fails alone, it does not take the server down.

:class:`~repro.serve.shard_server.ShardServer` is the sharded variant:
the same protocol and admission control over a
:class:`~repro.shard.router.ShardedDatabase`, plus cross-shard deadlock
detection (youngest-victim abort) and, under a shard supervisor,
degraded-mode serving with retryable error responses.

See ``docs/serving.md`` for the runtime model and knobs.
"""

from repro.serve.protocol import Request, Response
from repro.serve.server import Server
from repro.serve.session import Session


def __getattr__(name: str):
    # Imported lazily: shard_server sits on top of repro.shard, which
    # itself imports this package's protocol module -- an eager import
    # here would close that loop during repro.shard's initialization.
    if name in ("ShardServer", "ShardSession"):
        from repro.serve import shard_server

        return getattr(shard_server, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Request",
    "Response",
    "Server",
    "ShardServer",
    "ShardSession",
    "Session",
]
