"""The per-core shard worker: a ShardCore behind a multiprocessing pipe.

One worker process owns one shard outright -- image, codeword table,
system log, checkpointer, scheduler threads -- so N shards fold codewords
and flush logs on N cores with no shared GIL.  The protocol over the pipe
is deliberately dumb: the parent sends command tuples
(:meth:`~repro.shard.core.ShardCore.execute` commands), the worker answers
``("ok", result)`` or ``("err", exc)``.  The error crosses as the pickled
:class:`~repro.errors.ReproError` itself -- class, message, ``retryable``
and every structured attribute intact -- and
:class:`~repro.shard.shard.ProcessShard` re-raises it parent-side; anything
that is not a ``ReproError`` is wrapped in one first.  The pipe stays FIFO,
so the parent may pipeline many commands before reading any answer (how
the throughput benchmark keeps every worker busy).

Startup opens the shard -- creation *or recovery*, through
:meth:`~repro.shard.core.ShardCore.open` -- inside the worker.  Recovery
inside the worker is the point of shard-parallel restart: the parent
starts N recovering workers and the N redo/undo scans run concurrently
in separate processes; each worker's ready message carries its recovery
summary.
"""

from __future__ import annotations

import traceback

from repro.errors import ReproError, SimulatedCrash
from repro.shard.core import ShardCore


def shard_worker_main(conn, config, table_defs, committed: frozenset) -> None:
    """Entry point of one shard worker process (arguments as for
    :meth:`~repro.shard.core.ShardCore.open`)."""
    try:
        core, summary = ShardCore.open(config, table_defs, committed)
        conn.send(("ok", summary))
    except BaseException as exc:  # startup failure: report, then exit
        detail = f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}"
        conn.send(("err", ReproError(detail)))
        conn.close()
        return

    running = True
    while running:
        try:
            cmd = conn.recv()
        except EOFError:
            break
        if cmd[0] == "exit":
            try:
                core.db.close()
            except Exception:
                pass
            conn.send(("ok", "bye"))
            break
        try:
            result = core.execute(cmd)
            conn.send(("ok", result))
        except SimulatedCrash as exc:
            # A simulated crash inside a worker kills the whole worker,
            # exactly like a real one: close the log handle and exit; the
            # parent recovers the shard in a fresh process.
            try:
                core.db.crash()
            except Exception:
                pass
            conn.send(("crash", exc.point, exc.hit))
            running = False
        except ReproError as exc:
            conn.send(("err", exc))
        except BaseException as exc:
            conn.send(("err", ReproError(f"{type(exc).__name__}: {exc}")))
    conn.close()
