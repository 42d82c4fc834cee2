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

Startup performs creation *or recovery* inside the worker.  Recovery
inside the worker is the point of shard-parallel restart: the parent
spawns N workers with ``recover=True`` and the N redo/undo scans run
concurrently in separate processes; each worker reports its recovery
summary in its ready message.
"""

from __future__ import annotations

import time
import traceback

from repro.errors import ReproError, SimulatedCrash
from repro.shard.core import ShardCore


def shard_worker_main(
    conn,
    config,
    table_defs,
    recover: bool,
    committed_gids: frozenset,
) -> None:
    """Entry point of one shard worker process."""
    try:
        if recover:
            wall_began = time.perf_counter()
            cpu_began = time.process_time()
            core, report = ShardCore.recover(
                config,
                in_doubt_resolver=lambda gid: gid in committed_gids,
            )
            summary = {
                "mode": report.mode,
                "redo_applied": report.redo_applied,
                "rolled_back": list(report.rolled_back),
                "resolved_committed": list(report.resolved_committed),
                "resolved_aborted": list(report.resolved_aborted),
                # Both clocks: on a machine with >= N cores they agree;
                # on fewer cores the OS timeslices the N workers and the
                # wall number smears, while per-worker CPU time still
                # measures each shard's true share of the replay work
                # (max across workers = the N-core critical path).
                "recovery_wall_s": time.perf_counter() - wall_began,
                "recovery_cpu_s": time.process_time() - cpu_began,
                "phase_seconds": dict(report.phase_seconds),
            }
        else:
            core = ShardCore.create(config, table_defs)
            summary = None
        conn.send(("ok", {"ready": True, "recovery": summary}))
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
