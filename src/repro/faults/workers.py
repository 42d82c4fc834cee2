"""Worker-level fault injection: kill, hang, and sever shard workers.

The crash-point registry covers the *deterministic* failure study (an
armed point fires at an exact durability boundary, inproc).  This module
covers the *process-level* failure study the supervisor defends against:
a worker that dies mid-command, a worker that stops answering, a pipe
that breaks.  All helpers operate on a live
:class:`~repro.shard.router.ShardedDatabase` and are what the chaos
benchmark (``python -m repro.bench --chaos``) and the supervisor tests
drive.

Two injection styles:

* **Direct** -- :func:`kill_worker` / :func:`hang_worker` /
  :func:`sever_pipe` hit the shard right now (the chaos soak's random
  low-rate faults).
* **Targeted** -- :func:`kill_on_command` and
  :func:`kill_after_decision` wrap a handle's ``call`` (or the decision
  log's ``append``) so the worker dies at a *protocol moment*: as a 2PC
  prepare or decide reaches it, or in the gap after the coordinator
  fsyncs the commit decision but before delivery.  That last gap is the
  "committed but undelivered" window the coordinator's redelivery
  queue exists for.
"""

from __future__ import annotations

import os
import signal


def kill_worker(db, shard_id: int) -> None:
    """Hard-kill one shard worker (SIGKILL when there is a pid, handle
    termination otherwise).  The parent-side handle stays in place,
    poisoned -- exactly what a real worker death looks like to the
    router -- and the supervisor's heartbeat or the next routed call
    detects it."""
    handle = db.shards[shard_id]
    proc = getattr(handle, "_proc", None)
    if proc is not None and proc.is_alive() and proc.pid:
        try:
            os.kill(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):  # pragma: no cover
            pass
        proc.join(timeout=10)
    else:
        handle.terminate()


def hang_worker(db, shard_id: int, seconds: float) -> None:
    """Make one worker unresponsive for ``seconds`` (it sleeps inside
    its command loop).  Pipelined so the caller does not block; the next
    deadline-bearing call or heartbeat probe times out, poisons the
    pipe, and the supervisor restarts the worker."""
    db.shards[shard_id].call_nowait(("hang", float(seconds)))


def sever_pipe(db, shard_id: int) -> None:
    """Break the parent side of one worker's pipe (transport loss
    without worker death).  Every later call raises
    :class:`~repro.shard.shard.ShardCrashed`; the orphaned worker is
    reaped when the supervisor terminates the handle during restart."""
    handle = db.shards[shard_id]
    channel = getattr(handle, "_channel", None)
    if channel is not None:
        channel.close()
    else:  # inproc: the closest analogue is a plain crash
        handle.crash()


def kill_on_command(db, shard_id: int, command: str):
    """Arm a one-shot kill: the next time ``command`` is routed to this
    shard, the worker dies *instead of executing it*.

    This is how the chaos matrix crashes a participant exactly at
    ``txn_prepare`` (vote never cast -> presumed abort) or ``decide``
    (decision durable, delivery lost -> supervisor repair).  Returns a
    ``disarm()`` callable restoring the unwrapped ``call``.
    """
    handle = db.shards[shard_id]
    original = handle.call

    def wrapped(cmd, timeout=None):
        if cmd and cmd[0] == command:
            handle.call = original
            kill_worker(db, shard_id)
        return original(cmd, timeout=timeout)

    handle.call = wrapped

    def disarm():
        handle.call = original

    return disarm


def kill_after_decision(db, shard_id: int):
    """Arm a one-shot kill in the commit gap: the worker dies right
    after the coordinator fsyncs the next commit decision, before any
    delivery.  Every prepared branch on the killed shard is then
    "committed but undelivered" -- the decision log says commit, the
    participant never heard -- which restart recovery (or the
    coordinator's redelivery queue) must complete.  Returns ``disarm()``.
    """
    log = db.coordinator.decisions
    original = log.append

    def wrapped(gid):
        original(gid)
        log.append = original
        kill_worker(db, shard_id)

    log.append = wrapped

    def disarm():
        log.append = original

    return disarm


__all__ = [
    "hang_worker",
    "kill_after_decision",
    "kill_on_command",
    "kill_worker",
    "sever_pipe",
]
