"""Shard handles: one synchronous, one process-backed with pipelining.

:func:`open_shard` is the one place a shard is created or recovered and
the only code that reads ``ShardedConfig.mode``.  Both handles it
returns expose the same calls -- ``wait_ready`` (the open's recovery
summary), ``call`` (one command, one answer), ``call_nowait``/``drain``
(pipelined), ``terminate`` (hard kill) -- so the router, the supervisor
and the benchmarks are mode-blind.  :class:`LocalShard` runs commands
inline (deterministic; identity properties compare it byte-for-byte
against the unsharded database).  :class:`ProcessShard` sends them to a
worker process; because the pipe is FIFO, ``call_nowait`` may queue an
arbitrary backlog and ``drain`` collects answers in order, which keeps
every worker core busy while the parent does nothing but pickle tuples.
The protocol over the pipe is the worker's
:class:`~repro.shard.worker.Channel`: one framed write per command and
replies parsed out of one buffered read, so a round trip costs what the
pipe costs.

Failure semantics (what the supervisor builds on):

* every handle serializes its calls through an internal ``mutex`` --
  concurrent serving sessions share one pipe, and a FIFO pipe cannot
  interleave request/response pairs;
* ``call`` takes an optional ``timeout``; a worker that does not answer
  in time is presumed *hung* and the handle is **poisoned** (a late
  reply would desynchronize the FIFO), raising
  :class:`~repro.errors.ShardTimeoutError` now and
  :class:`ShardCrashed` for every later call until the supervisor
  replaces the handle with a recovered one;
* a broken/EOF'd pipe (the worker died) raises :class:`ShardCrashed`
  instead of leaking raw OS errors;
* ``is_alive()`` / ``probe(timeout)`` are the heartbeat hooks: cheap
  liveness first (process poll, poison flag), then an optional ping
  round trip bounded by ``timeout``.
"""

from __future__ import annotations

import multiprocessing as mp
import threading
import time

from repro.errors import ConfigError, ReproError, ShardError, ShardTimeoutError
from repro.shard.core import ShardCore
from repro.shard.worker import Channel, shard_worker_main


def _mp_context():
    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else "spawn")


class ShardCrashed(ShardError):
    """The worker died (simulated crash, kill, or lost pipe); recover it."""

    def __init__(self, shard_id: int, point: str, hit: int) -> None:
        super().__init__(f"shard {shard_id} crashed at {point} (hit {hit})")
        self.shard_id = shard_id
        self.point = point
        self.hit = hit


def open_shard(
    config,
    shard_id: int,
    table_defs: list[tuple] | None = None,
    committed: frozenset = frozenset(),
    crashpoints=None,
):
    """Create (``table_defs`` given) or recover shard ``shard_id`` of a
    :class:`~repro.shard.router.ShardedConfig`; returns its handle.

    A process shard opens inside its new worker, so this returns at once
    and ``wait_ready()`` blocks for the outcome -- callers start every
    shard before waiting on any.  An inproc shard opens right here.
    ``crashpoints`` arms an inproc shard's database; a worker process
    cannot see the caller's registry, so arming one there is refused
    rather than silently dropped.
    """
    db_config = config.db_config(shard_id)
    if config.mode == "inproc":
        core, summary = ShardCore.open(db_config, table_defs, committed, crashpoints)
        return LocalShard(shard_id, core, summary)
    if config.mode != "process":
        raise ConfigError(f"unknown shard mode {config.mode!r}")
    if crashpoints is not None:
        raise ConfigError(
            "shard crash points need mode='inproc': a process shard's "
            "worker cannot see the caller's registry"
        )
    return ProcessShard(shard_id, db_config, table_defs, committed)


class LocalShard:
    """In-process shard: commands run inline on the caller's thread."""

    def __init__(self, shard_id: int, core: ShardCore, summary: dict | None) -> None:
        self.shard_id = shard_id
        self.core = core
        self._summary = summary
        self._pending: list = []
        self._crashed = False
        self.mutex = threading.RLock()

    def wait_ready(self, timeout: float | None = None) -> dict | None:
        """The open already finished inline; returns its recovery summary."""
        return self._summary

    def call(self, cmd: tuple, timeout: float | None = None):
        # Inline execution cannot hang on a pipe, so ``timeout`` is
        # accepted for interface parity and ignored.
        with self.mutex:
            self._require_live()
            return self.core.execute(cmd)

    def call_nowait(self, cmd: tuple) -> None:
        # Inline execution keeps deterministic ordering: the command runs
        # now; only the answer is deferred to drain().
        with self.mutex:
            self._require_live()
            self._pending.append(self.core.execute(cmd))

    def drain(self, timeout: float | None = None) -> list:
        with self.mutex:
            results, self._pending = self._pending, []
            return results

    @property
    def pending(self) -> int:
        return len(self._pending)

    def _require_live(self) -> None:
        if self._crashed:
            raise ShardCrashed(self.shard_id, "crashed", 0)

    def is_alive(self) -> bool:
        return not self._crashed

    def probe(self, timeout: float | None = None) -> bool:
        """Heartbeat: inline shards are alive unless crashed."""
        return not self._crashed

    def close(self) -> None:
        if not self._crashed:
            self.core.db.close()

    def crash(self) -> None:
        """Kill this shard only: later calls raise :class:`ShardCrashed`
        (the deterministic twin of a dead worker process)."""
        self._crashed = True
        self.core.db.crash()

    def terminate(self) -> None:
        """Hard kill; like :meth:`ProcessShard.terminate`, never raises."""
        if not self._crashed:
            try:
                self.crash()
            except Exception:
                pass


class ProcessShard:
    """A shard behind a worker process and a FIFO pipe."""

    def __init__(
        self, shard_id: int, config, table_defs, committed: frozenset
    ) -> None:
        self.shard_id = shard_id
        ctx = _mp_context()
        parent_conn, child_conn = ctx.Pipe()
        self._proc = ctx.Process(
            target=shard_worker_main,
            args=(child_conn, config, table_defs, committed),
            daemon=True,
            name=f"shard-{shard_id}",
        )
        self._proc.start()
        child_conn.close()
        self._channel = Channel(parent_conn)
        self._outstanding = 0
        #: Replies drained early by an intervening ``call`` (the pipe is
        #: FIFO, so a synchronous call must consume the pipelined
        #: backlog's answers first); handed out by the next ``drain``.
        self._parked: list = []
        self._ready = False
        self._summary: dict | None = None
        self._poisoned = False
        #: When a probe found a pipelined backlog with no reply ready,
        #: the monotonic time it first saw that; a backlog that makes no
        #: progress for longer than the probe timeout is a hung worker.
        self._stall_since: float | None = None
        self.mutex = threading.RLock()

    def wait_ready(self, timeout: float | None = None) -> dict | None:
        """Block until the worker has opened its shard; returns the
        recovery summary (None after a create)."""
        if not self._ready:
            self._summary = self._decode(self._recv(timeout))
            self._ready = True
        return self._summary

    def call(self, cmd: tuple, timeout: float | None = None):
        with self.mutex:
            self.wait_ready()
            self._require_usable()
            if self._outstanding:
                # FIFO pipe: the backlog's answers arrive before ours
                # would.  Consume them now (parked for the next drain)
                # or this call would read somebody else's reply.
                self._drain_backlog(timeout)
            try:
                self._channel.send(cmd)
            except (BrokenPipeError, EOFError, OSError):
                self._mark_dead()
            return self._decode(self._recv(timeout))

    def call_nowait(self, cmd: tuple) -> None:
        with self.mutex:
            self.wait_ready()
            self._require_usable()
            try:
                self._channel.send(cmd)
            except (BrokenPipeError, EOFError, OSError):
                self._mark_dead()
            self._outstanding += 1

    def drain(self, timeout: float | None = None) -> list:
        with self.mutex:
            self._drain_backlog(timeout)
            results, self._parked = self._parked, []
            return results

    def _drain_backlog(self, timeout: float | None) -> None:
        while self._outstanding:
            self._parked.append(self._decode(self._recv(timeout)))
            self._outstanding -= 1
        self._stall_since = None

    @property
    def pending(self) -> int:
        return self._outstanding

    # --------------------------------------------------------- liveness

    def is_alive(self) -> bool:
        return self._proc.is_alive() and not self._poisoned

    def probe(self, timeout: float | None = None) -> bool:
        """Heartbeat: cheap liveness, then a bounded ping round trip.

        A shard busy with another caller's command (mutex held) is
        *alive* -- it is making progress, not hanging -- so the probe
        never blocks behind in-flight work.  A pipelined backlog cannot
        be pinged (the FIFO would desync), so it is watched for
        *progress* instead: available replies are consumed (parked for
        the next ``drain``); a backlog that produces nothing across
        probes for longer than ``timeout`` is a hung worker, poisoned
        and reported exactly like a call timeout.
        """
        if not self.is_alive():
            return False
        if timeout is None:
            return True
        if not self.mutex.acquire(blocking=False):
            return True  # busy serving someone: alive by definition
        try:
            if self._outstanding:
                return self._probe_backlog(timeout)
            self._stall_since = None
            return self.call(("ping",), timeout=timeout) == "pong"
        except (ShardError, ReproError):
            return False
        finally:
            self.mutex.release()

    def _probe_backlog(self, timeout: float) -> bool:
        """Progress check over an in-flight pipelined backlog.

        Note the stall window is the *probe* timeout: a single command
        that legitimately runs longer than the heartbeat deadline while
        pipelined will be convicted as hung.  That is the supervised
        contract -- the same command issued synchronously under
        ``call_timeout_s`` gets the longer call deadline instead.
        """
        progressed = False
        while self._outstanding:
            try:
                ready = self._channel.poll(0)
            except (BrokenPipeError, EOFError, OSError):
                self._mark_dead()
            if not ready:
                break
            self._parked.append(self._decode(self._recv(None)))
            self._outstanding -= 1
            progressed = True
        if progressed or not self._outstanding:
            self._stall_since = None
            return True
        now = time.monotonic()
        if self._stall_since is None:
            self._stall_since = now
            return True
        if now - self._stall_since <= timeout:
            return True
        # No reply for a full heartbeat window: presumed hung.  Poison
        # the pipe (a late reply would desynchronize the FIFO) so the
        # supervisor replaces the worker.
        self._stall_since = None
        self._poisoned = True
        self._outstanding = 0
        return False

    # ---------------------------------------------------------- innards

    def _require_usable(self) -> None:
        if self._poisoned:
            raise ShardCrashed(self.shard_id, "worker-lost", 0)

    def _mark_dead(self):
        self._poisoned = True
        self._outstanding = 0
        raise ShardCrashed(self.shard_id, "worker-death", 0)

    def _recv(self, timeout: float | None = None):
        try:
            if timeout is not None and not self._channel.poll(timeout):
                # A reply may still arrive later; consuming it would be
                # paired with the WRONG request.  Poison the handle: the
                # supervisor kills and recovers the worker.
                self._poisoned = True
                self._outstanding = 0
                raise ShardTimeoutError(self.shard_id, timeout)
            return self._channel.recv()
        except (BrokenPipeError, EOFError, OSError):
            self._mark_dead()

    def _decode(self, reply):
        tag = reply[0]
        if tag == "ok":
            return reply[1]
        if tag == "crash":
            _tag, point, hit = reply
            self._outstanding = 0
            self._poisoned = True
            self._proc.join(timeout=10)
            raise ShardCrashed(self.shard_id, point, hit)
        _tag, exc = reply
        exc.args = (f"[shard {self.shard_id}] {exc}",)
        raise exc

    def close(self) -> None:
        if self._proc.is_alive() and not self._poisoned:
            try:
                self.wait_ready()
                self._channel.send(("exit",))
                self._channel.recv()
            except (BrokenPipeError, EOFError, OSError, ShardError):
                pass
        self._proc.join(timeout=10)
        self._channel.close()

    def terminate(self) -> None:
        """Hard-kill the worker (crash simulation in process mode)."""
        self._poisoned = True
        if self._proc.is_alive():
            self._proc.terminate()
        self._proc.join(timeout=10)
        self._channel.close()
