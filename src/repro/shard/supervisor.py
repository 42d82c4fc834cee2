"""Self-healing shards: the supervisor that turns detection into repair.

The sharded engine through PR 9 *detects* damage -- codeword audits catch
wild writes, poisoned pipes catch dead and hung workers, the decision log
catches half-delivered 2PC outcomes -- but the operator was the recovery
mechanism: a :class:`~repro.shard.shard.ShardCrashed` or a "committed but
undelivered" :class:`~repro.errors.TwoPhaseCommitError` surfaced to the
caller and stayed there.  :class:`ShardSupervisor` closes the loop:

* **Crash/hang detection.**  Every tick heartbeats the serving shards
  (:meth:`~repro.shard.shard.ProcessShard.probe`: process poll, poison
  flag, then a bounded ping round trip).  Routed calls report crashes
  inline through :meth:`report_crash`, so detection does not wait for
  the next heartbeat.  A hung worker is detected by call/ping timeout;
  its pipe is poisoned (a late reply would desynchronize the FIFO) and
  it is restarted exactly like a dead one.
* **Automatic restart + certified recovery.**  A crashed shard is
  terminated and recovered through the opener the router uses
  (:func:`~repro.shard.shard.open_shard`: a fresh worker in process
  mode, inline otherwise), resolving in-doubt 2PC branches against a
  fresh snapshot of the coordinator's committed set.  Before the shard
  rejoins, its recovery is *certified* by a full codeword audit (with a
  quarantine-repair retry when the shard is configured for it); an
  uncertified shard never serves.  Surviving shards serve throughout --
  recovery touches only the dead shard's handle.
* **In-doubt decision repair.**  A commit decision that could not be
  delivered (the participant died between the coordinator's fsync and
  the decide fan-out) waits in the queue of
  :mod:`repro.shard.coordinator`: every tick runs its redelivery pass,
  and a certified restart prunes what its recovery resolved.  The
  caller saw a *committed* transaction the whole time.
* **Degraded-mode serving.**  While a shard is down, every routed call
  to it fails fast with a retryable
  :class:`~repro.errors.ShardUnavailableError` (:meth:`ensure_serving`)
  instead of blocking on a dead pipe; the serve layer forwards the
  retryable bit to remote clients.  A shard that exhausts
  ``max_restarts`` consecutive failed restarts, or cannot certify, is
  parked ``DOWN`` -- contained, not crashing the node.

The supervisor runs either *manually* (call :meth:`tick` from a test or
a driver loop; fully deterministic) or *automatically*: :meth:`start`
registers :meth:`tick` on a
:class:`~repro.runtime.scheduler.Scheduler`, whose ``"interval"`` ticker
drives supervision in the background.  Closing or crashing the database
stops it: no tick reopens a shard of a closed database.

:class:`WaitForGraph` is the cross-shard deadlock half of the story.
Locks in this system *fail fast* (a conflict raises
:class:`~repro.errors.LockError` immediately; nobody blocks inside a
shard), so classic lock-queue cycles cannot form -- but *retry* cycles
can: session A holds shard 0's key and retries for shard 1's, session B
holds shard 1's and retries for shard 0's, and both retry forever.  The
serve layer records each conflict as a wait-for edge here; a cycle
convicts the **youngest** member (largest transaction sequence number),
which is aborted with a retryable :class:`~repro.errors.DeadlockError`
while the survivors proceed.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field as dc_field

from repro.errors import ReproError, ShardError, ShardUnavailableError
from repro.runtime.scheduler import Scheduler
from repro.shard.router import ShardedDatabase
from repro.shard.shard import open_shard

#: Shard lifecycle states the supervisor tracks.
SERVING = "serving"
RECOVERING = "recovering"
DOWN = "down"

#: Period of the automatic supervision tick (:meth:`ShardSupervisor.start`).
TICK_INTERVAL_S = 0.05


@dataclass(frozen=True)
class SupervisorConfig:
    """Knobs of one supervisor.  The defaults suit process-mode shards
    on a loaded machine; tests shrink the timeouts to milliseconds."""

    #: Ping deadline of one heartbeat probe.  A worker that cannot
    #: answer a ping in this long is presumed hung and restarted.
    heartbeat_timeout_s: float = 1.0
    #: Default deadline applied to every routed shard call.
    call_timeout_s: float = 10.0
    #: Deadline of one 2PC prepare; a late vote is a vote of no
    #: (presumed abort).  ``None`` falls back to ``call_timeout_s``.
    prepare_timeout_s: float | None = 2.0
    #: Deadline for a restarted worker to finish recovery.
    restart_timeout_s: float = 60.0
    #: Consecutive failed restart attempts before the shard is parked
    #: ``DOWN`` (a crash loop must not become a restart storm).
    max_restarts: int = 5


@dataclass
class _ShardState:
    state: str = SERVING
    #: Consecutive failed restart attempts (reset on certified rejoin).
    failed_restarts: int = 0
    #: Closed unavailability windows ``(down_at, up_at)`` plus the
    #: currently open one (``open_since`` is not None while not serving).
    windows: list = dc_field(default_factory=list)
    open_since: float | None = None
    restarts: int = 0


class ShardSupervisor:
    """Heartbeats, restarts, and repairs the shards of one router."""

    def __init__(
        self, db: ShardedDatabase, config: SupervisorConfig | None = None
    ) -> None:
        self.db = db
        self.config = config or SupervisorConfig()
        self._states: dict[int, _ShardState] = {
            sid: _ShardState() for sid in range(len(db.shards))
        }
        self._lock = threading.RLock()
        self._tick_lock = threading.Lock()
        self._scheduler: Scheduler | None = None
        self.events: list[dict] = []
        self.heartbeat_failures = 0
        self._attached = False

    # ------------------------------------------------------- attachment

    def attach(self) -> "ShardSupervisor":
        """Wire supervision into the router, which then reads this
        supervisor's ``config``: deadlines on every routed call,
        fail-fast on non-serving shards, crash reporting, and the
        coordinator's queue for undelivered commit decisions."""
        self.db.supervisor = self
        self._attached = True
        return self

    def detach(self) -> None:
        """Restore the pre-supervision router contract."""
        self.stop()
        self.db.supervisor = None
        self._attached = False

    def start(self) -> "ShardSupervisor":
        """Run supervision automatically: :meth:`tick` becomes the
        ``"interval"`` task of a :class:`Scheduler` this
        supervisor owns.
        """
        if not self._attached:
            self.attach()
        if self._scheduler is None:
            self._scheduler = Scheduler(TICK_INTERVAL_S)
            self._scheduler.register_tick(
                "supervise", ("interval",), self._scheduled_tick
            )
        return self

    def stop(self) -> None:
        """Stop scheduled ticks and wait out a tick in flight."""
        scheduler, self._scheduler = self._scheduler, None
        if scheduler is not None:
            scheduler.shutdown()
        with self._tick_lock:
            pass

    def _scheduled_tick(self, _event: str) -> None:
        try:
            self.tick()
        except Exception as exc:  # pragma: no cover - ticker must survive
            self.record("tick_error", None, str(exc))

    # ------------------------------------------------------ fast checks

    def state_of(self, shard_id: int) -> str:
        return self._states[shard_id].state

    def ensure_serving(self, shard_id: int) -> None:
        """Fail fast when the shard cannot take this call right now.

        This is the degraded-mode contract: a request routed to a
        recovering (or parked) shard gets an immediately-retryable typed
        error instead of blocking on a worker pipe that nobody is
        reading -- surviving shards keep serving, and the caller's
        retry lands after the supervisor rejoins the shard.
        """
        state = self._states[shard_id].state
        if state != SERVING:
            raise ShardUnavailableError(
                shard_id,
                state,
                detail="the supervisor is restarting it"
                if state == RECOVERING
                else "restart/certification failed; operator attention needed",
            )

    def report_crash(self, shard_id: int, handle, reason: str = "") -> None:
        """A routed call found the shard dead or hung; mark it for
        restart.  Idempotent and stale-proof: a report against a handle
        the supervisor already replaced is ignored (the crash belongs
        to the shard's previous life)."""
        with self._lock:
            if self.db.shards[shard_id] is not handle:
                return
            entry = self._states[shard_id]
            if entry.state != SERVING:
                return
            entry.state = RECOVERING
            entry.open_since = time.monotonic()
            self.record("crash_detected", shard_id, reason)

    def prepare_token(self, shard_id: int) -> int:
        """Incarnation token the coordinator takes right before a 2PC
        prepare: the shard's restart count while it is serving, or a
        sentinel that can never match when it is not (the prepare is
        doomed anyway -- :meth:`ensure_serving` fails it fast)."""
        with self._lock:
            entry = self._states[shard_id]
            return entry.restarts if entry.state == SERVING else -1

    def can_decide(self, shard_id: int, token: int) -> bool:
        """The commit-decision fence: True iff the shard still serves in
        the same incarnation the prepare ran in.  A shard that crashed,
        is mid-recovery, or rejoined as a later incarnation may have
        resolved the prepared branch against a decision-log snapshot
        that predates the decision, so the coordinator must presume
        abort instead of committing."""
        if token < 0:
            return False
        with self._lock:
            entry = self._states[shard_id]
            return entry.state == SERVING and entry.restarts == token

    # ------------------------------------------------------------- tick

    def tick(self) -> dict:
        """One supervision pass: heartbeats, restarts, decision repair.

        Safe to call from a test loop or the scheduler ticker; a second
        concurrent tick is skipped rather than queued (supervision is
        idempotent, the next tick picks up whatever this one missed), and
        so is every tick once the database is closed or crashed.
        """
        if not self._tick_lock.acquire(blocking=False):
            return {"skipped": True}
        try:
            if self.db.closed:
                return {"skipped": True}
            self._heartbeat()
            restarted = self._restart_pass()
            delivered = self.db.coordinator.redeliver()
            return {
                "skipped": False,
                "restarted": restarted,
                "decisions_delivered": delivered,
            }
        finally:
            self._tick_lock.release()

    def _heartbeat(self) -> None:
        for sid, entry in self._states.items():
            if entry.state != SERVING:
                continue
            handle = self.db.shards[sid]
            try:
                alive = handle.probe(timeout=self.config.heartbeat_timeout_s)
            except ReproError:
                alive = False
            if not alive:
                self.heartbeat_failures += 1
                self.report_crash(sid, handle, reason="heartbeat failed")

    def _restart_pass(self) -> int:
        restarted = 0
        for sid, entry in self._states.items():
            if entry.state == RECOVERING and self._try_restart(sid):
                restarted += 1
        return restarted

    def _try_restart(self, shard_id: int) -> bool:
        entry = self._states[shard_id]
        if entry.failed_restarts >= self.config.max_restarts:
            entry.state = DOWN
            self.record(
                "shard_down",
                shard_id,
                f"{entry.failed_restarts} consecutive restart failures",
            )
            return False
        self.record("restart_attempt", shard_id, "")
        old = self.db.shards[shard_id]
        try:
            old.terminate()
        except Exception:
            pass
        new_handle = None
        try:
            new_handle, snapshot = self._recover_handle(shard_id)
            if not self._certify(new_handle):
                raise ShardError(
                    f"shard {shard_id} recovered but failed audit certification"
                )
        except Exception as exc:
            entry.failed_restarts += 1
            self.record("restart_failed", shard_id, str(exc))
            if new_handle is not None:
                try:
                    new_handle.terminate()
                except Exception:
                    pass
            return False
        with self._lock:
            self.db.shards[shard_id] = new_handle
            entry.state = SERVING
            entry.failed_restarts = 0
            entry.restarts += 1
            if entry.open_since is not None:
                entry.windows.append((entry.open_since, time.monotonic()))
                entry.open_since = None
        self.db.coordinator.rejoined(shard_id, snapshot)
        self.record("rejoined", shard_id, f"restart #{entry.restarts}")
        return True

    def _recover_handle(self, shard_id: int):
        """Recover one shard through the router's opener, resolving its
        in-doubt branches against a fresh coordinator snapshot; returns
        ``(handle, snapshot)``."""
        committed = self.db.coordinator.snapshot()
        handle = open_shard(self.db.config, shard_id, committed=committed)
        handle.wait_ready(timeout=self.config.restart_timeout_s)
        return handle, committed

    def _certify(self, handle) -> bool:
        """Certified recovery: a full codeword audit must pass before
        the shard rejoins; quarantine-configured shards get one
        repair-and-re-audit chance (persistent corruption that survived
        the restart replay)."""
        clean, _regions, _ranges = handle.call(
            ("audit",), timeout=self.config.restart_timeout_s
        )
        if clean:
            return True
        try:
            handle.call(("repair",), timeout=self.config.restart_timeout_s)
        except ReproError:
            return False
        clean, _regions, _ranges = handle.call(
            ("audit",), timeout=self.config.restart_timeout_s
        )
        return bool(clean)

    # ------------------------------------------------------------ status

    def heal(self, timeout_s: float = 60.0, tick_sleep_s: float = 0.01) -> bool:
        """Tick until every shard serves and no decision is pending (or
        the deadline passes).  The chaos campaign's settling primitive."""
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            self.tick()
            states = {entry.state for entry in self._states.values()}
            if states == {SERVING} and not self.db.coordinator.pending:
                return True
            if DOWN in states:
                return False
            time.sleep(tick_sleep_s)
        return False

    def unavailability_windows(self, shard_id: int) -> list[tuple[float, float]]:
        entry = self._states[shard_id]
        windows = list(entry.windows)
        if entry.open_since is not None:
            windows.append((entry.open_since, time.monotonic()))
        return windows

    def summary(self) -> dict:
        """Machine-readable supervision outcome (the chaos bench JSON)."""
        coordinator = self.db.coordinator
        # Outside our lock: the coordinator's fence takes ours under its own.
        pending = len(coordinator.pending)
        with self._lock:
            per_shard = {}
            for sid, entry in self._states.items():
                windows = self.unavailability_windows(sid)
                per_shard[sid] = {
                    "state": entry.state,
                    "restarts": entry.restarts,
                    "unavailability_windows": len(windows),
                    "unavailable_s": round(
                        sum(end - start for start, end in windows), 4
                    ),
                    "max_window_s": round(
                        max((end - start for start, end in windows), default=0.0), 4
                    ),
                }
            return {
                "shards": per_shard,
                "restarts": sum(e.restarts for e in self._states.values()),
                "heartbeat_failures": self.heartbeat_failures,
                "decisions_repaired": coordinator.repaired,
                "pending_decisions": pending,
                "events": len(self.events),
            }

    def record(self, kind: str, shard_id: int | None, detail: str) -> None:
        """Log one event (the coordinator logs its deliveries here too)."""
        self.events.append(
            {
                "t": time.monotonic(),
                "kind": kind,
                "shard": shard_id,
                "detail": detail,
            }
        )


class WaitForGraph:
    """Cross-shard wait-for edges with cycle detection.

    Nodes are serve-layer session ids.  Edges mean "waiter's next retry
    needs a lock that holder's open branch has" -- *retry intent*, since
    locks here fail fast and no thread ever blocks inside a shard.  The
    serve layer adds an edge per conflict, clears a session's outgoing
    edges when it makes progress, and clears edges onto a session when
    its transaction ends.  :meth:`cycle_from` reports a cycle through
    the given node, whose youngest member the caller aborts.
    """

    def __init__(self) -> None:
        self._waits: dict[int, set[int]] = {}

    def add(self, waiter: int, holder: int) -> None:
        if waiter == holder:
            return
        self._waits.setdefault(waiter, set()).add(holder)

    def clear_waiter(self, waiter: int) -> None:
        self._waits.pop(waiter, None)

    def clear_holder(self, holder: int) -> None:
        for holders in self._waits.values():
            holders.discard(holder)
        self._waits = {w: h for w, h in self._waits.items() if h}

    def cycle_from(self, start: int) -> tuple[int, ...] | None:
        """DFS from ``start``; returns the first cycle through it."""
        path: list[int] = []
        on_path: set[int] = set()
        visited: set[int] = set()

        def visit(node: int) -> tuple[int, ...] | None:
            path.append(node)
            on_path.add(node)
            for nxt in self._waits.get(node, ()):
                if nxt == start:
                    return tuple(path)
                if nxt in on_path or nxt in visited:
                    continue
                found = visit(nxt)
                if found is not None:
                    return found
            path.pop()
            on_path.discard(node)
            visited.add(node)
            return None

        return visit(start)

    def edges(self) -> dict[int, tuple[int, ...]]:
        return {w: tuple(sorted(h)) for w, h in self._waits.items() if h}


__all__ = [
    "DOWN",
    "RECOVERING",
    "SERVING",
    "ShardSupervisor",
    "SupervisorConfig",
    "WaitForGraph",
]
