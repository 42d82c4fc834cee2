"""The 2PC coordinator: the one owner of a commit decision's life.

Cross-shard transactions commit by presumed-abort two-phase commit
(:meth:`Coordinator.two_phase`, over the router's ``shard_call`` and
fenced on its supervisor's incarnation tokens).  Its coordinator side
is all here: the decision log (:class:`DecisionLog`, ``2pc.decisions``:
committed gids, fsync'd; absence means abort), gids ``g<epoch>.<seq>``
under a per-incarnation epoch (``2pc.epoch``), the decision lock that
serializes a decision against the snapshot a restarting shard recovers
against, and delivery.  Each participant is handed the decision once
(:meth:`Coordinator.deliver`).  Unsupervised, a failure surfaces as a
"committed but undelivered" :class:`~repro.errors.TwoPhaseCommitError`;
supervised, it joins the one queue the supervisor's tick drains
(:meth:`Coordinator.redeliver`, capped-exponential backoff) and
certified restarts prune (:meth:`Coordinator.rejoined`).
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from dataclasses import dataclass

from repro.errors import ShardUnavailableError, SimulatedCrash, TwoPhaseCommitError
from repro.shard.shard import ShardCrashed

DECISION_LOG_FILE = "2pc.decisions"
EPOCH_FILE = "2pc.epoch"

#: Backoff between redelivery passes over one queued decision (capped
#: exponential in its failed passes).
REPAIR_BACKOFF_BASE_S = 0.01
REPAIR_BACKOFF_CAP_S = 0.5


class DecisionLog:
    """The coordinator's durable commit decisions: one gid per line.

    Presumed abort needs exactly one durable bit per *committed* global
    transaction; aborted ones are never written.  ``append`` is
    write+flush+fsync, so by the time any participant is told to commit,
    a crash-and-recover coordinator still answers "commit" for that gid.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._committed = set(self.load_committed(path))
        self._handle = open(path, "a", encoding="utf-8")

    def append(self, gid: str) -> None:
        self._handle.write(gid + "\n")
        self._handle.flush()
        # Added once the file holds it: a snapshot never misses a gid a
        # re-read of the file would find, even if the fsync fails.
        self._committed.add(gid)
        os.fsync(self._handle.fileno())

    def committed(self) -> frozenset:
        return frozenset(self._committed)

    def __len__(self) -> int:
        return len(self._committed)

    def close(self) -> None:
        self._handle.close()

    @staticmethod
    def load_committed(path: str) -> frozenset:
        if not os.path.exists(path):
            return frozenset()
        with open(path, encoding="utf-8") as handle:
            return frozenset(line.strip() for line in handle if line.strip())


def _bump_epoch(dir_path: str, committed: frozenset) -> int:
    """Claim and persist this coordinator incarnation's epoch.

    Gids must be unique across coordinator restarts: a reused gid would
    let a crashed transaction's in-doubt branch resolve against a stale
    decision, and the log cannot seed a sequence (aborted gids are never
    written).  So each incarnation claims an epoch above the persisted
    counter *and* above every epoch the log names -- the floor that
    survives a lost, emptied or stale counter -- and persists it before
    any gid is handed out: tmp file, fsync, rename, so a crash leaves
    the old value or the new one, never an empty file.
    """
    path = os.path.join(dir_path, EPOCH_FILE)
    heads = (gid[1:].partition(".")[0] for gid in committed)  # g<epoch>.<seq>
    epoch = max((int(head) for head in heads if head.isdigit()), default=0)
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            text = handle.read().strip()
        if text.isdigit():
            epoch = max(epoch, int(text))
    epoch += 1
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(f"{epoch}\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    return epoch


@dataclass
class _Pending:
    shards: set
    attempts: int = 0
    next_try_at: float = 0.0


class Coordinator:
    """The 2PC coordinator of one router; constructing it opens the
    decision log (read once) and claims this incarnation's epoch."""

    def __init__(self, router) -> None:
        self.router = router
        dir_path = router.config.dir
        self.decisions = DecisionLog(os.path.join(dir_path, DECISION_LOG_FILE))
        self.epoch = _bump_epoch(dir_path, self.decisions.committed())
        self._seq = itertools.count(1)
        #: The decision lock; it also guards the queue.
        self._lock = threading.Lock()
        self._pending: dict[str, _Pending] = {}
        #: Queued decisions completed, by redelivery or restart recovery.
        self.repaired = 0

    def new_gid(self) -> str:
        return f"g{self.epoch}.{next(self._seq)}"

    def snapshot(self) -> frozenset:
        """The committed gids a (re)opening shard resolves its in-doubt
        branches against; fenced against :meth:`_decide`."""
        with self._lock:
            return self.decisions.committed()

    def close(self) -> None:
        self.decisions.close()

    # ---------------------------------------------------------- protocol

    def two_phase(
        self, gid: str, prepares: dict[int, tuple], aborts: dict[int, tuple]
    ) -> None:
        """Presumed-abort 2PC under ``gid``: ``prepares`` maps each
        participant shard to the command that makes its branch vote;
        ``aborts`` to the command that rolls back a branch which never
        got to vote.

        Prepares carry a deadline under supervision
        (``prepare_timeout_s``): a participant that does not vote in
        time is treated exactly like a vote of *no* -- presumed abort
        rolls back the branches that did prepare, now or at the slow
        shard's restart, so a hung worker cannot wedge the coordinator.
        """
        router = self.router
        sup = router.supervisor
        timeout = None if sup is None else sup.config.prepare_timeout_s
        prepared: list[int] = []
        tokens: dict[int, int] = {}
        for sid in sorted(prepares):
            # The shard's incarnation right before its prepare.
            tokens[sid] = 0 if sup is None else sup.prepare_token(sid)
            try:
                router.shard_call(sid, prepares[sid], timeout=timeout)
                prepared.append(sid)
            except SimulatedCrash:
                raise  # inproc crash simulation: whole process dies here
            except ShardCrashed:
                raise  # process mode: the worker is gone; recover
            except BaseException as failure:
                # Presumed abort: nothing durable names this gid; roll
                # back every branch and surface the vote-no cause.
                self._abort_prepared(gid, prepared)
                self.send_aborts(
                    {s: aborts[s] for s in sorted(aborts) if s not in prepared}
                )
                raise TwoPhaseCommitError(
                    f"transaction {gid} aborted: {failure}"
                ) from failure
        router.crashpoints.reach("twopc.pre_decide")
        stale = self._decide(gid, prepared, tokens)
        if stale:
            # The stale shards' recoveries rolled their branches back.
            self._abort_prepared(gid, prepared)
            raise TwoPhaseCommitError(
                f"transaction {gid} aborted: shard(s) {stale} restarted "
                "between prepare and the commit decision, so their recovery "
                "resolved the branch against a decision-log snapshot that "
                "predates this decision (incarnation fence)",
                gid=gid,
            )
        router.crashpoints.reach("twopc.after_decide")
        self._commit_prepared(gid, prepared)

    def _decide(
        self, gid: str, prepared: list[int], tokens: dict[int, int]
    ) -> list[int]:
        """Durably decide commit, fenced on participant incarnations;
        returns the sorted stale shards (restarted or not serving since
        their prepare), empty when the decision was appended.

        A shard that restarted since its prepare resolved the branch
        against a :meth:`snapshot`; taken before this append, that
        snapshot presumed the branch aborted, and committing now would
        ack a transaction with a branch rolled back.  Snapshots and this
        check+append share the decision lock, so either every prepared
        participant is still its prepare-time incarnation when the gid
        lands (and any later snapshot includes it), or the decision is
        withheld and presumed abort rolls every branch back.
        """
        with self._lock:
            sup = self.router.supervisor
            if sup is not None:
                stale = sorted(
                    sid
                    for sid in prepared
                    if not sup.can_decide(sid, tokens.get(sid, -1))
                )
                if stale:
                    return stale
            self.decisions.append(gid)
            return []

    def _abort_prepared(self, gid: str, prepared: list[int]) -> None:
        self.send_aborts({sid: ("decide", gid, False) for sid in prepared})

    def send_aborts(self, cmds: dict[int, tuple]) -> None:
        """Send each shard its abort command, best-effort per shard.

        One failing shard must not skip the rest: each remaining branch
        holds exclusive locks until aborted.  Presumed abort makes a
        swallowed failure safe -- that shard's restart recovery rolls
        the branch back.  Crash simulations propagate: the whole node is
        dying and recovery handles everything.
        """
        for sid, cmd in cmds.items():
            try:
                self.router.shard_call(sid, cmd)
            except (SimulatedCrash, ShardCrashed):
                raise
            except Exception:
                pass

    def _commit_prepared(self, gid: str, prepared: list[int]) -> None:
        """Give every prepared branch its one :meth:`deliver` (a failure
        on one must not strand the later ones holding locks).  The
        transaction IS committed; a branch that missed the decision
        completes at its shard's restart recovery.  Supervised, that is
        no error at all: the decision is queued, the caller sees success.
        """
        undelivered: list[tuple[int, Exception]] = []
        for sid in prepared:
            failure = self.deliver(gid, sid)
            if failure is not None:
                undelivered.append((sid, failure))
            if sid == prepared[0]:
                self.router.crashpoints.reach("twopc.after_first_commit")
        if not undelivered:
            return
        if self.router.supervisor is not None:
            self.queue(gid, [sid for sid, _ in undelivered])
            return
        detail = "; ".join(f"shard {sid}: {exc}" for sid, exc in undelivered)
        raise TwoPhaseCommitError(
            f"transaction {gid} is committed, but delivering the "
            f"decision failed on {detail}; restart recovery will "
            f"complete those branches from the decision log",
            gid=gid,
            committed=True,
            undelivered=tuple(sid for sid, _ in undelivered),
        )

    # ---------------------------------------------------------- delivery

    def deliver(self, gid: str, shard_id: int) -> Exception | None:
        """Hand commit decision ``gid`` to one participant, once; returns
        the failure, or ``None`` when it answered (``unknown`` counts:
        its restart recovery already finished the branch).  Nothing here
        retries or sleeps; crash simulations and, unsupervised, a dead
        worker propagate -- the caller owns recovery then.
        """
        try:
            self.router.shard_call(shard_id, ("decide", gid, True))
        except (SimulatedCrash, ShardCrashed):
            raise
        except Exception as exc:
            if not isinstance(exc, ShardUnavailableError):
                self._note("decision_delivery_failed", shard_id, f"{gid}: {exc}")
            return exc
        return None

    def queue(self, gid: str, shards) -> None:
        """Keep a durable commit decision these participants missed
        until redelivery or a certified restart completes it."""
        with self._lock:
            entry = self._pending.setdefault(gid, _Pending(set()))
            entry.shards.update(shards)
            detail = f"{gid} -> shards {sorted(entry.shards)}"
            self._note("decision_queued", None, detail)

    @property
    def pending(self) -> dict[str, tuple]:
        """gid -> the participants still owed that decision."""
        with self._lock:
            return {gid: tuple(sorted(p.shards)) for gid, p in self._pending.items()}

    def redeliver(self) -> int:
        """One pass over the queue: each decision past its backoff gets
        one :meth:`deliver` per participant still owed it.  Returns how
        many decisions the pass completed."""
        now = time.monotonic()
        with self._lock:
            due = [
                (gid, p, sorted(p.shards))
                for gid, p in self._pending.items()
                if p.next_try_at <= now
            ]
        completed = 0
        for gid, item, shards in due:
            for sid in shards:
                if self.deliver(gid, sid) is None:
                    with self._lock:
                        item.shards.discard(sid)
                    self._note("decision_delivered", sid, gid)
            with self._lock:
                if not item.shards:
                    self._pending.pop(gid, None)
                    self.repaired += 1
                    completed += 1
                else:
                    item.attempts += 1
                    item.next_try_at = now + min(
                        REPAIR_BACKOFF_CAP_S,
                        REPAIR_BACKOFF_BASE_S * 2 ** item.attempts,
                    )
        return completed

    def rejoined(self, shard_id: int, snapshot: frozenset) -> None:
        """Shard ``shard_id`` rejoined after a restart whose recovery
        resolved its in-doubt branches against ``snapshot``.

        A queued decision whose gid the snapshot contains is complete on
        this shard.  One the snapshot lacks was appended after it (the
        fence guarantees no such decision names a branch this recovery
        touched) and stays queued for the new incarnation.
        """
        with self._lock:
            for gid in [g for g in self._pending if g in snapshot]:
                entry = self._pending[gid]
                entry.shards.discard(shard_id)
                if not entry.shards:
                    del self._pending[gid]
                    self.repaired += 1
                    detail = f"{gid} (via restart recovery)"
                    self._note("decision_delivered", shard_id, detail)

    def _note(self, kind: str, shard_id: int | None, detail: str) -> None:
        # The supervisor's event log; appending takes no lock.
        sup = self.router.supervisor
        if sup is not None:
            sup.record(kind, shard_id, detail)
