"""The shard router: partitioned stores, 2PC transfers, parallel recovery.

:class:`ShardedDatabase` owns N shards (in-process or worker processes)
and routes whole transactions: every data op in a transaction is mapped
to a shard by one rule (:meth:`ShardedDatabase.route`, over the partition
spec); a one-shard transaction commits locally in one round trip, a
cross-shard transaction runs presumed-abort two-phase commit.  The 2PC
pieces are deliberately minimal:

- *Participants* are ordinary shard databases.  A prepare is the branch's
  redo migration plus a :class:`~repro.wal.records.TxnPrepareRecord`
  (flushed) on that shard's own WAL -- no new log, no new codec.
- *The coordinator's* durable state is the decision log
  (:class:`DecisionLog`): a fsync'd append-only file of committed gids.
  Absence means abort -- that is the whole presumed-abort protocol.
  Gids carry a persisted incarnation epoch (``g<epoch>.<seq>``) so a
  restarted coordinator can never mint a gid that collides with a
  committed one from a prior life.
- *Recovery* is per-shard and independent: each shard replays its own WAL
  through the existing :class:`~repro.recovery.restart.RestartRecovery`,
  which resolves any prepared branch it finds against the decision log.
  Shards never consult each other, so N recoveries run in N processes
  and wall-clock drops near-linearly (``bench --sharded`` measures it).

:class:`ShardRouter` is the sharded *transaction context* of a serve
session (:class:`~repro.serve.session.Session` interprets the protocol;
the router only routes): one instance holds at most one open (possibly
multi-shard) transaction, with slot ids transparently tagged with their
shard.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, fields

from repro.errors import (
    ConfigError,
    PartialDrainError,
    ShardError,
    ShardUnavailableError,
    SimulatedCrash,
    TwoPhaseCommitError,
)
from repro.faults.crashpoints import CrashPointRegistry
from repro.serve.protocol import DATA_OPS, ROW_OPS
from repro.shard.partition import PartitionSpec, shard_capacity
from repro.shard.shard import ShardCrashed, open_shard
from repro.storage.database import DBConfig

DECISION_LOG_FILE = "2pc.decisions"
EPOCH_FILE = "2pc.epoch"

#: Supervised, a decide delivery is retried inline this many times (with
#: capped-exponential backoff) before the supervisor's repair queue takes
#: over; unsupervised it is tried once.
DECIDE_RETRIES = 2
DECIDE_BACKOFF_BASE_S = 0.01
DECIDE_BACKOFF_CAP_S = 0.25


def _bump_epoch(dir_path: str) -> int:
    """Advance and persist the coordinator incarnation counter.

    Gids must be unique across coordinator restarts: the decision log
    durably remembers committed gids from prior incarnations, so a
    reused gid would let a crashed transaction's in-doubt branch resolve
    against a stale decision.  ``len(decisions)`` cannot seed a sequence
    either -- aborted gids are never written (presumed abort).  Each
    incarnation therefore claims a fresh epoch, fsync'd before any gid
    is handed out, and stamps it into every gid it generates.
    """
    path = os.path.join(dir_path, EPOCH_FILE)
    epoch = 0
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            text = handle.read().strip()
            if text:
                epoch = int(text)
    epoch += 1
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"{epoch}\n")
        handle.flush()
        os.fsync(handle.fileno())
    return epoch


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
        os.fsync(self._handle.fileno())
        self._committed.add(gid)

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


@dataclass
class ShardedConfig(DBConfig):
    """A :class:`DBConfig` plus partitioning.  Every ``DBConfig`` field
    reaches each shard (:meth:`db_config`); only the three below are
    genuinely sharded."""

    scheme: str = "data_codeword"
    n_shards: int = 1
    #: ``"inproc"`` runs every shard on the caller's thread (deterministic;
    #: what the identity properties and crash-point tests use);
    #: ``"process"`` runs one worker process per shard.  Read only by
    #: :func:`~repro.shard.shard.open_shard`.
    mode: str = "inproc"
    #: partition modulus: branch = key % branches (see PartitionSpec)
    branches: int = 2

    def shard_dir(self, shard_id: int) -> str:
        return _per_shard(self.dir, shard_id)

    def db_config(self, shard_id: int) -> DBConfig:
        """Shard ``shard_id``'s own config: every ``DBConfig`` field as set
        here, in the shard's own directory, with its own ``scheme_params``
        and (when one is set) its own ``image_path`` below this one."""
        values = {f.name: getattr(self, f.name) for f in fields(DBConfig)}
        values["dir"] = self.shard_dir(shard_id)
        values["scheme_params"] = dict(self.scheme_params)
        if self.image_path is not None:
            values["image_path"] = _per_shard(self.image_path, shard_id)
        return DBConfig(**values)

    def partition(self) -> PartitionSpec:
        return PartitionSpec(branches=self.branches, n_shards=self.n_shards)


def _per_shard(path: str, shard_id: int) -> str:
    return os.path.join(path, f"shard-{shard_id:02d}")


class ShardedDatabase:
    """N protected stores behind one transaction router."""

    def __init__(
        self, config: ShardedConfig, shards: list, decisions: DecisionLog
    ) -> None:
        self.config = config
        self.shards = shards
        self.partition = config.partition()
        self.decisions = decisions
        #: Router-side crash points (the ``twopc.pre_decide`` /
        #: ``after_decide`` / ``after_first_commit`` coordinator moments).
        self.crashpoints = CrashPointRegistry()
        self._epoch = _bump_epoch(config.dir)
        self._next_gid = 1
        self._closed = False
        #: Set by :meth:`~repro.shard.supervisor.ShardSupervisor.attach`.
        #: When None (the pre-supervision contract every existing test
        #: relies on) routed calls have no deadlines, a decide is tried
        #: once, and a dead worker raises :class:`ShardCrashed` to the
        #: caller, who owns recovery.  Supervised, the deadlines of the
        #: supervisor's ``config`` apply, decides retry, crashes are
        #: reported for automatic restart, and callers get fail-fast
        #: retryable :class:`~repro.errors.ShardUnavailableError`.
        self.supervisor = None
        #: Serializes commit decisions against restart-recovery snapshot
        #: reads (see :meth:`_fenced_decide`): a recovery snapshot taken
        #: under this lock either precedes a decision's incarnation fence
        #: (which then withholds the decision) or follows its append (and
        #: so includes the gid).
        self.decision_lock = threading.Lock()

    # ------------------------------------------------------ construction

    @classmethod
    def create(
        cls,
        config: ShardedConfig,
        table_defs: list[tuple],
        shard_crashpoints: list[CrashPointRegistry] | None = None,
    ) -> "ShardedDatabase":
        """Build N fresh shards.  ``table_defs`` are *global*
        ``(name, schema, capacity, key_field)`` tuples; each shard gets an
        even capacity split (exactly ``capacity`` when N=1)."""
        os.makedirs(config.dir, exist_ok=True)
        per_shard = [
            (name, schema, shard_capacity(capacity, config.n_shards), key_field)
            for name, schema, capacity, key_field in table_defs
        ]
        return cls._open(config, per_shard, shard_crashpoints)[0]

    @classmethod
    def recover(
        cls,
        config: ShardedConfig,
        shard_crashpoints: list[CrashPointRegistry] | None = None,
    ) -> tuple["ShardedDatabase", list[dict]]:
        """Recover every shard; returns ``(router, per-shard summaries)``
        (:meth:`~repro.shard.core.ShardCore.open`'s dicts, in both modes).

        In process mode the N recoveries run concurrently inside the N
        fresh worker processes -- this is the shard-parallel restart the
        benchmark's recovery curve measures.  Each shard resolves its
        in-doubt 2PC branches against the shared decision log.
        """
        return cls._open(config, None, shard_crashpoints)

    @classmethod
    def _open(
        cls,
        config: ShardedConfig,
        table_defs: list[tuple] | None,
        shard_crashpoints: list[CrashPointRegistry] | None,
    ) -> tuple["ShardedDatabase", list]:
        """Create (``table_defs`` given) or recover all N shards.  Every
        shard starts opening before any is waited on, so process shards
        open in parallel."""
        decision_path = os.path.join(config.dir, DECISION_LOG_FILE)
        committed = DecisionLog.load_committed(decision_path)
        registries = shard_crashpoints or [None] * config.n_shards
        shards = [
            open_shard(config, i, table_defs, committed, registries[i])
            for i in range(config.n_shards)
        ]
        summaries = [shard.wait_ready() for shard in shards]
        return cls(config, shards, DecisionLog(decision_path)), summaries

    # ----------------------------------------------------------- routing

    def route(self, op: tuple) -> tuple[int, tuple]:
        """The one routing rule: ``(shard id, the op as that shard runs
        it)`` for a data op ``(op, table, *args)``.

        The role of the field after ``table`` decides: a ``slot`` carries
        its shard in its tag (``global = local * n_shards + shard``, and
        the shard gets the local slot), a ``key`` goes to the key's shard
        and a row (``insert``'s values) to the row's.
        """
        name, table, first = op[:3]
        if name not in DATA_OPS:
            raise ConfigError(f"unknown data op {name!r}")
        role = DATA_OPS[name][1]
        if role == "slot":
            n_shards = self.config.n_shards
            return first % n_shards, (name, table, first // n_shards, *op[3:])
        if role == "key":
            return self.partition.shard_for_key(table, first), op
        return self.partition.shard_for_row(table, first), op

    def shard_for_op(self, op: tuple) -> int:
        """Which shard runs one data op."""
        return self.route(op)[0]

    def _split(self, ops: list) -> dict[int, list]:
        """Partition a transaction's ops by shard, preserving order."""
        groups: dict[int, list] = {}
        for op in ops:
            sid, local = self.route(op)
            groups.setdefault(sid, []).append(local)
        return groups

    # ----------------------------------------------- supervised dispatch

    def shard_call(self, shard_id: int, cmd: tuple, timeout: float | None = None):
        """Route one command to one shard with supervision semantics.

        Unsupervised this is ``shards[sid].call(cmd)``: no deadline,
        worker death raises :class:`ShardCrashed`.  Supervised, a shard
        that is down/hung/mid-recovery fails fast with a retryable
        :class:`~repro.errors.ShardUnavailableError` instead of blocking
        on (or crashing into) a dead pipe: the crash is reported to the
        supervisor, which restarts and recovers the shard while the
        surviving shards keep serving.  ``timeout=None`` means "the
        supervisor's ``call_timeout_s``".
        """
        sup = self.supervisor
        if sup is None:
            # No deadline, and no ``timeout`` argument: tests wrap
            # ``handle.call`` with single-argument fakes.
            return self.shards[shard_id].call(cmd)
        sup.ensure_serving(shard_id)
        if timeout is None:
            timeout = sup.config.call_timeout_s
        handle = self.shards[shard_id]
        try:
            return handle.call(cmd, timeout=timeout)
        except (ShardCrashed, ShardUnavailableError) as exc:
            raise self._shard_down(shard_id, handle, exc) from exc

    def _shard_down(self, shard_id: int, handle, exc) -> ShardUnavailableError:
        """Report a dead/hung shard; return the fail-fast replacement error."""
        self.supervisor.report_crash(shard_id, handle, reason=str(exc))
        return ShardUnavailableError(shard_id, "recovering", detail=str(exc))

    # ------------------------------------------------------ transactions

    def submit_txn(self, ops: list) -> list:
        """Run one whole transaction; single-shard fast path or 2PC.

        ``ops`` are data-op tuples; a one-shard transaction returns their
        results as its shard answered them (slots untagged), 2PC ``[]``.
        A shard that died or is mid-recovery fails this *fast* under
        supervision (retryable :class:`ShardUnavailableError` from
        :meth:`shard_call`) rather than blocking on the worker pipe.
        """
        self._require_open()
        groups = self._split(ops)
        if len(groups) == 1:
            ((sid, shard_ops),) = groups.items()
            return self.shard_call(sid, ("txn", shard_ops))
        self._commit_two_phase(groups)
        return []

    def submit_txn_nowait(self, ops: list) -> None:
        """Pipelined single-shard submission (the throughput fast path).

        Cross-shard transactions need votes before a decision, so they
        always run synchronously via :meth:`submit_txn`.
        """
        self._require_open()
        groups = self._split(ops)
        if len(groups) != 1:
            self.submit_txn(ops)
            return
        ((sid, shard_ops),) = groups.items()
        if self.supervisor is not None:
            self.supervisor.ensure_serving(sid)
        try:
            self.shards[sid].call_nowait(("txn", shard_ops))
        except (ShardCrashed, ShardUnavailableError) as exc:
            if self.supervisor is None:
                raise
            raise self._shard_down(sid, self.shards[sid], exc) from exc

    def drain(self) -> list:
        """Collect pipelined answers.  Supervised, a shard found dead or
        hung mid-drain loses that shard's un-acked backlog (those
        transactions are *indeterminate* until its restart recovery
        settles them): the shard is handed to the supervisor and a
        retryable :class:`~repro.errors.PartialDrainError` carries the
        surviving shards' answers plus a per-shard count of the lost
        submissions, so the caller can tell exactly which of its
        ``submit_txn_nowait`` calls have no answer.  Unsupervised the
        crash propagates as before."""
        results: list = []
        lost: dict[int, int] = {}
        sup = self.supervisor
        for shard in self.shards:
            backlog = shard.pending
            try:
                if sup is None:
                    results.extend(shard.drain())
                else:
                    results.extend(shard.drain(timeout=sup.config.call_timeout_s))
            except (ShardCrashed, ShardUnavailableError) as exc:
                if sup is None:
                    raise
                self._shard_down(shard.shard_id, shard, exc)
                lost[shard.shard_id] = backlog
        if lost:
            raise PartialDrainError(results, lost)
        return results

    def _new_gid(self) -> str:
        """A gid unique across all coordinator incarnations (epoch.seq)."""
        gid = f"g{self._epoch}.{self._next_gid}"
        self._next_gid += 1
        return gid

    def _prepare_token(self, shard_id: int) -> int:
        """Capture the shard's incarnation right before its prepare."""
        if self.supervisor is None:
            return 0
        return self.supervisor.prepare_token(shard_id)

    def _fenced_decide(
        self, gid: str, prepared: list[int], tokens: dict[int, int]
    ) -> list[int] | None:
        """Durably decide commit, fenced on participant incarnations.

        A restarting shard resolves its in-doubt branches against a
        decision-log snapshot; if that snapshot was read *before* this
        append, the recovered shard presumed-aborted the branch and a
        commit decision now would be acked to the caller while one
        branch is already rolled back -- an atomicity violation.  The
        fence closes the race: snapshot reads
        (:meth:`~repro.shard.supervisor.ShardSupervisor._recover_handle`)
        and this check+append are serialized by ``decision_lock``, so
        either every prepared participant is still its prepare-time
        incarnation when the decision lands (and any later snapshot
        includes the gid), or the decision is withheld and presumed
        abort rolls every branch back.

        Returns ``None`` when the decision was appended, else the
        sorted stale shard ids (restarted or no longer serving since
        their prepare); the caller aborts.
        """
        with self.decision_lock:
            sup = self.supervisor
            if sup is not None:
                stale = sorted(
                    sid
                    for sid in prepared
                    if not sup.can_decide(sid, tokens.get(sid, -1))
                )
                if stale:
                    return stale
            self.decisions.append(gid)
            return None

    def _fence_abort(
        self, gid: str, prepared: list[int], stale: list[int]
    ) -> TwoPhaseCommitError:
        """Presumed abort after a fence rejection: roll back the live
        branches (the stale shards' recoveries already did) and build
        the retryable outcome error."""
        self._abort_prepared(gid, prepared)
        return TwoPhaseCommitError(
            f"transaction {gid} aborted: shard(s) {stale} restarted "
            "between prepare and the commit decision, so their recovery "
            "resolved the branch against a decision-log snapshot that "
            "predates this decision (incarnation fence)",
            gid=gid,
        )

    def _abort_prepared(self, gid: str, prepared: list[int]) -> None:
        """Send abort to every prepared branch of ``gid``."""
        self._send_aborts({sid: ("decide", gid, False) for sid in prepared})

    def _send_aborts(self, cmds: dict[int, tuple]) -> None:
        """Send each shard its abort command, best-effort per shard.

        One failing shard must not skip the rest: each remaining branch
        holds exclusive locks until aborted.  Presumed abort makes a
        swallowed failure safe -- that shard's restart recovery rolls
        the branch back -- but live traffic on it blocks until then, so
        we still try every shard.  Crash simulations propagate: the
        whole node is dying and recovery handles everything.  Supervised,
        a dead shard is reported (its restart rolls the branch back) and
        the abort fan-out continues.
        """
        for sid, cmd in cmds.items():
            try:
                self.shard_call(sid, cmd)
            except (SimulatedCrash, ShardCrashed):
                raise
            except Exception:
                pass

    def _deliver_decide(self, gid: str, sid: int, commit: bool):
        """One decide delivery; supervised, with capped-exponential retry.

        Returns ``None`` on success or the final failure.  Retries only
        make sense for transient non-crash failures (a flaky transport
        wrapper, a momentarily saturated worker): a dead shard
        (:class:`ShardCrashed` unsupervised, converted to
        :class:`ShardUnavailableError` supervised) will not answer until
        its restart recovery runs, so hammering it is pointless -- the
        supervised path queues the delivery with the supervisor instead.
        """
        last: Exception | None = None
        retries = 0 if self.supervisor is None else DECIDE_RETRIES
        for attempt in range(retries + 1):
            if attempt:
                time.sleep(
                    min(DECIDE_BACKOFF_CAP_S, DECIDE_BACKOFF_BASE_S * 2 ** (attempt - 1))
                )
            try:
                self.shard_call(sid, ("decide", gid, commit))
                return None
            except SimulatedCrash:
                raise
            except ShardCrashed:
                raise  # unsupervised process mode: the caller recovers
            except ShardUnavailableError as exc:
                return exc  # supervisor already owns this shard's repair
            except Exception as exc:
                last = exc
        return last

    def _commit_prepared(self, gid: str, prepared: list[int]) -> None:
        """Send commit to every prepared branch after the decision is
        durable.  A non-crash failure on one shard must not strand the
        later participants holding locks, so every shard is attempted;
        failures are collected and surfaced once -- the transaction IS
        committed (the decision log says so), the failed branches just
        wait for that shard's restart recovery to complete them.

        Supervised, an undelivered decision is *not* an error at all:
        it is queued with the supervisor, whose repair loop (or the
        shard's restart recovery against the decision log) completes the
        branch, and the caller sees a committed transaction -- the PR-9
        "committed but undelivered" terminal condition becomes a
        transient, self-healing one.
        """
        undelivered: list[tuple[int, Exception]] = []
        first = True
        for sid in prepared:
            failure = self._deliver_decide(gid, sid, True)
            if failure is not None:
                undelivered.append((sid, failure))
            if first:
                self.crashpoints.reach("twopc.after_first_commit")
                first = False
        if not undelivered:
            return
        if self.supervisor is not None:
            self.supervisor.queue_decision_delivery(
                gid, [sid for sid, _ in undelivered]
            )
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

    def _two_phase(
        self, gid: str, prepares: dict[int, tuple], aborts: dict[int, tuple]
    ) -> None:
        """Presumed-abort 2PC: ``prepares`` maps each participant shard
        to the command that makes its branch vote; ``aborts`` to the
        command that rolls back a branch which never got to vote.

        Prepares carry a deadline under supervision
        (``prepare_timeout_s``): a participant that does not vote in
        time is treated exactly like a vote of *no* -- presumed abort
        rolls back the branches that did prepare, now or at the slow
        shard's restart.  That is what makes a hung worker a transient
        condition instead of a wedged coordinator.
        """
        prepared: list[int] = []
        tokens: dict[int, int] = {}
        sup = self.supervisor
        timeout = None if sup is None else sup.config.prepare_timeout_s
        for sid in sorted(prepares):
            tokens[sid] = self._prepare_token(sid)
            try:
                self.shard_call(sid, prepares[sid], timeout=timeout)
                prepared.append(sid)
            except SimulatedCrash:
                raise  # inproc crash simulation: whole process dies here
            except ShardCrashed:
                raise  # process mode: the worker is gone; recover
            except BaseException as failure:
                # Presumed abort: nothing durable names this gid; roll
                # back every branch and surface the vote-no cause.
                self._abort_prepared(gid, prepared)
                self._send_aborts(
                    {s: aborts[s] for s in sorted(aborts) if s not in prepared}
                )
                raise TwoPhaseCommitError(
                    f"transaction {gid} aborted: {failure}"
                ) from failure
        self.crashpoints.reach("twopc.pre_decide")
        stale = self._fenced_decide(gid, prepared, tokens)
        if stale is not None:
            raise self._fence_abort(gid, prepared, stale)
        self.crashpoints.reach("twopc.after_decide")
        self._commit_prepared(gid, prepared)

    def _commit_two_phase(self, groups: dict[int, list]) -> None:
        """2PC over ``groups`` (shard id -> ops): each branch runs its
        ops and votes in one round trip.  A branch that fails aborts
        itself in the shard and the later ones never begin."""
        gid = self._new_gid()
        self._two_phase(
            gid, {sid: ("txn_prepare", gid, ops) for sid, ops in groups.items()}, {}
        )

    def commit_session(self, open_txns: dict[int, int]) -> None:
        """Commit a session's open per-shard transactions (serve front).

        ``open_txns`` maps shard id -> open transaction id.  One shard
        commits locally; several run 2PC over the already-open branches.
        """
        self._require_open()
        if not open_txns:
            return
        if len(open_txns) == 1:
            ((sid, txn_id),) = open_txns.items()
            self.shard_call(sid, ("commit", txn_id))
            return
        gid = self._new_gid()
        self._two_phase(
            gid,
            {sid: ("prepare", txn_id, gid) for sid, txn_id in open_txns.items()},
            {sid: ("abort", txn_id) for sid, txn_id in open_txns.items()},
        )

    # -------------------------------------------------- admin / queries

    def call_all(self, cmd: tuple) -> list:
        return [shard.call(cmd) for shard in self.shards]

    def checkpoint_all(self) -> list:
        return self.call_all(("checkpoint",))

    def audit_all(self) -> list:
        return self.call_all(("audit",))

    def content_digest(self) -> dict:
        """Order-independent logical digest, merged across shards."""
        merged: dict[str, int] = {}
        for digests in self.call_all(("content_digest",)):
            for table, digest in digests.items():
                merged[table] = merged.get(table, 0) ^ digest
        return merged

    def sum_field(self, table: str, field_name: str) -> int:
        return sum(self.call_all(("sum_field", table, field_name)))

    def row_count(self, table: str) -> int:
        return sum(self.call_all(("row_count", table)))

    def meters(self) -> list[dict]:
        return self.call_all(("meter",))

    def quarantined(self) -> dict[int, tuple]:
        return {
            sid: regions
            for sid, regions in enumerate(self.call_all(("quarantined",)))
        }

    def repair_all(self) -> int:
        return sum(self.call_all(("repair",)))

    def wild_write(self, table: str, key: int, offset: int, data: bytes) -> int:
        """Scribble on one record, bypassing the prescribed interface."""
        sid = self.partition.shard_for_key(table, key)
        return self.shards[sid].call(("wild_write", table, key, offset, data))

    # ---------------------------------------------------------- lifecycle

    def crash(self) -> None:
        """Simulate failure of the whole node: every shard dies."""
        for shard in self.shards:
            shard.terminate()
        self.decisions.close()
        self._closed = True

    def crash_shard(self, shard_id: int) -> None:
        """Kill one shard only; the rest keep serving."""
        self.shards[shard_id].terminate()

    def close(self) -> None:
        if self._closed:
            return
        for shard in self.shards:
            try:
                shard.close()
            except Exception:
                pass
        self.decisions.close()
        self._closed = True

    def _require_open(self) -> None:
        if self._closed:
            raise ShardError("sharded database is closed")


class ShardRouter:
    """The sharded transaction context of a serve session.

    What is genuinely sharded about a session's transaction, and nothing
    else (validation, state checks and containment are the session's):
    pick the shard (:meth:`ShardedDatabase.route`), open that shard's
    branch lazily, tag returned slots (``global_slot = local_slot *
    n_shards + shard_id``, so later ops by slot route without a lookup), and on
    ``commit`` hand the open branches to
    :meth:`ShardedDatabase.commit_session` (local commit for one shard,
    2PC for several).
    """

    def __init__(self, db: ShardedDatabase, on_branch_open=None) -> None:
        self.db = db
        #: shard id -> that shard's open branch (a shard-local txn id)
        self.open_txns: dict[int, int] = {}
        self.in_txn = False
        #: Where the last op ran, so the serve layer can attribute a
        #: ``LockError`` to (shard, holder txn) -- txn ids alone collide
        #: across shards.
        self.last_shard: int | None = None
        #: Called with ``(shard_id, txn_id)`` when a branch opens (the
        #: serve layer registers it for deadlock detection).
        self._on_branch_open = on_branch_open

    def begin(self) -> int:
        self.in_txn = True
        return 0

    def apply(self, op: str, table: str, *args):
        sid, data = self.db.route((op, table, *args))
        self.last_shard = sid
        txn_id = self.open_txns.get(sid)
        if txn_id is None:
            txn_id = self.open_txns[sid] = self.db.shard_call(sid, ("begin",))
            if self._on_branch_open is not None:
                self._on_branch_open(sid, txn_id)
        value = self.db.shard_call(sid, ("apply", txn_id, *data))
        if value is None or op in ROW_OPS:
            return value
        return value * self.db.config.n_shards + sid

    def commit(self) -> int:
        self.db.commit_session(self._take_open())
        return 0

    def abort(self) -> int:
        """Roll back every branch (:meth:`ShardedDatabase._send_aborts`:
        best-effort per shard, crashes propagate)."""
        self.db._send_aborts(
            {sid: ("abort", txn_id) for sid, txn_id in self._take_open().items()}
        )
        return 0

    def _take_open(self) -> dict[int, int]:
        txns, self.open_txns = self.open_txns, {}
        self.in_txn = False
        return txns
