"""The shard router: partitioned stores, routed transactions, parallel recovery.

:class:`ShardedDatabase` owns N shards (in-process or worker processes)
and routes whole transactions: every data op in a transaction is mapped
to a shard by one rule (:meth:`ShardedDatabase.route`, over the partition
spec); a one-shard transaction commits locally in one round trip, a
cross-shard one goes to the router's
:class:`~repro.shard.coordinator.Coordinator` (presumed-abort two-phase
commit, the decision log, gids, decision delivery).

- *Participants* are ordinary shard databases.  A prepare is the branch's
  redo migration plus a :class:`~repro.wal.records.TxnPrepareRecord`
  (flushed) on that shard's own WAL -- no new log, no new codec.
- *Recovery* is per-shard and independent: each shard replays its own WAL
  through the existing :class:`~repro.recovery.restart.RestartRecovery`,
  which resolves any prepared branch it finds against the coordinator's
  committed set.  Shards never consult each other, so N recoveries run in
  N processes and wall-clock drops near-linearly (``bench --sharded``
  measures it).

:class:`ShardRouter` is the sharded *transaction context* of a serve
session (:class:`~repro.serve.session.Session` interprets the protocol;
the router only routes): one instance holds at most one open (possibly
multi-shard) transaction, with slot ids transparently tagged with their
shard.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields

from repro.errors import (
    ConfigError,
    PartialDrainError,
    ShardError,
    ShardUnavailableError,
)
from repro.faults.crashpoints import CrashPointRegistry
from repro.serve.protocol import DATA_OPS, ROW_OPS
# DECISION_LOG_FILE and DecisionLog stay importable from this module.
from repro.shard.coordinator import DECISION_LOG_FILE, Coordinator, DecisionLog
from repro.shard.partition import PartitionSpec, shard_capacity
from repro.shard.shard import ShardCrashed, open_shard
from repro.storage.database import DBConfig


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

    def __init__(self, config: ShardedConfig) -> None:
        """A router with no shards yet (:meth:`create` / :meth:`recover`
        open them) and its coordinator, which opens the decision log and
        claims this incarnation's gid epoch."""
        self.config = config
        self.shards: list = []
        self.partition = config.partition()
        #: Router-side crash points (the ``twopc.pre_decide`` /
        #: ``after_decide`` / ``after_first_commit`` coordinator moments).
        self.crashpoints = CrashPointRegistry()
        self._closed = False
        #: Set by :meth:`~repro.shard.supervisor.ShardSupervisor.attach`.
        #: When None routed calls have no deadlines and a dead worker
        #: raises :class:`ShardCrashed` to the caller, who owns recovery.
        #: Supervised, the supervisor's ``config`` deadlines apply,
        #: crashes are reported for automatic restart, and callers get a
        #: fail-fast retryable :class:`~repro.errors.ShardUnavailableError`.
        self.supervisor = None
        self.coordinator = Coordinator(self)
        #: The coordinator's log; its length counts committed 2PC gids.
        self.decisions: DecisionLog = self.coordinator.decisions

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
        in-doubt 2PC branches against the coordinator's committed set.
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
        db = cls(config)
        committed = db.coordinator.snapshot()
        registries = shard_crashpoints or [None] * config.n_shards
        try:
            for i in range(config.n_shards):
                db.shards.append(
                    open_shard(config, i, table_defs, committed, registries[i])
                )
            summaries = [shard.wait_ready() for shard in db.shards]
        except BaseException:
            db.crash()  # the shards opened so far, and the decision log
            raise
        return db, summaries

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
        gid = self.coordinator.new_gid()
        self.coordinator.two_phase(
            gid, {sid: ("txn_prepare", gid, ops) for sid, ops in groups.items()}, {}
        )
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

    def commit_session(self, open_txns: dict[int, int]) -> None:
        """Commit a session's open per-shard transactions (serve front).

        ``open_txns`` maps shard id -> open transaction id.  One shard
        commits locally; several run the coordinator's 2PC over the
        already-open branches.
        """
        self._require_open()
        if not open_txns:
            return
        if len(open_txns) == 1:
            ((sid, txn_id),) = open_txns.items()
            self.shard_call(sid, ("commit", txn_id))
            return
        gid = self.coordinator.new_gid()
        self.coordinator.two_phase(
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
        """Simulate failure of the whole node: every shard dies, and
        nothing restarts one (supervision stops)."""
        self._shut_down()
        for shard in self.shards:
            shard.terminate()
        self.coordinator.close()

    def crash_shard(self, shard_id: int) -> None:
        """Kill one shard only; the rest keep serving."""
        self.shards[shard_id].terminate()

    def close(self) -> None:
        """Close every shard; supervision stops first."""
        if self._closed:
            return
        self._shut_down()
        for shard in self.shards:
            try:
                shard.close()
            except Exception:
                pass
        self.coordinator.close()

    @property
    def closed(self) -> bool:
        return self._closed

    def _shut_down(self) -> None:
        """Refuse new work and stop supervision: a tick that reopened a
        shard would write it alongside the owner's next open."""
        self._closed = True
        if self.supervisor is not None:
            self.supervisor.stop()

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
        """Roll back every branch
        (:meth:`~repro.shard.coordinator.Coordinator.send_aborts`:
        best-effort per shard, crashes propagate)."""
        self.db.coordinator.send_aborts(
            {sid: ("abort", txn_id) for sid, txn_id in self._take_open().items()}
        )
        return 0

    def _take_open(self) -> dict[int, int]:
        txns, self.open_txns = self.open_txns, {}
        self.in_txn = False
        return txns
