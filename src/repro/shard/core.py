"""One shard's command interpreter: a Database driven by picklable tuples.

The same interpreter backs both execution modes.  In-process mode calls
:meth:`ShardCore.execute` directly (deterministic, for tests and identity
properties); process mode runs it inside a ``multiprocessing`` worker with
commands arriving over a pipe (:mod:`repro.shard.worker`).  Commands are
plain tuples -- nothing that crosses the boundary holds a database object
or a closure, so every command pickles.

A shard speaks one op vocabulary: a data op is the tuple ``(op, table,
*args)`` of :data:`repro.serve.protocol.DATA_OPS`, and every command that
carries one hands it unchanged to :meth:`Database.apply
<repro.storage.database.Database.apply>`.  Transaction state is explicit:
``("begin",)`` returns a transaction id and subsequent commands name it,
which lets the serve-protocol router hold transactions open across
requests -- ``("apply", txn_id, op, table, *args)`` runs one data op.  The
``("txn", ops)`` form is the one-round-trip fast path for whole
transactions (what the throughput benchmark uses); ``("txn_prepare", gid,
ops)`` is its 2PC twin, ending in a prepare vote instead of a commit.
"""

from __future__ import annotations

import time

from repro.core.codeword import fold_words
from repro.errors import ConfigError, ReproError, SimulatedCrash
from repro.faults.crashpoints import CrashPointRegistry
from repro.storage.database import Database, DBConfig
from repro.txn.transaction import TxnStatus


class ShardCore:
    """Interprets shard commands against one protected store."""

    def __init__(self, db: Database) -> None:
        self.db = db
        self._txns: dict[int, object] = {}
        self._prepared: dict[str, object] = {}

    # ------------------------------------------------------ construction

    @classmethod
    def open(
        cls,
        config: DBConfig,
        table_defs: list[tuple] | None = None,
        committed: frozenset = frozenset(),
        crashpoints: CrashPointRegistry | None = None,
    ) -> tuple["ShardCore", dict | None]:
        """Build and start a fresh shard (``table_defs`` given) or recover
        one from its directory; returns ``(core, summary)``.

        Prepared 2PC branches found on a recovered shard's log are
        resolved against ``committed`` (the router's decision-log
        snapshot); recovery itself commits or rolls them back, so the
        core starts with no prepared transactions.  ``summary`` is the
        picklable recovery report both execution modes hand back, None
        after a create.
        """
        if table_defs is not None:
            db = Database(config, crashpoints=crashpoints)
            for name, schema, capacity, key_field in table_defs:
                db.create_table(name, schema, capacity, key_field=key_field)
            db.start()
            return cls(db), None
        wall_began = time.perf_counter()
        cpu_began = time.process_time()
        db, report = Database.recover(
            config, crashpoints=crashpoints, in_doubt_resolver=committed.__contains__
        )
        return cls(db), {
            "mode": report.mode,
            "redo_applied": report.redo_applied,
            "rolled_back": list(report.rolled_back),
            "resolved_committed": list(report.resolved_committed),
            "resolved_aborted": list(report.resolved_aborted),
            # Both clocks: on a machine with >= N cores they agree; on
            # fewer cores the OS timeslices the N workers and the wall
            # number smears, while per-worker CPU time still measures
            # each shard's true share of the replay work (max across
            # workers = the N-core critical path).
            "recovery_wall_s": time.perf_counter() - wall_began,
            "recovery_cpu_s": time.process_time() - cpu_began,
            "phase_seconds": dict(report.phase_seconds),
        }

    # ---------------------------------------------------------- dispatch

    def execute(self, cmd: tuple):
        """Run one command tuple; returns a picklable result."""
        kind = cmd[0]
        handler = getattr(self, f"_cmd_{kind}", None)
        if handler is None:
            raise ConfigError(f"unknown shard command {kind!r}")
        return handler(*cmd[1:])

    # ------------------------------------------------- transaction forms

    def _cmd_begin(self) -> int:
        txn = self.db.begin()
        self._txns[txn.txn_id] = txn
        return txn.txn_id

    def _cmd_apply(self, txn_id: int, op: str, table: str, *args):
        """One data op on an open transaction."""
        return self.db.apply(self._txn(txn_id), op, table, *args)

    def _cmd_commit(self, txn_id: int) -> int:
        self.db.commit(self._take(txn_id))
        return txn_id

    def _cmd_abort(self, txn_id: int) -> int:
        self.db.abort(self._take(txn_id))
        return txn_id

    def _cmd_prepare(self, txn_id: int, gid: str) -> str:
        self._vote(self._take(txn_id), gid)
        return "prepared"

    def _vote(self, txn, gid: str) -> None:
        """Prepare ``txn`` under ``gid`` and hold it for the decision."""
        try:
            self.db.prepare(txn, gid)
        except SimulatedCrash:
            raise
        except BaseException:
            # A failed prepare must not orphan the branch: it is no
            # longer in _txns, so it is reachable by neither ("abort",
            # txn_id) nor ("decide", gid, ...), and an ACTIVE txn left
            # behind holds its exclusive locks until restart.
            if txn.status is TxnStatus.ACTIVE:
                self.db.abort(txn)
            raise
        self._prepared[gid] = txn

    def _cmd_decide(self, gid: str, commit: bool) -> str:
        """Finish a prepared branch.  Unknown gids are reported, not an
        error: after a crash, restart recovery already resolved them."""
        txn = self._prepared.pop(gid, None)
        if txn is None:
            return "unknown"
        if commit:
            self.db.commit_prepared(txn)
            return "committed"
        self.db.abort_prepared(txn)
        return "aborted"

    def _cmd_txn(self, ops: list) -> list:
        """One whole transaction in one round trip."""
        return self._run(ops, None)

    def _cmd_txn_prepare(self, gid: str, ops: list) -> list:
        """A 2PC participant branch in one round trip: work, then vote."""
        return self._run(ops, gid)

    def _run(self, ops: list, gid: str | None) -> list:
        """Run ``ops`` in a new transaction, then commit it or, given a
        ``gid``, prepare it; any failure but a crash rolls it back."""
        txn = self.db.begin()
        try:
            results = [self.db.apply(txn, *op) for op in ops]
        except SimulatedCrash:
            raise  # a crash writes nothing more; Database.crash follows
        except BaseException:
            self.db.abort(txn)
            raise
        if gid is None:
            self.db.commit(txn)
        else:
            self._vote(txn, gid)
        return results

    def _txn(self, txn_id: int):
        txn = self._txns.get(txn_id)
        if txn is None:
            raise ConfigError(f"no open transaction {txn_id}")
        return txn

    def _take(self, txn_id: int):
        """Remove and return open transaction ``txn_id``."""
        txn = self._txn(txn_id)
        del self._txns[txn_id]
        return txn

    # -------------------------------------------------- admin / queries

    def _cmd_checkpoint(self) -> bool:
        return bool(self.db.checkpoint().certified)

    def _cmd_audit(self) -> tuple:
        """Full audit; returns ``(clean, corrupt_regions, byte_ranges)``.

        The byte ranges let a parent-side campaign score detection
        against injector ground truth without reaching into the shard.
        """
        report = self.db.audit()
        return (
            report.clean,
            tuple(report.corrupt_regions),
            tuple(report.corrupt_byte_ranges),
        )

    def _cmd_flush(self) -> None:
        self.db.manager.flush_commits()

    def _cmd_meter(self) -> dict:
        return self.db.meter.snapshot()

    def _cmd_clock(self) -> int:
        """The shard's virtual clock (ns) -- the Table 2 measurement
        protocol, per shard.  Shards tick independently, so the virtual
        elapsed time of a sharded run is the *max* across shards."""
        return self.db.clock.now_ns

    def _cmd_snapshot(self) -> dict:
        return self.db.memory.snapshot_segments()

    def _cmd_content_digest(self) -> dict:
        """Order-independent per-table digest of the live logical content.

        XOR of ``fold_words(record_bytes)`` over every allocated slot:
        equal across any sharding of the same rows (XOR is commutative),
        which is what the reshard-invariance property checks.
        """
        digests: dict[str, int] = {}
        txn = self.db.begin()
        try:
            for name, table in self.db.tables.items():
                acc = 0
                for slot in table.scan_slots(txn):
                    acc ^= fold_words(table.read_bytes(txn, slot))
                digests[name] = acc
        finally:
            self.db.commit(txn)
        return digests

    def _cmd_sum_field(self, table_name: str, field_name: str) -> int:
        total = 0
        txn = self.db.begin()
        try:
            table = self.db.table(table_name)
            for slot in table.scan_slots(txn):
                total += table.read(txn, slot)[field_name]
        finally:
            self.db.commit(txn)
        return total

    def _cmd_row_count(self, table_name: str) -> int:
        txn = self.db.begin()
        try:
            return self.db.table(table_name).row_count(txn)
        finally:
            self.db.commit(txn)

    def _cmd_quarantined(self) -> tuple:
        return tuple(self.db.quarantined_regions())

    def _cmd_repair(self) -> int:
        return self.db.repair_quarantined()

    def _cmd_wild_write(self, table_name: str, key: int, offset: int, data: bytes):
        """A wild write: scribble on a record through ``poke``, bypassing
        the prescribed interface -- the fault the codewords exist to catch."""
        txn = self.db.begin()
        table = self.db.table(table_name)
        slot = table.lookup(txn, key)
        self.db.commit(txn)
        if slot is None:
            raise ReproError(f"{table_name} key {key} not found")
        address = table.record_address(slot) + offset
        self.db.memory.poke(address, data)
        return address

    def _cmd_ping(self) -> str:
        return "pong"

    def _cmd_hang(self, seconds: float) -> str:
        """Fault injection: stall the shard's command loop.

        In process mode the worker sleeps on its single command thread,
        so the shard stops answering -- the deterministic stand-in for
        an infinite loop or a lost thread, which the supervisor must
        detect by heartbeat timeout rather than by process death."""
        time.sleep(seconds)
        return "woke"

    def _cmd_crash(self) -> None:
        self.db.crash()

    def _cmd_close(self) -> None:
        self.db.close()
