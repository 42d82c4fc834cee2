"""Two-phase commit: prepare records, prepared-transaction API, and the
crash matrix over every coordinator/participant crash point.

The protocol is presumed-abort: a participant's prepare is durable on its
own WAL (a ``TxnPrepareRecord`` behind the normal codec), the
coordinator's only durable state is the fsync'd decision log of committed
gids, and recovery resolves in-doubt branches by asking "is this gid in
the decision log?".  A crash anywhere must leave the two shards
consistent: either both branches of a transfer applied or neither --
never lost or doubled funds.
"""

from __future__ import annotations

import os

import pytest

from repro import CrashPointRegistry, Database, DBConfig, Field, FieldType, Schema
from repro.errors import (
    ShardError,
    ShardUnavailableError,
    SimulatedCrash,
    TransactionError,
    TwoPhaseCommitError,
)
from repro.faults.crashpoints import CRASH_POINTS, TWOPC_CRASH_POINTS
from repro.shard import DecisionLog, ShardedConfig, ShardedDatabase
from repro.shard.core import ShardCore
from repro.txn.transaction import TxnStatus
from repro.wal.records import (
    RECORD_TYPE_CODES,
    RecordType,
    TxnPrepareRecord,
    decode_record,
    encode_record,
)

ACCOUNT_SCHEMA = Schema(
    [
        Field("aid", FieldType.INT64),
        Field("balance", FieldType.INT64),
    ]
)


class TestPrepareRecordCodec:
    def test_roundtrip(self):
        record = TxnPrepareRecord(txn_id=77, gid="g123")
        decoded, offset = decode_record(bytes(encode_record(record)))
        assert isinstance(decoded, TxnPrepareRecord)
        assert decoded.txn_id == 77
        assert decoded.gid == "g123"
        assert offset > 0

    def test_empty_gid_roundtrip(self):
        record = TxnPrepareRecord(txn_id=1, gid="")
        decoded, _ = decode_record(bytes(encode_record(record)))
        assert decoded.gid == ""

    def test_registered_in_type_codes(self):
        assert RECORD_TYPE_CODES[TxnPrepareRecord] == RecordType.TXN_PREPARE

    def test_twopc_points_are_registered(self):
        assert set(TWOPC_CRASH_POINTS) <= set(CRASH_POINTS)


class TestPrepareAPI:
    """Direct Database.prepare / commit_prepared / abort_prepared."""

    def _make(self, tmp_path, name: str) -> tuple[Database, DBConfig]:
        config = DBConfig(dir=str(tmp_path / name), scheme="data_codeword")
        db = Database(config)
        db.create_table("account", ACCOUNT_SCHEMA, 32, key_field="aid")
        db.start()
        return db, config

    def _insert(self, db: Database, aid: int, balance: int) -> int:
        txn = db.begin()
        slot = db.table("account").insert(txn, {"aid": aid, "balance": balance})
        db.commit(txn)
        return slot

    def test_prepare_then_commit(self, tmp_path):
        db, _ = self._make(tmp_path, "commit")
        slot = self._insert(db, 1, 100)
        txn = db.begin()
        db.table("account").update(txn, slot, {"balance": 130})
        db.prepare(txn, "g1")
        assert txn.status is TxnStatus.PREPARED
        assert txn.gid == "g1"
        db.commit_prepared(txn)
        assert txn.status is TxnStatus.COMMITTED
        check = db.begin()
        assert db.table("account").read(check, slot)["balance"] == 130
        db.commit(check)
        db.close()

    def test_prepare_then_abort(self, tmp_path):
        db, _ = self._make(tmp_path, "abort")
        slot = self._insert(db, 1, 100)
        txn = db.begin()
        db.table("account").update(txn, slot, {"balance": 999})
        db.prepare(txn, "g1")
        db.abort_prepared(txn)
        check = db.begin()
        assert db.table("account").read(check, slot)["balance"] == 100
        db.commit(check)
        db.close()

    def test_commit_prepared_requires_prepare(self, tmp_path):
        db, _ = self._make(tmp_path, "req")
        txn = db.begin()
        with pytest.raises(TransactionError):
            db.commit_prepared(txn)
        db.abort(txn)
        db.close()

    def test_recovery_commits_resolved_gid(self, tmp_path):
        db, config = self._make(tmp_path, "recov-commit")
        slot = self._insert(db, 1, 100)
        txn = db.begin()
        db.table("account").update(txn, slot, {"balance": 170})
        db.prepare(txn, "g9")
        db.crash()
        recovered, report = Database.recover(
            config, in_doubt_resolver=lambda gid: gid == "g9"
        )
        assert txn.txn_id in report.resolved_committed
        check = recovered.begin()
        assert recovered.table("account").read(check, slot)["balance"] == 170
        recovered.commit(check)
        recovered.close()

    def test_recovery_presumes_abort_without_decision(self, tmp_path):
        db, config = self._make(tmp_path, "recov-abort")
        slot = self._insert(db, 1, 100)
        txn = db.begin()
        db.table("account").update(txn, slot, {"balance": 170})
        db.prepare(txn, "g9")
        db.crash()
        recovered, report = Database.recover(config)  # no resolver: abort
        assert txn.txn_id in report.resolved_aborted
        check = recovered.begin()
        assert recovered.table("account").read(check, slot)["balance"] == 100
        recovered.commit(check)
        recovered.close()

    def test_recovery_is_idempotent_for_resolved_commit(self, tmp_path):
        db, config = self._make(tmp_path, "recov-twice")
        slot = self._insert(db, 1, 100)
        txn = db.begin()
        db.table("account").update(txn, slot, {"balance": 170})
        db.prepare(txn, "g9")
        db.crash()
        first, _ = Database.recover(
            config, in_doubt_resolver=lambda gid: gid == "g9"
        )
        first.crash()
        second, report = Database.recover(
            config, in_doubt_resolver=lambda gid: gid == "g9"
        )
        assert report.resolved_committed == ()  # already ended on the log
        check = second.begin()
        assert second.table("account").read(check, slot)["balance"] == 170
        second.commit(check)
        second.close()


def _build_sharded(
    tmp_path,
    name: str,
    shard_registries: list[CrashPointRegistry] | None = None,
) -> tuple[ShardedDatabase, ShardedConfig]:
    config = ShardedConfig(
        dir=str(tmp_path / name),
        n_shards=2,
        mode="inproc",
        branches=2,
        scheme="data_codeword",
    )
    db = ShardedDatabase.create(
        config,
        [("account", ACCOUNT_SCHEMA, 32, "aid")],
        shard_crashpoints=shard_registries,
    )
    # aid 0 -> branch 0 -> shard 0; aid 1 -> branch 1 -> shard 1.
    db.submit_txn([("insert", "account", {"aid": 0, "balance": 100})])
    db.submit_txn([("insert", "account", {"aid": 1, "balance": 100})])
    return db, config


TRANSFER = [
    ("add", "account", 0, {"balance": -30}),
    ("add", "account", 1, {"balance": 30}),
]


def _balances(db: ShardedDatabase) -> tuple[int, int]:
    a = db.submit_txn([("query", "account", 0)])[0]["balance"]
    b = db.submit_txn([("query", "account", 1)])[0]["balance"]
    return a, b


class TestCrossShardTransfer:
    def test_transfer_moves_funds(self, tmp_path):
        db, _ = _build_sharded(tmp_path, "ok")
        db.submit_txn(TRANSFER)
        assert _balances(db) == (70, 130)
        assert len(db.decisions) == 1
        db.close()

    def test_vote_no_aborts_prepared_branch(self, tmp_path):
        db, _ = _build_sharded(tmp_path, "voteno")
        bad = [
            ("add", "account", 0, {"balance": -30}),
            ("add", "account", 999, {"balance": 30}),  # no such key: vote no
        ]
        with pytest.raises(TwoPhaseCommitError):
            db.submit_txn(bad)
        # Presumed abort: the prepared shard-0 branch rolled back and
        # nothing durable names the gid.
        assert _balances(db) == (100, 100)
        assert len(db.decisions) == 0
        db.close()

    def test_single_shard_txns_skip_2pc(self, tmp_path):
        db, _ = _build_sharded(tmp_path, "local")
        db.submit_txn([("add", "account", 0, {"balance": 5})])
        assert len(db.decisions) == 0
        db.close()


class TestTwoPcCrashMatrix:
    """Crash at every 2PC crash point, on every side that reaches it.

    ``twopc.pre_prepare`` / ``twopc.after_prepare`` are participant
    moments (armed per shard); ``twopc.pre_decide`` / ``after_decide`` /
    ``after_first_commit`` are coordinator moments (armed on the
    router).  After each crash the node is recovered and must show
    atomicity: total funds conserved AND the outcome agrees with the
    decision log (committed gid => both branches, absent => neither).
    """

    PARTICIPANT_POINTS = ("twopc.pre_prepare", "twopc.after_prepare")
    COORDINATOR_POINTS = (
        "twopc.pre_decide",
        "twopc.after_decide",
        "twopc.after_first_commit",
    )

    def _run_crash(self, tmp_path, name, point, side):
        registries = [CrashPointRegistry(), CrashPointRegistry()]
        db, config = _build_sharded(tmp_path, name, shard_registries=registries)
        if side == "router":
            db.crashpoints.arm(point)
        else:
            registries[side].arm(point)
        with pytest.raises(SimulatedCrash):
            db.submit_txn(TRANSFER)
        db.crash()
        committed = DecisionLog.load_committed(
            os.path.join(config.dir, "2pc.decisions")
        )
        recovered, _reports = ShardedDatabase.recover(config)
        balances = _balances(recovered)
        assert sum(balances) == 200, f"{point} on {side}: funds not conserved"
        if committed:
            assert balances == (70, 130), f"{point} on {side}: lost commit"
        else:
            assert balances == (100, 100), f"{point} on {side}: partial apply"
        recovered.close()

    @pytest.mark.parametrize("point", PARTICIPANT_POINTS)
    @pytest.mark.parametrize("shard", [0, 1])
    def test_participant_crash(self, tmp_path, point, shard):
        self._run_crash(tmp_path, f"{point}-{shard}", point, shard)

    @pytest.mark.parametrize("point", COORDINATOR_POINTS)
    def test_coordinator_crash(self, tmp_path, point):
        self._run_crash(tmp_path, f"{point}-router", point, "router")

    def test_after_decide_crash_preserves_the_commit(self, tmp_path):
        """The decision hit the log before any participant committed;
        recovery must drive BOTH branches forward from the prepare
        records alone."""
        db, config = _build_sharded(tmp_path, "decided")
        db.crashpoints.arm("twopc.after_decide")
        with pytest.raises(SimulatedCrash):
            db.submit_txn(TRANSFER)
        db.crash()
        recovered, reports = ShardedDatabase.recover(config)
        assert _balances(recovered) == (70, 130)
        # Each shard's recovery resolved exactly one in-doubt branch.
        assert [len(r["resolved_committed"]) for r in reports] == [1, 1]
        recovered.close()


class TestTwoPcHardening:
    """Regression tests for the 2PC hardening fixes: gid uniqueness
    across coordinator incarnations, exception-safe session prepare,
    guarded decide fan-out, and the closed-router nowait check."""

    def test_gids_survive_coordinator_restart(self, tmp_path):
        """A restarted coordinator must never mint a gid that collides
        with a committed gid from a prior life: a crashed transaction's
        in-doubt branch would resolve against the stale decision-log
        entry and COMMIT, half-applying a transfer nobody decided."""
        db, config = _build_sharded(tmp_path, "epoch")
        db.submit_txn(TRANSFER)  # incarnation 1 commits a gid durably
        assert len(db.decisions) == 1
        db.close()

        # Incarnation 2: shard 0 prepares, then shard 1 dies before its
        # prepare -- the classic in-doubt single branch.
        registries = [CrashPointRegistry(), CrashPointRegistry()]
        registries[1].arm("twopc.pre_prepare")
        second, _ = ShardedDatabase.recover(config, shard_crashpoints=registries)
        with pytest.raises(SimulatedCrash):
            second.submit_txn(TRANSFER)
        second.crash()

        # Nothing durable decided the second transfer, so recovery must
        # presume abort.  With a reused gid it would instead find the
        # FIRST transfer's commit decision and apply only the debit.
        third, _ = ShardedDatabase.recover(config)
        assert _balances(third) == (70, 130)
        third.close()

    def test_incarnation_epoch_is_monotone(self, tmp_path):
        db, config = _build_sharded(tmp_path, "monotone")
        first_epoch = db.coordinator.epoch
        db.close()
        second, _ = ShardedDatabase.recover(config)
        assert second.coordinator.epoch > first_epoch
        second.close()

    def test_failed_session_prepare_releases_the_branch(
        self, tmp_path, monkeypatch
    ):
        """If ``("prepare", txn_id, gid)`` fails mid-call the branch must
        be aborted, not left ACTIVE in the ATT holding exclusive locks
        while reachable by neither abort-by-txn-id nor decide-by-gid."""
        config = DBConfig(dir=str(tmp_path / "prep-fail"), scheme="data_codeword")
        core, _ = ShardCore.open(config, [("account", ACCOUNT_SCHEMA, 32, "aid")])
        setup = core.execute(("begin",))
        core.execute(("apply", setup, "insert", "account", {"aid": 1, "balance": 100}))
        core.execute(("commit", setup))

        txn_id = core.execute(("begin",))
        core.execute(("apply", txn_id, "add", "account", 1, {"balance": -50}))

        def boom(txn, gid):
            raise RuntimeError("prepare I/O failure")

        monkeypatch.setattr(core.db, "prepare", boom)
        with pytest.raises(RuntimeError):
            core.execute(("prepare", txn_id, "gX"))
        monkeypatch.undo()

        assert not core._txns and not core._prepared
        # Locks released and the update rolled back: a new transaction
        # can write the same key immediately (locks fail fast, so a
        # leaked lock would raise LockError here).
        redo = core.execute(("begin",))
        core.execute(("apply", redo, "add", "account", 1, {"balance": -25}))
        core.execute(("commit", redo))
        assert core.execute(("sum_field", "account", "balance")) == 75
        core.execute(("close",))

    def test_commit_decide_failure_still_commits_remaining(self, tmp_path):
        """A non-crash failure delivering one shard's commit decision
        must not strand the other prepared participants: they get their
        decision, the error reports the transaction as committed, and
        the failed shard completes its branch on restart recovery."""
        db, config = _build_sharded(tmp_path, "decide-fail")
        orig = db.shards[0].call

        def flaky(cmd):
            if cmd[0] == "decide":
                raise RuntimeError("lost response")
            return orig(cmd)

        db.shards[0].call = flaky
        with pytest.raises(TwoPhaseCommitError) as err:
            db.submit_txn(TRANSFER)
        assert "is committed" in str(err.value)
        db.shards[0].call = orig

        # The decision is durable and shard 1 applied its credit even
        # though shard 0's decide failed first.
        assert len(db.decisions) == 1
        assert db.submit_txn([("query", "account", 1)])[0]["balance"] == 130
        # Shard 0's prepared branch completes on restart recovery.
        db.crash()
        recovered, _ = ShardedDatabase.recover(config)
        assert _balances(recovered) == (70, 130)
        recovered.close()

    def test_abort_decide_failure_still_aborts_remaining(self, tmp_path):
        """In the vote-no path, one shard's failing abort must not skip
        aborting the other prepared branches (their locks would wedge
        later transactions until restart)."""
        config = ShardedConfig(
            dir=str(tmp_path / "abort-fail"),
            n_shards=3,
            mode="inproc",
            branches=3,
            scheme="data_codeword",
        )
        db = ShardedDatabase.create(config, [("account", ACCOUNT_SCHEMA, 32, "aid")])
        for aid in range(3):
            db.submit_txn([("insert", "account", {"aid": aid, "balance": 100})])
        orig = db.shards[0].call

        def flaky(cmd):
            if cmd[0] == "decide":
                raise RuntimeError("lost response")
            return orig(cmd)

        db.shards[0].call = flaky
        bad = [
            ("add", "account", 0, {"balance": -30}),
            ("add", "account", 1, {"balance": 15}),
            ("add", "account", 1001, {"balance": 15}),  # shard 2: vote no
        ]
        with pytest.raises(TwoPhaseCommitError):
            db.submit_txn(bad)
        db.shards[0].call = orig

        assert len(db.decisions) == 0
        # Shard 1's branch was aborted despite shard 0's failure: its
        # key is immediately writable and its balance unchanged.
        db.submit_txn([("add", "account", 1, {"balance": 1})])
        assert db.submit_txn([("query", "account", 1)])[0]["balance"] == 101
        db.close()

    def test_nowait_after_close_raises(self, tmp_path):
        db, _ = _build_sharded(tmp_path, "closed-nowait")
        db.close()
        with pytest.raises(ShardError):
            db.submit_txn_nowait([("add", "account", 0, {"balance": 1})])


class TestSupervisedDelivery:
    """Under a supervisor, "committed but undelivered" self-heals: the
    caller sees SUCCESS, the supervisor owns completing the branch."""

    def test_kill_after_decision_fsync_self_heals(self, tmp_path):
        from repro.faults.workers import kill_after_decision
        from repro.shard import ShardSupervisor

        db, _ = _build_sharded(tmp_path, "supervised-gap")
        supervisor = ShardSupervisor(db).attach()
        # Arm the exact gap PR 9 surfaced as a terminal error: the
        # participant dies AFTER the commit decision is fsync'd but
        # BEFORE its decide message arrives.
        kill_after_decision(db, 1)

        db.submit_txn(TRANSFER)  # no exception: the caller sees SUCCESS

        # The decision is durable and its delivery is queued, not lost.
        assert len(db.decisions) == 1
        assert len(db.coordinator.pending) == 1
        # Degraded mode: the victim fails fast with a retryable error
        # while the survivor serves.
        with pytest.raises(ShardUnavailableError) as err:
            db.submit_txn([("query", "account", 1)])
        assert err.value.retryable
        assert db.submit_txn([("query", "account", 0)])[0]["balance"] == 70

        # One tick restarts shard 1; its restart recovery resolves the
        # prepared branch against the decision log, so the pending
        # delivery is satisfied and funds are conserved.
        supervisor.tick()
        assert db.coordinator.pending == {}
        assert _balances(db) == (70, 130)
        assert sum(_balances(db)) == 200
        supervisor.detach()
        db.close()

    def test_unsupervised_gap_still_needs_manual_recovery(self, tmp_path):
        """Without a supervisor the same kill surfaces as an exception
        (the PR-9 contract: the caller owns recovery) and only a restart
        completes the committed branch -- the before/after picture of
        what the supervisor automates."""
        from repro.faults.workers import kill_after_decision
        from repro.shard.shard import ShardCrashed

        db, config = _build_sharded(tmp_path, "unsupervised-gap")
        kill_after_decision(db, 1)
        with pytest.raises(ShardCrashed):
            db.submit_txn(TRANSFER)
        # The decision IS durable; the caller just has to recover to
        # learn that (outcome-check discipline, docs/errors.md).
        assert len(db.decisions) == 1
        db.crash()
        recovered, _ = ShardedDatabase.recover(config)
        assert _balances(recovered) == (70, 130)
        recovered.close()
