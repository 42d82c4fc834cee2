"""Restart redo's fast path: frames of finished transactions, not records.

``RestartRecovery.replay`` names the transactions that finish below the
stop in an analysis pass and applies their records straight from the
frame bytes -- no handler call, pre-image or undo entry.  That must
change the *cost* of recovery only.  The identity test recovers one
crashed directory twice -- once as shipped, once through a subclass whose
analysis names nobody, so every frame goes to its handler and is
tracked, which is what redo did before -- and requires equal memory, codewords, meter
counts, virtual time, resumed counters, stable-log bytes and report, and
equal dirty page sets (where redo ends and after recovery) and checkpoint
image files, over generated histories (hash and B+tree tables,
multi-operation transactions, aborts, a checkpoint with transactions
open, a crash with up to three in flight, pages smaller than a row).
The directed cases pin what the property may not hit: same-byte
interleavings, a torn commit, an early stop, in-doubt branches, a
malformed log, and the runs that must never take the path.
"""

from __future__ import annotations

import dataclasses
import shutil
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.recovery.restart as restart
from repro import Database, DBConfig, FaultInjector
from repro.errors import RecoveryError
from repro.recovery.archive import create_archive
from repro.replication.replica import Replica
from repro.replication.shipper import LogShipper
from repro.replication.transport import ShipTransport
from repro.wal.records import (
    OpCommitRecord,
    RecordType,
    TxnBeginRecord,
    TxnCommitRecord,
)
from tests.conftest import ACCT_SCHEMA, insert_accounts, restore_per_store

SCHEMES = [
    ("baseline", {}),
    ("data_cw", {}),
    ("precheck+read_logging", {"region_size": 64}),
]
TABLES = ("acct", "ordered")
LANES = 3
KEYS_PER_LANE = 6
#: The default page, and one smaller than a row: every insert then
#: straddles a page boundary, so redo's dirty-page marking is exercised
#: past a store's first page.
PAGE_SIZES = (8192, 24)


class TrackedReplay(restart.RestartRecovery):
    """The reference: no transaction is known to finish."""

    def _finished_transactions(self, view, frames, from_lsn, stop):
        return set()


@contextmanager
def every_record_tracked():
    """Recoveries opened inside the block replay through
    :class:`TrackedReplay` (``Database._run_recovery`` looks the class up
    at call time), storing every record the way redo did before batching."""
    real = restart.RestartRecovery
    restart.RestartRecovery = TrackedReplay
    try:
        with restore_per_store():
            yield
    finally:
        restart.RestartRecovery = real


def _spy_dispatch(monkeypatch) -> list:
    """The type code of every frame the engine hands to its handler
    table (every frame it tracks), in order."""
    seen: list = []

    def spying(code, handler):
        def handle(self, lsn, view, pos, end):
            seen.append(code)
            return handler(self, lsn, view, pos, end)

        return handle

    handlers = restart.RestartRecovery._HANDLERS
    table = {code: spying(code, handler) for code, handler in handlers.items()}
    monkeypatch.setattr(restart.RestartRecovery, "_HANDLERS", table)
    return seen


@contextmanager
def dirty_pages_after_redo(seen: list):
    """Record both images' pending page sets where redo hands over to
    undo.  After that, recovery marks every page dirty for its finishing
    checkpoint, so only here does redo's own marking show."""
    real = restart.RestartRecovery._undo_phase

    def undo_phase(self):
        dirty = self.db.memory.dirty_pages
        seen.append((dirty.pending_for("A"), dirty.pending_for("B")))
        return real(self)

    restart.RestartRecovery._undo_phase = undo_phase
    try:
        yield
    finally:
        restart.RestartRecovery._undo_phase = real


def _config(
    path, scheme: str = "data_cw", params: dict | None = None, page_size: int = 8192
) -> DBConfig:
    return DBConfig(
        dir=str(path),
        scheme=scheme,
        scheme_params=dict(params or {}),
        page_size=page_size,
    )


def _build(
    path, scheme: str = "data_cw", params: dict | None = None, page_size: int = 8192
) -> Database:
    db = Database(_config(path, scheme, params, page_size))
    db.create_table("acct", ACCT_SCHEMA, 64, key_field="id")
    db.create_table("ordered", ACCT_SCHEMA, 64, key_field="id", index_type="btree")
    db.start()
    return db


def _observe(db: Database, report, dirty_after_redo) -> dict:
    maintainer = db.pipeline.maintainer
    with open(db.system_log.path, "rb") as handle:
        log_bytes = handle.read()
    images = {}
    for image in db.memory.dirty_pages.IMAGES:
        with open(db.checkpointer._image_path(image), "rb") as handle:
            images[image] = handle.read()
    state = {
        "segments": db.memory.snapshot_segments(),
        "dirty_after_redo": dirty_after_redo,
        "pending": {
            image: db.memory.dirty_pages.pending_for(image) for image in images
        },
        "checkpoint_images": images,
        "meter": dict(db.meter.counts),
        "now_ns": db.clock.now_ns,
        "next_seq": db.manager._next_seq,
        "next_txn_id": db.manager._next_txn_id,
        "next_lsn": db.system_log.next_lsn,
        "log": log_bytes,
        "report": report,
    }
    if maintainer is not None:
        table = maintainer.table
        state["codewords"] = [table.stored(r) for r in range(table.region_count)]
    return state


def _recover_both_ways(crashed: DBConfig, recover=Database.recover):
    """Recover two copies of a crashed directory, shipped and tracked;
    returns ``(observed, observed_reference, fast_frames)``."""
    observed = []
    for name, reference in (("fast", False), ("tracked", True)):
        workdir = f"{crashed.dir}.{name}"
        shutil.copytree(crashed.dir, workdir)
        config = dataclasses.replace(crashed, dir=workdir)
        dirty: list = []
        with dirty_pages_after_redo(dirty):
            if reference:
                with every_record_tracked():
                    db, report = recover(config)
            else:
                db, report = recover(config)
        try:
            observed.append((_observe(db, report, dirty), report.phase_seconds))
            assert db.audit().clean
        finally:
            db.close()
        shutil.rmtree(workdir)
    (got, phases), (want, reference_phases) = observed
    assert reference_phases["fast_frames"] == 0
    return got, want, phases["fast_frames"]


# ----------------------------------------------------------- the property


def _key(lane: int, index: int) -> int:
    return lane + LANES * index  # lanes never share a key: no lock waits


_OPS = st.tuples(
    st.just("op"),
    st.integers(0, LANES - 1),
    st.sampled_from(("put", "put", "delete", "read")),
    st.sampled_from(TABLES),
    st.integers(0, KEYS_PER_LANE - 1),
)
_ENDS = st.tuples(
    st.just("end"), st.integers(0, LANES - 1), st.sampled_from((True, True, False))
)
_STEPS = st.lists(st.one_of(_OPS, _OPS, _ENDS), min_size=12, max_size=40)


def _play(db: Database, steps, checkpoint_at: int) -> None:
    """Run ``steps`` over up to ``LANES`` interleaved transactions and
    leave the open ones open.  ``put`` inserts a missing key and updates a
    present one; an abort restores the lane's view of what exists.  A
    deleted slot stays locked until its transaction ends, so no other lane
    inserts into that table meanwhile (it would be handed the slot)."""
    open_txns: dict[int, object] = {}
    live: dict[int, set] = {lane: set() for lane in range(LANES)}
    at_begin: dict[int, set] = {}
    deleted_from: dict[int, set] = {lane: set() for lane in range(LANES)}
    for position, step in enumerate(steps):
        if position == checkpoint_at:
            db.checkpoint()
        if step[0] == "end":
            _kind, lane, commit = step
            txn = open_txns.pop(lane, None)
            if txn is None:
                continue
            deleted_from[lane].clear()
            if commit:
                db.commit(txn)
            else:
                db.abort(txn)
                live[lane] = at_begin[lane]
            continue
        _kind, lane, op, name, index = step
        if lane not in open_txns:
            open_txns[lane] = db.begin()
            at_begin[lane] = set(live[lane])
        txn, table, key = open_txns[lane], db.table(name), _key(lane, index)
        present = (name, key) in live[lane]
        slot_locked = any(
            name in tables for other, tables in deleted_from.items() if other != lane
        )
        if op == "put" and not present and slot_locked:
            continue
        if op == "put" and not present:
            table.insert(txn, {"id": key, "balance": position, "name": f"k{key}"})
            live[lane].add((name, key))
        elif op == "put":
            table.update(txn, table.lookup(txn, key), {"balance": position})
        elif op == "delete" and present:
            table.delete(txn, table.lookup(txn, key))
            live[lane].discard((name, key))
            deleted_from[lane].add(name)
        elif present:
            table.read(txn, table.lookup(txn, key))


@pytest.mark.parametrize("scheme,params", SCHEMES, ids=[s for s, _ in SCHEMES])
@given(
    steps=_STEPS,
    checkpoint_share=st.floats(0.0, 1.0),
    page_size=st.sampled_from(PAGE_SIZES),
    data=st.data(),
)
@settings(max_examples=25, deadline=None)
def test_fast_path_identical_to_tracked_replay(
    tmp_path_factory, scheme, params, steps, checkpoint_share, page_size, data
):
    base = tmp_path_factory.mktemp("replay")
    db = _build(base / "db", scheme, params, page_size)
    try:
        _play(db, steps, int(checkpoint_share * len(steps)))
        # Whatever the open transactions did so far reaches the stable log
        # with the next commit's flush, or not at all.
        if data.draw(st.booleans(), label="flush before the crash"):
            db.system_log.flush()
    finally:
        # Also when hypothesis abandons the example mid-draw: the crash
        # closes the log.
        db.crash()
    got, want, _fast = _recover_both_ways(
        _config(base / "db", scheme, params, page_size)
    )
    assert got == want


def test_the_property_exercises_the_fast_path(tmp_path):
    """Guard against a vacuous identity: a plain committed history is
    replayed almost entirely from frames, and its pages are marked."""
    _replay_committed_history(tmp_path, page_size=8192)


def test_rows_straddling_pages_are_marked_on_every_page(tmp_path):
    """The same with every row straddling a page boundary."""
    _replay_committed_history(tmp_path, page_size=24)


def _replay_committed_history(tmp_path, page_size: int) -> None:
    db = _build(tmp_path / "db", page_size=page_size)
    insert_accounts(db, 10)
    db.crash()
    got, want, fast = _recover_both_ways(_config(tmp_path / "db", page_size=page_size))
    assert got == want
    assert got["report"].redo_applied > 0
    # Everything but the format transaction's frames below CK_end.
    assert fast >= got["report"].redo_applied
    [(pending_a, pending_b)] = got["dirty_after_redo"]
    assert pending_a == pending_b
    # Only the fast path stored anything, so every pending page is its.
    assert got["report"].phase_seconds["redo_pages"] == len(pending_a) > 0


# ------------------------------------------------------- directed cases


def _balance(db: Database, slot: int) -> int:
    txn = db.begin()
    try:
        return db.table("acct").read(txn, slot)["balance"]
    finally:
        db.commit(txn)


def test_loser_interleaved_with_winners_on_the_same_bytes(tmp_path):
    """(i) Every insert writes the allocator and index headers.  A loser's
    inserts sit between winners' on the log, the last one cut off before
    its operation commit: its physical undo must put back what the
    winners wrote, though their frames never had a pre-image read."""
    db = _build(tmp_path / "db")
    insert_accounts(db, 2)
    table = db.table("acct")
    loser = db.begin()
    table.insert(loser, {"id": 50, "balance": 1, "name": "logical undo"})
    winner = db.begin()
    table.insert(winner, {"id": 60, "balance": 2, "name": "kept"})
    db.commit(winner)
    table.insert(loser, {"id": 51, "balance": 3, "name": "physical undo"})
    db.system_log.flush()
    db.crash()
    FaultInjector(db).torn_flush(cut=3)  # the second insert's operation commit

    got, want, fast = _recover_both_ways(_config(tmp_path / "db"))
    assert got == want and fast > 0
    assert got["meter"]["undo_apply"] > 0
    recovered, report = Database.recover(_config(tmp_path / "db"))
    try:
        assert report.rolled_back == (loser.txn_id,)
        txn = recovered.begin()
        acct = recovered.table("acct")
        assert acct.row_count(txn) == 3
        assert acct.lookup(txn, 60) is not None
        assert acct.lookup(txn, 50) is None and acct.lookup(txn, 51) is None
        recovered.commit(txn)
        assert recovered.audit().clean
    finally:
        recovered.close()


def test_commit_inside_a_torn_tail_is_a_loser(tmp_path):
    """(ii) A commit frame the tear destroyed finishes nothing."""
    db = _build(tmp_path / "db")
    slots = insert_accounts(db, 2)
    txn = db.begin()
    db.table("acct").update(txn, slots[0], {"balance": 999})
    db.commit(txn)
    db.crash()
    FaultInjector(db).torn_flush(cut=3)  # through the commit frame's CRC

    got, want, _fast = _recover_both_ways(_config(tmp_path / "db"))
    assert got == want
    assert got["report"].rolled_back == (txn.txn_id,)
    recovered, _report = Database.recover(_config(tmp_path / "db"))
    try:
        assert _balance(recovered, slots[0]) == 100
    finally:
        recovered.close()


def test_stop_between_last_update_and_commit(tmp_path):
    """(iii) ``run(until_lsn=)`` just below a commit frame: the
    transaction is rolled back and reported lost."""
    db = _build(tmp_path / "db")
    slots = insert_accounts(db, 2)
    txn = db.begin()
    db.table("acct").update(txn, slots[0], {"balance": 999})
    db.commit(txn)
    later = db.begin()
    db.table("acct").update(later, slots[1], {"balance": 7})
    db.commit(later)
    commit_lsn = next(
        lsn
        for lsn, record in db.system_log.scan()
        if isinstance(record, TxnCommitRecord) and record.txn_id == txn.txn_id
    )
    db.crash()

    def recover(config):
        shell = Database._open_shell(config)
        return shell, shell._run_recovery(None, until_lsn=commit_lsn)

    got, want, fast = _recover_both_ways(_config(tmp_path / "db"), recover)
    assert got == want and fast > 0
    report = got["report"]
    assert report.rolled_back == (txn.txn_id,)
    assert report.lost_committed == (txn.txn_id, later.txn_id)


def test_prepared_branches_resolved_both_ways(tmp_path):
    """(iv) One in-doubt branch committed by the resolver, one presumed
    aborted; neither is a finisher until recovery ends it."""
    db = _build(tmp_path / "db")
    slots = insert_accounts(db, 3)
    kept = db.begin()
    db.table("acct").update(kept, slots[0], {"balance": 170})
    db.prepare(kept, "g-commit")
    dropped = db.begin()
    db.table("acct").update(dropped, slots[1], {"balance": 180})
    db.prepare(dropped, "g-unknown")
    db.crash()

    def recover(config):
        return Database.recover(
            config, in_doubt_resolver=lambda gid: gid == "g-commit"
        )

    got, want, _fast = _recover_both_ways(_config(tmp_path / "db"), recover)
    assert got == want
    assert got["report"].resolved_committed == (kept.txn_id,)
    assert got["report"].resolved_aborted == (dropped.txn_id,)
    # The resolved commit is on the log now: next time it is a finisher.
    first, _report = recover(_config(tmp_path / "db"))
    first.crash()
    got, want, _fast = _recover_both_ways(_config(tmp_path / "db"), recover)
    assert got == want
    assert got["report"].resolved_committed == ()


def _crash_with_malformed_log(path) -> None:
    """A database at ``path`` whose log commits an operation its finished
    transaction never began."""
    db = _build(path)
    insert_accounts(db, 1)
    log = db.system_log
    log.append(TxnBeginRecord(900))
    log.append(OpCommitRecord(900, op_id=77, level=1, object_key="acct:x"))
    log.append(TxnCommitRecord(900))
    log.flush()
    db.crash()


def test_op_commit_without_begin_in_a_finished_transaction_raises(tmp_path):
    """(v) The malformed-log check does not depend on who finishes."""
    _crash_with_malformed_log(tmp_path / "db")
    for tracked in (False, True):
        workdir = tmp_path / f"copy{int(tracked)}"
        shutil.copytree(tmp_path / "db", workdir)
        with pytest.raises(RecoveryError, match="operation commit 77 without"):
            if tracked:
                with every_record_tracked():
                    Database.recover(_config(workdir))
            else:
                Database.recover(_config(workdir))


def test_recovery_that_raises_closes_the_shells_log(tmp_path, monkeypatch):
    """A recovery that raises on a malformed log crashes its
    half-recovered shell: the recovered directory's log is not left open."""
    _crash_with_malformed_log(tmp_path / "db")
    shells = []
    open_shell = Database._open_shell

    def spy(config, crashpoints=None):
        shells.append(open_shell(config, crashpoints))
        return shells[-1]

    monkeypatch.setattr(Database, "_open_shell", spy)
    with pytest.raises(RecoveryError, match="operation commit 77 without"):
        Database.recover(_config(tmp_path / "db"))
    assert len(shells) == 1
    assert shells[0].system_log._file.closed


class TestNeverFast:
    """(vi) Runs whose transactions may need their undo log at any record
    hand every frame to its handler and track it."""

    def _committed_history(self, path, scheme="data_cw", params=None) -> Database:
        db = _build(path, scheme, params)
        slots = insert_accounts(db, 4)
        txn = db.begin()
        db.table("acct").update(txn, slots[0], {"balance": 1})
        db.commit(txn)
        return db

    def _replayed(self, recovered: Database, report) -> int:
        """Frames the replay walked at or above ``CK_end``."""
        below = sum(1 for lsn, _ in recovered.system_log.scan() if lsn < report.ck_end)
        return report.phase_seconds["frames"] - below

    def test_plain_restart_is_fast(self, tmp_path, monkeypatch):
        db = self._committed_history(tmp_path / "db")
        db.crash()
        seen = _spy_dispatch(monkeypatch)
        recovered, report = Database.recover(_config(tmp_path / "db"))
        recovered.close()
        assert report.phase_seconds["fast_frames"] > 0
        # Only what belongs to no transaction (here: nothing) is tracked.
        assert RecordType.UPDATE not in seen

    def test_read_checksums_run_delete_transaction_every_restart(
        self, tmp_path, monkeypatch
    ):
        db = self._committed_history(tmp_path / "db", "cw_read_logging")
        db.crash()
        seen = _spy_dispatch(monkeypatch)
        recovered, report = Database.recover(
            _config(tmp_path / "db", "cw_read_logging")
        )
        assert report.mode == "delete-transaction-view"
        assert report.phase_seconds["fast_frames"] == 0
        assert len(seen) == self._replayed(recovered, report)
        recovered.close()

    def test_corruption_note(self, tmp_path, monkeypatch):
        db = self._committed_history(tmp_path / "db")
        address = db.table("acct").record_address(2) + 8
        FaultInjector(db, seed=3).wild_write(address, 8)
        audit = db.audit()
        assert not audit.clean
        db.crash_with_corruption(audit)
        seen = _spy_dispatch(monkeypatch)
        recovered, report = Database.recover(_config(tmp_path / "db"))
        assert report.mode == "delete-transaction-writes-only"
        assert report.phase_seconds["fast_frames"] == 0
        assert len(seen) == self._replayed(recovered, report)
        recovered.close()

    def test_replica_reopen(self, tmp_path, monkeypatch):
        primary = self._committed_history(tmp_path / "primary")
        create_archive(primary, str(tmp_path / "archive"))
        replica_config = _config(tmp_path / "replica")
        replica = Replica.bootstrap(replica_config, str(tmp_path / "archive"))
        shipper = LogShipper(primary, ShipTransport(), replica)
        txn = primary.begin()
        primary.table("acct").update(txn, 0, {"balance": 2})
        primary.commit(txn)
        while not shipper.caught_up:
            shipper.pump()
        replica.crash()
        seen = _spy_dispatch(monkeypatch)
        reopened = Replica.reopen(replica_config)
        try:
            assert RecordType.UPDATE in seen  # the shipped update, tracked
            assert reopened.recovery.report.phase_seconds["fast_frames"] == 0
        finally:
            reopened.close()
            primary.close()
