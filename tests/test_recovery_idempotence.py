"""Recovery idempotence: crash recovery anywhere, re-run, same answer.

Restart recovery must be a pure function of its stable inputs (anchor,
checkpoint image, stable log, corruption note).  A crash at *any* of its
crash points leaves those inputs semantically unchanged, so re-running
recovery must converge to the byte-identical memory image and an
equivalent :class:`RecoveryReport`.
"""

from __future__ import annotations

import dataclasses
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database, CrashPointRegistry, DBConfig, FaultInjector
from repro.errors import SimulatedCrash
from repro.faults.crashpoints import RECOVERY_CRASH_POINTS

from tests.conftest import ACCT_SCHEMA, insert_accounts


def _build_corrupted_template(template_dir: str) -> DBConfig:
    """A crashed database dir whose recovery has real work at every phase:
    redo from the log, corrupt-read conviction, undo of spread txns."""
    config = DBConfig(
        dir=template_dir,
        scheme="cw_read_logging",
        scheme_params={"region_size": 256},
        record_history=True,
    )
    db = Database(config)
    db.create_table("acct", ACCT_SCHEMA, 64, key_field="id")
    db.start()
    slots = insert_accounts(db, 6)
    db.checkpoint()
    table = db.table("acct")
    FaultInjector(db, seed=11).wild_write(table.record_address(slots[1]) + 8, 8)
    # Propagate the corrupt value through a read: recovery must convict
    # and delete this committed transaction, not just roll back.
    txn = db.begin()
    value = table.read(txn, slots[1])["balance"]
    table.update(txn, slots[2], {"balance": value})
    db.commit(txn)
    report = db.audit()
    assert not report.clean
    db.crash_with_corruption(report)
    return config


@pytest.fixture(scope="module")
def template(tmp_path_factory):
    template_dir = str(tmp_path_factory.mktemp("idem") / "template")
    config = _build_corrupted_template(template_dir)
    return template_dir, config


def _fresh_copy(template, tmp_path_factory) -> DBConfig:
    """Config pointing at a pristine copy of the crashed template dir."""
    template_dir, config = template
    workdir = str(tmp_path_factory.mktemp("idem-run") / "db")
    shutil.copytree(template_dir, workdir)
    return dataclasses.replace(config, dir=workdir)


def _report_key(report):
    """Report fields that must be invariant across recovery re-runs.

    ``redo_applied`` legitimately differs: the interrupted first attempt
    may have advanced stable state (truncated tail, flushed amendments),
    shrinking the second run's redo span.
    """
    return (
        report.mode,
        report.audit_sn,
        report.writes_suppressed,
        report.deleted_committed,
        report.rolled_back,
        report.recruited,
        report.corrupt_range_count,
    )


class TestRecoveryIdempotence:
    @given(point=st.sampled_from(RECOVERY_CRASH_POINTS))
    @settings(max_examples=2 * len(RECOVERY_CRASH_POINTS), deadline=None)
    def test_crash_at_any_point_then_rerun_converges(
        self, point, template, tmp_path_factory
    ):
        # Reference run: uninterrupted recovery of a pristine copy.
        ref_db, ref_report = Database.recover(_fresh_copy(template, tmp_path_factory))
        assert ref_report.mode == "delete-transaction-view"
        ref_image = ref_db.memory.snapshot_segments()
        ref_db.close()

        # Crash the first recovery attempt at ``point``, then re-run
        # against the same (now once-interrupted) directory.  The armed
        # point is one-shot, so reusing the registry cannot re-fire.
        config = _fresh_copy(template, tmp_path_factory)
        registry = CrashPointRegistry().arm(point)
        with pytest.raises(SimulatedCrash) as exc:
            Database.recover(config, crashpoints=registry)
        assert exc.value.point == point
        db, report = Database.recover(config, crashpoints=registry)

        assert _report_key(report) == _report_key(ref_report)
        assert db.memory.snapshot_segments() == ref_image
        assert db.audit().clean
        db.close()

    def test_double_crash_still_converges(self, template, tmp_path_factory):
        """Two interrupted attempts in a row (different points) do not
        compound: the third run still reaches the reference state."""
        ref_db, ref_report = Database.recover(_fresh_copy(template, tmp_path_factory))
        ref_image = ref_db.memory.snapshot_segments()
        ref_db.close()

        config = _fresh_copy(template, tmp_path_factory)
        for point in ("recovery.after_redo", "recovery.pre_complete"):
            registry = CrashPointRegistry().arm(point)
            with pytest.raises(SimulatedCrash):
                Database.recover(config, crashpoints=registry)
        db, report = Database.recover(config)
        assert _report_key(report) == _report_key(ref_report)
        assert db.memory.snapshot_segments() == ref_image
        db.close()


# ------------------------------------------------- the other two doors


def _open_physical_and_logical_undo(db, slots):
    """Leave two transactions in flight whose undo rides in the next
    checkpoint's ATT: one inside an open operation (physical undo), one
    with a committed insert (logical undo)."""
    table = db.table("acct")
    t_phys = db.begin()
    db.manager.begin_operation(t_phys, "acct:open")
    db.manager.update(t_phys, table.record_address(slots[5]) + 8, b"\x07" * 8)
    t_log = db.begin()
    table.insert(t_log, {"id": 1000, "balance": 1, "name": "open"})
    return t_phys, t_log


def _new_template_db(template_dir: str) -> tuple[DBConfig, Database, dict]:
    config = DBConfig(
        dir=template_dir,
        scheme="cw_read_logging",
        scheme_params={"region_size": 256},
        record_history=True,
    )
    db = Database(config)
    db.create_table("acct", ACCT_SCHEMA, 64, key_field="id")
    db.start()
    # 20 rows over 256-byte regions of 8 records: slots 0-7 take the
    # corruption and the taint, slots[10] stays clean, inserts land in 20+.
    return config, db, insert_accounts(db, 20)


def _build_prior_state_template(template_dir: str):
    """Redo before the cutoff, a physical and a logical undo at it, and
    committed work after it to lose."""
    config, db, slots = _new_template_db(template_dir)
    table = db.table("acct")
    _t_phys, t_log = _open_physical_and_logical_undo(db, slots)
    db.checkpoint()
    txn = db.begin()
    table.update(txn, slots[0], {"balance": 111})
    db.commit(txn)
    table.update(t_log, slots[4], {"balance": 444})
    assert db.audit().clean  # the cutoff
    txn = db.begin()
    table.update(txn, slots[3], {"balance": 333})
    db.commit(txn)
    db.commit(t_log)
    FaultInjector(db, seed=11).wild_write(table.record_address(slots[1]) + 8, 8)
    report = db.audit()
    assert not report.clean
    db.crash_with_corruption(report)
    return config, {"lost": {txn.txn_id, t_log.txn_id}}


def _build_logical_delete_template(template_dir: str):
    """A user-named root with an update and an insert to compensate, a
    reader it tainted, clean redo, and an open operation to roll back."""
    config, db, slots = _new_template_db(template_dir)
    table = db.table("acct")
    _open_physical_and_logical_undo(db, slots)
    db.checkpoint()
    root = db.begin()
    table.update(root, slots[2], {"balance": 999})
    table.insert(root, {"id": 500, "balance": 5, "name": "bad"})
    db.commit(root)
    reader = db.begin()
    value = table.read(reader, slots[2])["balance"]
    table.update(reader, slots[3], {"balance": value})
    db.commit(reader)
    txn = db.begin()
    table.update(txn, slots[10], {"balance": 111})
    db.commit(txn)
    db.crash()
    return config, {"roots": [root.txn_id], "deleted": {root.txn_id, reader.txn_id}}


def _recover_prior_state(config, facts, crashpoints=None):
    from repro.recovery.prior_state import recover_prior_state

    db, report = recover_prior_state(config, crashpoints=crashpoints)
    assert report.lost_set == facts["lost"]
    return db, (report.cutoff_lsn, report.ck_end, report.lost_committed)


def _recover_logical_delete(config, facts, crashpoints=None):
    from repro.recovery.logical import delete_transactions

    db, report = delete_transactions(config, facts["roots"], crashpoints=crashpoints)
    assert report.mode == "delete-transaction-logical"
    assert report.deleted_set == facts["deleted"]
    return db, _report_key(report)


DOORS = {
    "prior_state": (_build_prior_state_template, _recover_prior_state),
    "delete_transactions": (_build_logical_delete_template, _recover_logical_delete),
}


@pytest.fixture(scope="module")
def door_templates(tmp_path_factory):
    built = {}
    for name, (build, _recover) in DOORS.items():
        template_dir = str(tmp_path_factory.mktemp(f"idem-{name}") / "template")
        config, facts = build(template_dir)
        built[name] = (template_dir, config), facts
    return built


@pytest.mark.parametrize("point", RECOVERY_CRASH_POINTS)
@pytest.mark.parametrize("door", DOORS)
def test_other_doors_crash_then_rerun_converges(
    door, point, door_templates, tmp_path_factory
):
    """Prior-state and logical-delete recovery take ``crashpoints=`` like
    :meth:`Database.recover` and are idempotent across the same points."""
    template, facts = door_templates[door]
    recover = DOORS[door][1]
    ref_db, ref_key = recover(_fresh_copy(template, tmp_path_factory), facts)
    ref_image = ref_db.memory.snapshot_segments()
    txn = ref_db.begin()
    assert ref_db.table("acct").lookup(txn, 1000) is None  # logical undo ran
    assert ref_db.table("acct").read(txn, 5)["balance"] == 100  # physical too
    ref_db.commit(txn)
    ref_db.close()

    config = _fresh_copy(template, tmp_path_factory)
    registry = CrashPointRegistry().arm(point)
    with pytest.raises(SimulatedCrash) as exc:
        recover(config, facts, crashpoints=registry)
    assert exc.value.point == point
    db, key = recover(config, facts, crashpoints=registry)

    assert key == ref_key
    assert db.memory.snapshot_segments() == ref_image
    assert db.audit().clean
    db.close()
