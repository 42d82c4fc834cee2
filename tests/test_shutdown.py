"""Deterministic shutdown (``Database.close``/``Database.crash``).

Both lifecycle exits drain in one fixed order: flush the group-commit
window (close only -- crash *loses* it), then settle any in-flight sweep
fold.  ``close()`` is idempotent,
and a ``close()`` after ``crash()`` is a no-op that must not resurrect
the lost window.
"""

from __future__ import annotations

import threading

from repro import Database, DBConfig

from tests.conftest import ACCT_SCHEMA, insert_accounts


def make_db(tmp_path, name, **config_kwargs) -> Database:
    config_kwargs.setdefault("scheme", "baseline")
    config = DBConfig(dir=str(tmp_path / name), **config_kwargs)
    db = Database(config)
    db.create_table("acct", ACCT_SCHEMA, 64, key_field="id")
    db.start()
    return db


def flushes(db: Database) -> int:
    return db.meter.snapshot().get("flush_fixed", (0, 0))[0]


class TestCloseDrain:
    def test_close_flushes_the_group_commit_window(self, tmp_path):
        """Commits held back by an unfilled window become durable on
        close: recovery replays them instead of rolling them back."""
        db = make_db(tmp_path, "flush", group_commit_size=8)
        slots = insert_accounts(db, 3)
        txn = db.begin()
        db.table("acct").update(txn, slots[1], {"balance": 777})
        db.commit(txn)
        assert db.system_log.tail  # window not full: commit held back
        db.close()
        recovered, _report = Database.recover(DBConfig(dir=db.config.dir, scheme="baseline"))
        check = recovered.begin()
        assert recovered.table("acct").read(check, slots[1])["balance"] == 777
        recovered.commit(check)
        recovered.close()

    def test_drain_steps_run_once_in_fixed_order(self, tmp_path):
        """close flushes the held-back window and settles an in-flight
        sweep; the log then holds the window's commits."""
        db = make_db(
            tmp_path,
            "order",
            scheme="data_codeword",
            group_commit_size=8,
            full_sweep_every=2,
            background_sweeps=True,
        )
        insert_accounts(db, 2)
        db.auditor.abandon_background_sweep()
        assert db.auditor.start_background_sweep()
        assert db.system_log.tail
        before = flushes(db)
        db.close()
        assert flushes(db) == before + 1
        assert not db.system_log.tail
        assert db.auditor._sweep is None

    def test_double_close_is_idempotent(self, tmp_path):
        db = make_db(tmp_path, "twice", group_commit_size=8)
        insert_accounts(db, 2)
        before = flushes(db)
        db.close()
        db.close()  # no error, no second drain
        assert flushes(db) == before + 1


class TestCrashDrain:
    def test_crash_loses_the_window_instead_of_flushing(self, tmp_path):
        db = make_db(tmp_path, "lost", group_commit_size=8)
        slots = insert_accounts(db, 3)
        db.manager.flush_commits()
        txn = db.begin()
        db.table("acct").update(txn, slots[1], {"balance": 777})
        db.commit(txn)
        assert db.system_log.tail  # commit record still volatile
        before = flushes(db)
        db.crash()
        assert flushes(db) == before  # the window is lost, not flushed
        recovered, _report = Database.recover(DBConfig(dir=db.config.dir, scheme="baseline"))
        check = recovered.begin()
        assert recovered.table("acct").read(check, slots[1])["balance"] == 100
        recovered.commit(check)
        recovered.close()

    def test_crash_settles_an_inflight_background_sweep(self, tmp_path):
        db = make_db(
            tmp_path,
            "sweep",
            scheme="data_codeword",
            full_sweep_every=2,
            background_sweeps=True,
        )
        insert_accounts(db, 4)
        for _ in range(2):
            db.audit()  # cadence launches a background sweep
        assert db.auditor._sweep is not None
        db.crash()
        assert db.auditor._sweep is None
        assert not [t for t in threading.enumerate() if t.name.startswith("audit.sweep.")]

    def test_close_after_crash_is_a_noop(self, tmp_path):
        db = make_db(tmp_path, "postcrash", group_commit_size=8)
        slots = insert_accounts(db, 2)
        db.manager.flush_commits()
        txn = db.begin()
        db.table("acct").update(txn, slots[0], {"balance": 999})
        db.commit(txn)
        before = flushes(db)
        db.crash()
        db.close()  # must not flush the lost window
        assert flushes(db) == before
        recovered, _report = Database.recover(DBConfig(dir=db.config.dir, scheme="baseline"))
        check = recovered.begin()
        assert recovered.table("acct").read(check, slots[0])["balance"] == 100
        recovered.commit(check)
        recovered.close()

    def test_double_crash_is_idempotent(self, tmp_path):
        db = make_db(tmp_path, "crash2")
        insert_accounts(db, 2)
        db.crash()
        snapshot = db.meter.snapshot()
        db.crash()
        assert db.meter.snapshot() == snapshot
