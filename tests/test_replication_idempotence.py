"""Replica crash idempotence: crash anywhere, resync, same promoted image.

The replica's durable state (bootstrap checkpoint + ingested frames) is
the truth of the replication session: a crash at *any* replica or
promotion crash point, followed by reopen + shipper resync, must
converge to the same byte-equivalent image and the same certified
failover as an uninterrupted run.  The retransmitted overlap is dropped
by LSN idempotence, so nothing double-applies.

Mirrors ``tests/test_recovery_idempotence.py`` for the two-node story.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CrashPointRegistry, Database, DBConfig
from repro.errors import SimulatedCrash
from repro.faults.crashpoints import REPLICA_CRASH_POINTS
from repro.recovery.archive import create_archive
from repro.replication import LogShipper, Replica, ShipTransport

from tests.conftest import ACCT_SCHEMA, insert_accounts

ACCOUNTS = 6
OPS = 10


def _config(path) -> DBConfig:
    return DBConfig(
        dir=str(path),
        scheme="data_cw+cw_read_logging",
        scheme_params={"region_size": 256},
        quarantine=True,
        full_sweep_every=1000,
    )


class _Session:
    """One primary + standby pair with crash-tolerant pump/promote."""

    def __init__(self, base, registry: CrashPointRegistry) -> None:
        self.registry = registry
        self.primary = Database(_config(base / "primary"))
        self.primary.create_table("acct", ACCT_SCHEMA, 64, key_field="id")
        self.primary.start()
        self.slots = insert_accounts(self.primary, ACCOUNTS)
        self.committed = {i: 100 for i in range(ACCOUNTS)}
        create_archive(self.primary, str(base / "archive"))
        self.replica_config = _config(base / "replica")
        self.replica = Replica.bootstrap(
            self.replica_config, str(base / "archive"), crashpoints=registry
        )
        self.shipper = LogShipper(
            self.primary, ShipTransport(), self.replica, window=4, batch_records=8
        )
        self.crashes: list[str] = []

    def commit(self, acct: int, balance: int) -> None:
        table = self.primary.table("acct")
        txn = self.primary.begin()
        table.update(txn, self.slots[acct], {"balance": balance})
        self.primary.commit(txn)
        self.committed[acct] = balance

    def pump(self) -> None:
        try:
            self.shipper.pump()
        except SimulatedCrash as exc:
            self.crashes.append(exc.point)
            self._reopen()

    def _reopen(self) -> None:
        self.replica.crash()
        self.replica = Replica.reopen(
            self.replica_config, crashpoints=self.registry
        )
        self.shipper.resync(self.replica)

    def drain(self) -> None:
        for _ in range(200):
            if self.shipper.caught_up:
                return
            self.pump()
        raise AssertionError("shipper did not catch up in 200 pumps")

    def promote(self, primary_end: int):
        for _attempt in range(3):
            try:
                return self.replica.promote(primary_end_lsn=primary_end)
            except SimulatedCrash as exc:
                self.crashes.append(exc.point)
                self.replica.crash()
                self.replica = Replica.reopen(
                    self.replica_config, crashpoints=self.registry
                )
        raise AssertionError("promotion did not converge in 3 attempts")

    def close(self) -> None:
        for closer in (self.replica.close, self.primary.close):
            try:
                closer()
            except Exception:
                pass


class TestReplicaIdempotence:
    @given(point=st.sampled_from(REPLICA_CRASH_POINTS))
    @settings(max_examples=2 * len(REPLICA_CRASH_POINTS), deadline=None)
    def test_crash_at_any_point_then_resync_converges(
        self, point, tmp_path_factory
    ):
        base = tmp_path_factory.mktemp("repl-idem")
        session = _Session(base, CrashPointRegistry())
        try:
            for op in range(OPS):
                if op == 2:
                    # Fires on the next matching pump (replica points) or
                    # during failover (promotion points); one-shot.
                    session.registry.arm(point)
                session.commit(op % ACCOUNTS, 9000 + op)
                session.pump()
                if op % 4 == 3:
                    assert session.primary.checkpoint().certified
            session.drain()

            reference = np.array(
                session.primary.pipeline.maintainer.region_digests(), copy=True
            )
            primary_end = session.primary.system_log.end_of_stable_lsn
            session.primary.crash()

            report = session.promote(primary_end)
            assert session.crashes == [point]
            assert report.certified
            assert report.audit_report.clean
            # Fully drained before death: nothing in the lost window, so
            # the promoted image is byte-equivalent to the primary's and
            # every committed value survived exactly.
            assert report.lost_commit_window == 0
            assert np.array_equal(
                session.replica.db.pipeline.maintainer.region_digests(),
                reference,
            )
            db = session.replica.db
            table = db.table("acct")
            for acct, slot in session.slots.items():
                txn = db.begin()
                try:
                    assert (
                        table.read(txn, slot)["balance"]
                        == session.committed[acct]
                    )
                finally:
                    db.abort(txn)
        finally:
            session.close()

    def test_double_crash_still_converges(self, tmp_path):
        """A replay crash *and* a promotion crash in one session do not
        compound: the third incarnation still certifies the same image."""
        session = _Session(tmp_path, CrashPointRegistry())
        try:
            session.registry.arm("replica.after_ingest")
            for op in range(OPS):
                session.commit(op % ACCOUNTS, 9100 + op)
                session.pump()
                if op % 4 == 3:
                    assert session.primary.checkpoint().certified
            session.drain()
            assert session.crashes == ["replica.after_ingest"]

            reference = np.array(
                session.primary.pipeline.maintainer.region_digests(), copy=True
            )
            primary_end = session.primary.system_log.end_of_stable_lsn
            session.primary.crash()

            session.registry.arm("promote.pre_sweep")
            report = session.promote(primary_end)
            assert session.crashes == [
                "replica.after_ingest",
                "promote.pre_sweep",
            ]
            assert report.certified
            assert report.lost_commit_window == 0
            assert np.array_equal(
                session.replica.db.pipeline.maintainer.region_digests(),
                reference,
            )
        finally:
            session.close()
