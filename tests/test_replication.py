"""Replication: log shipping, divergence detection, certified failover.

API-level coverage of :mod:`repro.replication`; the end-to-end fault
matrix (crash scheduling, abrupt death, the single-node comparison arm)
lives in the campaign (:mod:`repro.replication.campaign`, exercised by
``tests/test_replication_campaign.py`` and the ``--replication`` bench).
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro import Database, DBConfig, FaultInjector
from repro.errors import (
    ArchiveError,
    PromotionError,
    ReproError,
    ServeError,
)
from repro.recovery.archive import create_archive, read_archive_info
from repro.replication import (
    FAULT_KINDS,
    LogShipper,
    Replica,
    ShipBatch,
    ShipTransport,
)
from repro.serve import Request, Server

from tests.conftest import ACCT_SCHEMA, insert_accounts

ACCOUNTS = 8
#: Allocated-but-never-touched slot: its region is never dirty on either
#: node, so only digest epochs (or a full sweep) can see damage there.
COLD_SLOT = ACCOUNTS + 3


def _config(path) -> DBConfig:
    return DBConfig(
        dir=str(path),
        scheme="data_cw+cw_read_logging",
        scheme_params={"region_size": 256},
        quarantine=True,
        audit_mode="incremental",
        full_sweep_every=1000,
    )


def _build_pair(base, crashpoints=None, window=4, batch_records=8):
    """Primary with accounts + archived-and-bootstrapped hot standby."""
    primary = Database(_config(base / "primary"))
    primary.create_table("acct", ACCT_SCHEMA, 64, key_field="id")
    primary.start()
    slots = insert_accounts(primary, ACCOUNTS)
    create_archive(primary, str(base / "archive"))
    replica_config = _config(base / "replica")
    replica = Replica.bootstrap(
        replica_config, str(base / "archive"), crashpoints=crashpoints
    )
    transport = ShipTransport()
    shipper = LogShipper(
        primary, transport, replica, window=window, batch_records=batch_records
    )
    return primary, replica, shipper, transport, slots, replica_config


def _update(db, slots, acct: int, balance: int) -> None:
    table = db.table("acct")
    txn = db.begin()
    table.update(txn, slots[acct], {"balance": balance})
    db.commit(txn)


def _read_balance(db, slot: int) -> int:
    txn = db.begin()
    try:
        return db.table("acct").read(txn, slot)["balance"]
    finally:
        db.abort(txn)


class TestShipAndReplay:
    def test_replayed_image_matches_primary(self, tmp_path):
        primary, replica, shipper, _t, slots, _c = _build_pair(tmp_path)
        committed = {}
        for op in range(10):
            acct = op % ACCOUNTS
            _update(primary, slots, acct, 5000 + op)
            committed[acct] = 5000 + op
            shipper.pump()
            if op % 4 == 3:
                assert primary.checkpoint().certified
        assert shipper.drain()
        assert shipper.caught_up
        assert replica.next_lsn == primary.system_log.end_of_stable_lsn
        # Independent codeword tables over byte-equivalent images.
        assert np.array_equal(
            replica.db.pipeline.maintainer.region_digests(),
            primary.pipeline.maintainer.region_digests(),
        )
        assert replica.detections == []
        # Digest epochs rode along with the certified checkpoints and all
        # compared clean.
        assert replica.divergence.epochs_checked >= 2
        assert replica.divergence.diverged == []
        primary.close()
        replica.close()

    def test_promote_clean_standby(self, tmp_path):
        primary, replica, shipper, _t, slots, _c = _build_pair(tmp_path)
        _update(primary, slots, 0, 7777)
        assert shipper.drain()
        primary_end = primary.system_log.end_of_stable_lsn
        primary.crash()
        report = replica.promote(primary_end_lsn=primary_end)
        assert report.certified
        assert report.lost_commit_window == 0
        assert _read_balance(replica.db, slots[0]) == 7777
        # The promoted node admits writes again.
        _update(replica.db, slots, 1, 8888)
        assert _read_balance(replica.db, slots[1]) == 8888
        replica.close()


class TestDivergence:
    def test_primary_side_corruption_classified(self, tmp_path):
        primary, replica, shipper, _t, slots, _c = _build_pair(tmp_path)
        table = primary.table("acct")
        FaultInjector(primary, seed=7).wild_write(
            address=table.record_address(COLD_SLOT), length=16
        )
        _update(primary, slots, 0, 111)
        # The cold region is not in the dirty set, so the incremental
        # certifying audit stays blind and the corrupt fold is published.
        assert primary.checkpoint().certified
        assert shipper.drain()
        diverged = replica.divergence.diverged
        assert len(diverged) == 1
        assert diverged[0].classification == "primary"
        assert diverged[0].primary_side and not diverged[0].replica_side
        assert [d.channel for d in replica.detections] == ["digest"]
        # The replica's own image is fine: nothing quarantined.
        assert not replica.db.pipeline.maintainer.quarantined
        primary.close()
        replica.close()

    def test_replica_side_corruption_classified_and_fenced(self, tmp_path):
        primary, replica, shipper, _t, slots, _c = _build_pair(tmp_path)
        replica_table = replica.db.table("acct")
        FaultInjector(replica.db, seed=9).wild_write(
            address=replica_table.record_address(COLD_SLOT), length=16
        )
        _update(primary, slots, 0, 222)
        assert primary.checkpoint().certified
        assert shipper.drain()
        diverged = replica.divergence.diverged
        assert len(diverged) == 1
        assert diverged[0].classification == "replica"
        assert diverged[0].replica_side and not diverged[0].primary_side
        # The convicted regions are fenced like a failed local audit.
        assert replica.db.pipeline.maintainer.quarantined
        # Promotion refuses to certify over corrupt bytes...
        primary_end = primary.system_log.end_of_stable_lsn
        primary.crash()
        with pytest.raises(PromotionError):
            replica.promote(primary_end_lsn=primary_end)
        # ...until a repair from the replica's own checkpoint + log.
        assert replica.repair() > 0
        report = replica.promote(primary_end_lsn=primary_end)
        assert report.certified
        assert report.audit_report.clean
        replica.close()


class TestTransportFaults:
    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_fault_tolerated_and_converges(self, tmp_path, kind):
        primary, replica, shipper, transport, slots, _c = _build_pair(tmp_path)
        transport.arm_fault(kind)
        for op in range(4):
            _update(primary, slots, op % ACCOUNTS, 3000 + op)
            shipper.pump()
        assert primary.checkpoint().certified
        assert shipper.drain(200)
        assert shipper.caught_up
        assert [k for k, _seq in transport.faults_applied] == [kind]
        # Convergence: byte-equivalent images, no corruption detections.
        assert np.array_equal(
            replica.db.pipeline.maintainer.region_digests(),
            primary.pipeline.maintainer.region_digests(),
        )
        assert replica.detections == []
        assert not replica.db.pipeline.maintainer.quarantined
        if kind in ("drop", "tear"):
            assert shipper.retransmits >= 1
        if kind == "tear":
            # The CRC classified the damage as transport corruption.
            assert replica.divergence.transport_errors
        if kind == "duplicate":
            assert replica.duplicate_batches >= 1
        primary.close()
        replica.close()

    def test_batch_codec_rejects_damage(self):
        batch = ShipBatch(3, 0, 100, 2, b"some frame bytes")
        raw = batch.encode()
        assert ShipBatch.decode(raw) == batch
        from repro.errors import ReplicationError

        with pytest.raises(ReplicationError):
            ShipBatch.decode(raw[: len(raw) // 2])
        flipped = bytearray(raw)
        flipped[len(raw) // 2] ^= 0x40
        with pytest.raises(ReplicationError):
            ShipBatch.decode(bytes(flipped))


class TestFailover:
    def test_lost_commit_window_surfaced(self, tmp_path):
        primary, replica, shipper, _t, slots, _c = _build_pair(tmp_path)
        # Commits the replica never sees: no pump before death.
        for op in range(5):
            _update(primary, slots, op % ACCOUNTS, 4000 + op)
        primary_end = primary.system_log.end_of_stable_lsn
        primary.crash()
        report = replica.promote(primary_end_lsn=primary_end)
        assert report.certified
        assert report.lost_commit_window == primary_end - report.promoted_lsn
        assert report.lost_commit_window > 0
        # The survivors are all committed values (the archived ones).
        for acct, slot in slots.items():
            assert _read_balance(replica.db, slot) == 100
        replica.close()


class TestArchiveErrors:
    def test_archive_error_is_typed(self):
        assert issubclass(ArchiveError, ReproError)

    def test_missing_manifest(self, tmp_path):
        empty = tmp_path / "not-an-archive"
        empty.mkdir()
        with pytest.raises(ArchiveError, match="manifest"):
            read_archive_info(str(empty))
        with pytest.raises(ArchiveError, match="manifest"):
            Replica.bootstrap(_config(tmp_path / "rep"), str(empty))

    def test_bootstrap_requires_catalog(self, tmp_path):
        from repro.storage.database import CATALOG_FILE

        primary = Database(_config(tmp_path / "primary"))
        primary.create_table("acct", ACCT_SCHEMA, 64, key_field="id")
        primary.start()
        insert_accounts(primary, 4)
        archive_dir = tmp_path / "archive"
        create_archive(primary, str(archive_dir))
        os.remove(str(archive_dir / CATALOG_FILE))
        with pytest.raises(ArchiveError, match="catalog"):
            Replica.bootstrap(_config(tmp_path / "rep"), str(archive_dir))
        primary.close()

    def test_uncertified_checkpoint_refused(self, tmp_path):
        primary = Database(_config(tmp_path / "primary"))
        primary.create_table("acct", ACCT_SCHEMA, 64, key_field="id")
        primary.start()
        slots = insert_accounts(primary, 4)
        table = primary.table("acct")
        # A dirty-region wild write: the incremental certifying audit
        # sees it, the checkpoint fails certification, and the archive
        # is refused with the typed error.
        FaultInjector(primary, seed=5).wild_write(
            address=table.record_address(slots[0]) + 8, length=8
        )
        with pytest.raises(ArchiveError, match="certification"):
            create_archive(primary, str(tmp_path / "archive"))


class TestReadOnlyServing:
    def test_replica_sessions_reject_writes_until_promoted(self, db_factory):
        db = db_factory(scheme="data_codeword", region_size=256)
        slots = insert_accounts(db, 3)
        with Server(db, read_only=True) as server:
            session = server.open_session()
            assert session.execute(Request(op="begin")).ok
            # Reads flow...
            resp = session.execute(Request(op="read", table="acct", slot=slots[0]))
            assert resp.ok and resp.value["balance"] == 100
            # ...mutations are rejected with a contained error.
            resp = session.execute(
                Request(op="update", table="acct", slot=slots[0], values={"balance": 1})
            )
            assert not resp.ok
            assert resp.error == "ServeError"
            assert "read-only" in resp.detail
            # Containment rolled the open transaction back.
            assert not session.in_txn
            # Failover flips the whole node, existing sessions included.
            server.promote_to_primary()
            assert session.execute(Request(op="begin")).ok
            resp = session.execute(
                Request(op="update", table="acct", slot=slots[0], values={"balance": 1})
            )
            assert resp.ok
            assert session.execute(Request(op="commit")).ok

    def test_direct_session_read_only_flag(self, db):
        from repro.serve.session import Session

        session = Session(db, 1, read_only=True)
        with pytest.raises(ServeError, match="read-only"):
            session._dispatch(Request(op="insert", table="acct", values={}))

    def test_read_only_session_rejects_add(self, db_factory):
        db = db_factory(scheme="data_codeword", region_size=256)
        insert_accounts(db, 1)
        with Server(db, read_only=True) as server:
            session = server.open_session()
            assert session.execute(Request(op="begin")).ok
            resp = session.execute(
                Request(op="add", table="acct", key=0, values={"balance": 1})
            )
            assert (resp.ok, resp.error) == (False, "ServeError")
            assert "read-only" in resp.detail
            assert not session.in_txn
        txn = db.begin()
        assert db.apply(txn, "query", "acct", 0)["balance"] == 100
        db.commit(txn)
