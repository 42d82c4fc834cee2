"""The replica: a continuously-restoring archive with its own auditor.

A replica is a restart recovery that never finishes.  It bootstraps from
an archive (the certified checkpoint image + ATT), then feeds every
shipped stable-log frame through the *existing* redo machinery
(:meth:`~repro.recovery.restart.RestartRecovery.continuous`) as it
arrives.  Three properties make it a detector rather than just a spare:

* **Its log is byte-identical to the primary's.**  Shipped frames are
  ingested verbatim (same LSNs, same CRCs), so recovery of a crashed
  replica is ordinary restart recovery over its own directory, and
  resume-from-LSN after a crash is just "ship me everything from my
  ``next_lsn``".
* **Its codeword table is independent.**  Replay maintains the table
  incrementally (``maintain_codewords``), so the replica's own
  incremental + full-sweep audits convict replica-side wild writes with
  no reference to any primary state.
* **It checks digest epochs.**  The primary publishes per-region content
  folds with each certified checkpoint anchor; the shipper sequences
  that digest after every frame below the epoch's ``CK_end``, so the
  replica compares folds at exactly the equivalent state and classifies
  any difference (:mod:`repro.replication.divergence`).

``promote()`` is failover: drain what arrived, certify the image with a
full sweep *before* the undo phase (undo rebuilds codewords from
content, which would fold replica-side corruption into fresh, matching
words and mask it), then roll back in-flight transactions and checkpoint
through the shared recovery tail.  The surviving image is certified
clean, and the lost-commit window is surfaced explicitly.

The replica's auditor brackets its audits in a private scratch log
(``replica_audit.log``) so the replicated log stays a pure prefix-copy
of the primary's until promotion; ``Audit_SN`` stays in the replicated
log's LSN space (:meth:`~repro.core.audit.Auditor.use_scratch_log`).
"""

from __future__ import annotations

import bisect
import os
import shutil
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ArchiveError, ConfigError, PromotionError, ReplicationError
from repro.recovery.archive import ARCHIVE_MANIFEST, read_archive_info
from repro.recovery.checkpoint import ANCHOR_FILE
from repro.recovery.restart import RecoveryReport, RestartRecovery
from repro.replication.divergence import DivergenceDetector
from repro.replication.transport import KIND_DIGEST, KIND_RECORDS, ShipBatch
from repro.wal.system_log import PAYLOAD_OFFSET, walk_frames

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.audit import AuditReport
    from repro.storage.database import Database, DBConfig

import numpy as np

#: The replica's private audit-bracket log (never shipped, never replayed).
REPLICA_AUDIT_LOG = "replica_audit.log"


@dataclass(frozen=True)
class ReplicaDetection:
    """One corruption signal raised on the replica, with where/when."""

    #: "replay_checksum" | "audit" | "digest"
    channel: str
    regions: tuple[int, ...]
    at_batch: int
    detail: str = ""


@dataclass(frozen=True)
class PromotionReport:
    """What failover produced."""

    certified: bool
    #: First LSN the promoted node will assign (== last applied + 1).
    promoted_lsn: int
    #: ``primary_end_lsn - promoted_lsn`` when the caller supplied the
    #: dead primary's end of stable log: committed records that never
    #: made it across.  ``None`` when unknown.
    lost_commit_window: int | None
    audit_report: "AuditReport"
    recovery_report: RecoveryReport


class Replica:
    """One hot standby: bootstrap, continuous replay, certified failover."""

    def __init__(
        self,
        db: "Database",
        recovery: RestartRecovery,
        ck_end: int,
        audit_every: int = 4,
    ) -> None:
        self.db = db
        self.recovery = recovery
        self.ck_end = ck_end
        self.audit_every = max(1, audit_every)
        self.divergence = DivergenceDetector(self)
        self.expected_seq = 0
        self._reorder: dict[int, ShipBatch] = {}
        self.applied_batches = 0
        self.applied_records = 0
        self.duplicate_batches = 0
        self.out_of_order_batches = 0
        self.stale_digests = 0
        self.detections: list[ReplicaDetection] = []
        self.failed_audits: list = []
        self.promoted = False
        self._batches_since_audit = 0

    # --------------------------------------------------------- lifecycle

    @classmethod
    def bootstrap(
        cls,
        config: "DBConfig",
        archive_dir: str,
        crashpoints=None,
        audit_every: int = 4,
    ) -> "Replica":
        """Start a standby in a fresh directory from an archive.

        Copies the archive's catalog, checkpoint image/meta and anchor
        into ``config.dir``, loads the image, rebuilds an independent
        codeword table from it, and stands up a continuous restart
        recovery waiting for shipped frames from the archive's
        ``CK_end`` onward.
        """
        from repro.storage.database import CATALOG_FILE

        info = read_archive_info(archive_dir)
        os.makedirs(config.dir, exist_ok=True)
        catalog = os.path.join(archive_dir, CATALOG_FILE)
        if not os.path.exists(catalog):
            raise ArchiveError(
                f"archive at {archive_dir} carries no catalog; re-create it "
                "with a current create_archive"
            )
        for filename in (
            CATALOG_FILE,
            f"ckpt_{info.image}.img",
            f"ckpt_{info.image}.meta",
            ANCHOR_FILE,
            ARCHIVE_MANIFEST,
        ):
            source = os.path.join(archive_dir, filename)
            if os.path.exists(source):
                shutil.copy2(source, os.path.join(config.dir, filename))
        return cls._open(config, crashpoints, audit_every)

    @classmethod
    def reopen(
        cls, config: "DBConfig", crashpoints=None, audit_every: int = 4
    ) -> "Replica":
        """Recover a crashed standby from its own durable state.

        The replica's directory already holds the bootstrap checkpoint
        and every ingested frame; reopening replays its *own* stable log
        from ``CK_end`` and resumes waiting at the last contiguous LSN.
        The shipper must :meth:`~repro.replication.shipper.LogShipper.resync`
        afterwards -- retransmitted overlap is dropped by LSN idempotence.
        """
        return cls._open(config, crashpoints, audit_every)

    @classmethod
    def _open(cls, config, crashpoints, audit_every: int) -> "Replica":
        from repro.storage.database import Database

        db = Database._open_shell(config, crashpoints)
        if db.pipeline.maintainer is None or db.pipeline.codeword_table is None:
            raise ConfigError(
                "replication requires a codeword scheme: the replica's "
                "independent audits and digest checks have nothing to "
                "compare otherwise"
            )
        recovery = RestartRecovery.continuous(db)
        ck_end = recovery.report.ck_end
        # Codewords from the restored content: the replica's table is
        # built from its own image, never copied from the primary.
        db.pipeline.startup()
        # Audit brackets go to a scratch log so the replicated log stays
        # a byte-identical prefix of the primary's.
        db.auditor.use_scratch_log(db.path(REPLICA_AUDIT_LOG))
        replica = cls(db, recovery, ck_end, audit_every)
        # Reopen path: replay every frame already ingested (bootstrap
        # scans an empty log and falls straight through).
        recovery.replay(ck_end)
        return replica

    @property
    def next_lsn(self) -> int:
        """The next LSN this replica needs -- resume-from-LSN for shipping."""
        return self.db.system_log.next_lsn

    @property
    def acked_seq(self) -> int:
        """Cumulative ack: every batch below this seq is applied durable."""
        return self.expected_seq

    # ----------------------------------------------------------- receive

    def receive(self, raw: bytes) -> int:
        """Process one batch off the wire; returns the cumulative ack.

        Sequence numbers restore order (out-of-order batches wait in a
        reorder buffer, duplicates are dropped), the batch CRC rejects
        transport corruption, and LSN comparison drops frames a reopened
        replica already owns.
        """
        try:
            batch = ShipBatch.decode(raw)
        except ReplicationError as exc:
            self.divergence.record_transport_error(str(exc))
            return self.expected_seq
        if batch.seq < self.expected_seq:
            self.duplicate_batches += 1
            return self.expected_seq
        if batch.seq > self.expected_seq:
            self.out_of_order_batches += 1
            self._reorder[batch.seq] = batch
            return self.expected_seq
        self._process(batch)
        self.expected_seq += 1
        while self.expected_seq in self._reorder:
            self._process(self._reorder.pop(self.expected_seq))
            self.expected_seq += 1
        return self.expected_seq

    def _process(self, batch: ShipBatch) -> None:
        if batch.kind == KIND_DIGEST:
            if batch.first_lsn != self.db.system_log.next_lsn:
                # The epoch compares equal states only when this replica
                # has applied exactly the records below its CK_end; a
                # resync can leave a stale epoch in the stream -- skip it
                # rather than raise a false divergence.
                self.stale_digests += 1
                return
            report = self.divergence.check(
                batch.first_lsn, np.frombuffer(batch.payload, dtype="<u4")
            )
            if not report.clean:
                self.detections.append(
                    ReplicaDetection(
                        "digest",
                        report.mismatched_regions,
                        self.applied_batches,
                        detail=report.classification,
                    )
                )
            return
        if batch.kind != KIND_RECORDS:  # pragma: no cover - decode validates
            raise ReplicationError(f"unknown batch kind {batch.kind}")
        log = self.db.system_log
        # One walk verifies the batch.  Retransmitted batches can overlap
        # what a crashed-and-reopened replica already has durable: frames
        # below its next LSN (the idempotence key) are dropped before a
        # byte touches the log.
        view = memoryview(batch.payload)
        frames = list(walk_frames(view))
        frames = frames[bisect.bisect_left(frames, (log.next_lsn,)) :]
        if not frames:
            self.duplicate_batches += 1
            return
        crashpoints = self.db.crashpoints
        crashpoints.reach("replica.before_ingest")
        log.ingest_frames(view[frames[0][2] - PAYLOAD_OFFSET :], frames[0][0])
        crashpoints.reach("replica.after_ingest")
        mismatch = self.recovery.apply_frames(view, frames)
        if mismatch is not None:
            # The primary's bytes before this update differ from mine: one
            # of us diverged here, long before the next digest epoch.
            address, length = mismatch
            table = self.db.pipeline.codeword_table
            self.detections.append(
                ReplicaDetection(
                    "replay_checksum",
                    tuple(table.regions_spanning(address, length)),
                    self.applied_batches,
                    detail=f"update at {address:#x}",
                )
            )
        self.applied_records += len(frames)
        self.applied_batches += 1
        crashpoints.reach("replica.after_apply")
        self._audit_cadence()

    def _audit_cadence(self) -> None:
        """The replica's own audit cadence, run after each applied batch.

        Every ``audit_every`` applied batches run the database's routine
        audit (dirty-region passes with a full sweep every
        ``full_sweep_every``-th call) -- entirely against the replica's
        own table.
        """
        self._batches_since_audit += 1
        if self._batches_since_audit < self.audit_every:
            return
        self._batches_since_audit = 0
        report = self.db.audit()
        if not report.clean:
            self.failed_audits.append(report)
            self.detections.append(
                ReplicaDetection(
                    "audit", tuple(report.corrupt_regions), self.applied_batches
                )
            )

    # ----------------------------------------------------------- promote

    def promote(self, primary_end_lsn: int | None = None) -> PromotionReport:
        """Failover: certify, roll back in-flight work, open for business.

        The caller drains the ship queue first (the shipper's ``drain``,
        or whatever the dead network still delivers).  Order matters:

        1. full certifying sweep over the replica's own table -- *before*
           any undo, because the undo phase rebuilds codewords from
           content and would mask replica-side corruption forever;
        2. roll back transactions with no commit record at the last
           contiguous LSN (the shared recovery tail: physical undo,
           codeword rebuild, logical compensation, final checkpoint);
        3. surface the lost-commit window against the dead primary's end
           of stable log, bounded by the shipper's in-flight window.

        Raises :class:`~repro.errors.PromotionError` (carrying the audit
        report) if certification fails -- quarantine/repair and retry.
        """
        db = self.db
        last_lsn = db.system_log.next_lsn - 1
        db.crashpoints.reach("promote.pre_sweep")
        audit_report = db.auditor.run()
        if not audit_report.clean:
            if db.quarantine_enabled:
                db.pipeline.maintainer.quarantine(audit_report.corrupt_regions)
            raise PromotionError(
                f"cannot promote: {len(audit_report.corrupt_regions)} "
                "region(s) failed the certifying sweep",
                audit_report=audit_report,
            )
        db.crashpoints.reach("promote.after_sweep")
        # The promoted node is a primary now: audits bracket themselves in
        # the real log again -- before the recovery tail's certifying
        # checkpoint, whose Audit_SN its meta records -- and transactions
        # are admitted.
        db.auditor.use_data_log()
        recovery_report = self.recovery.complete(last_lsn)
        db._started = True
        self.promoted = True
        lost = None
        if primary_end_lsn is not None:
            lost = max(0, primary_end_lsn - (last_lsn + 1))
        return PromotionReport(
            certified=True,
            promoted_lsn=last_lsn + 1,
            lost_commit_window=lost,
            audit_report=audit_report,
            recovery_report=recovery_report,
        )

    def repair(self) -> int:
        """Repair quarantined regions from the replica's own checkpoint+log."""
        return self.db.repair_quarantined()

    def close(self) -> None:
        self.db.close()

    def crash(self) -> None:
        """Simulated standby process death; :meth:`reopen` recovers it."""
        self.db.crash()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Replica(next_lsn={self.db.system_log.next_lsn}, "
            f"batches={self.applied_batches}, records={self.applied_records}, "
            f"promoted={self.promoted})"
        )
