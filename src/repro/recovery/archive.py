"""Archive copies and media recovery with log amendment.

Section 4.3 notes that the checkpoint finishing corruption recovery
"invalidates all archives.  The log may be amended during recovery to
avoid this problem, but this scheme is omitted for simplicity."  This
module implements the omitted scheme:

* :func:`create_archive` copies a freshly certified checkpoint (image,
  meta, anchor) to an archive directory;
* corruption recovery appends :class:`~repro.wal.records.AmendRecord`
  entries to the log whenever it deletes transactions from history
  (see ``RestartRecovery._write_amendments``);
* :func:`recover_from_archive` restores the archived checkpoint and
  replays the *full* log over it -- collecting amend records in a
  prepass so the replay re-runs the same delete-transaction decisions.
  Without the amendment, a raw replay would re-apply the deleted
  transactions' writes and resurrect the corruption.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ArchiveError
from repro.recovery.checkpoint import ANCHOR_FILE
from repro.recovery.restart import (
    CorruptionContext,
    RecoveryReport,
    load_corruption_note,
)
from repro.wal.records import AmendRecord

if TYPE_CHECKING:  # pragma: no cover
    from repro.storage.database import Database, DBConfig

ARCHIVE_MANIFEST = "archive.json"


@dataclass(frozen=True)
class ArchiveInfo:
    """Manifest of one archive copy."""

    path: str
    image: str
    ck_end: int


def create_archive(db: "Database", archive_dir: str) -> ArchiveInfo:
    """Copy the current certified checkpoint into ``archive_dir``.

    A fresh checkpoint is taken first so the archive is certified
    corruption-free and update-consistent at its own ``CK_end``.
    """
    from repro.storage.database import CATALOG_FILE

    result = db.checkpoint()
    if not result.certified:
        raise ArchiveError(
            "cannot archive: the checkpoint failed certification (the "
            "image is corrupt); recover first"
        )
    os.makedirs(archive_dir, exist_ok=True)
    image = result.image
    for filename in (f"ckpt_{image}.img", f"ckpt_{image}.meta", ANCHOR_FILE):
        shutil.copy2(db.path(filename), os.path.join(archive_dir, filename))
    # The catalog rides along so the archive is self-contained: a replica
    # bootstrapping into an empty directory needs the schema to rebuild
    # its layout before it can replay a single record.
    catalog = db.path(CATALOG_FILE)
    if os.path.exists(catalog):
        shutil.copy2(catalog, os.path.join(archive_dir, CATALOG_FILE))
    manifest = {"image": image, "ck_end": result.ck_end}
    with open(os.path.join(archive_dir, ARCHIVE_MANIFEST), "w") as handle:
        json.dump(manifest, handle)
    return ArchiveInfo(path=archive_dir, image=image, ck_end=result.ck_end)


def read_archive_info(archive_dir: str) -> ArchiveInfo:
    path = os.path.join(archive_dir, ARCHIVE_MANIFEST)
    if not os.path.exists(path):
        raise ArchiveError(f"no archive manifest at {path}")
    with open(path) as handle:
        manifest = json.load(handle)
    return ArchiveInfo(
        path=archive_dir, image=manifest["image"], ck_end=manifest["ck_end"]
    )


def recover_from_archive(
    config: "DBConfig", archive_dir: str, crashpoints=None
) -> tuple["Database", RecoveryReport]:
    """Media recovery: restore the archive, replay the amended log.

    The database directory's checkpoint files and anchor are replaced by
    the archive's; the system log (and catalog) stay.  Amend records with
    LSNs after the archive's ``CK_end`` reconstruct the corruption
    contexts of every corruption recovery that happened since the archive
    was taken, so the replay deletes the same transactions again.

    ``crashpoints`` (a :class:`~repro.faults.crashpoints.CrashPointRegistry`)
    rides into the database; ``archive.after_restore`` fires after the
    checkpoint files are copied but before replay begins.  Media recovery
    is restartable from that state: the copied files are the archive's
    own bytes, so running it again converges.
    """
    from repro.storage.database import Database

    info = read_archive_info(archive_dir)
    for filename in (f"ckpt_{info.image}.img", f"ckpt_{info.image}.meta", ANCHOR_FILE):
        source = os.path.join(archive_dir, filename)
        shutil.copy2(source, os.path.join(config.dir, filename))

    if crashpoints is not None:
        crashpoints.reach("archive.after_restore")
    db = Database._open_shell(config, crashpoints)

    # Whether evidence kinds combine is a property of the protection
    # stack, not of the logged amendment (the AmendRecord codec predates
    # pipelines); derive it from the scheme like use_checksums originally
    # was at note-load time.
    combine = bool(getattr(db.scheme, "combines_evidence", False))
    contexts: list[CorruptionContext] = []
    # Type-filtered scan: every non-Amend frame is CRC-checked and
    # skipped without constructing the record, so this prepass costs one
    # pass over the bytes instead of materializing the whole log.
    for _lsn, record in db.system_log.scan(info.ck_end, only=(AmendRecord,)):
        contexts.append(
            CorruptionContext(
                corrupt_ranges=tuple(record.corrupt_ranges),
                audit_sn=record.audit_sn,
                use_checksums=record.use_checksums,
                reads_traced=True,
                from_amendment=True,
                root_txns=tuple(record.root_txns),
                combine_evidence=record.use_checksums and combine,
            )
        )
    live = load_corruption_note(db)
    if live is not None:
        contexts.append(live)

    return db, db._run_recovery(contexts or None)
