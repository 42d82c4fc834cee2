"""Ping-pong checkpointing with corruption-free certification.

Following Section 2.1 and Section 4.2:

* two checkpoint images (``Ckpt_A``/``Ckpt_B``) are written alternately;
  the anchor file ``cur_ckpt`` names the most recent *valid* image;
* each checkpoint stores the dirty portions of the database, a copy of the
  ATT with local undo logs, and ``CK_end`` -- the LSN the image is
  update-consistent with (we flush the log and quiesce updates while
  copying pages, so the image is exactly consistent at the flushed end of
  log; the paper's Dali uses a weaker fuzzy protocol plus log-assisted
  repair, which we simplify away -- see DESIGN.md);
* after the image is written, *every* region of the database is audited;
  only a clean audit toggles the anchor, certifying the checkpoint free of
  both direct and indirect corruption ("If no page in the database has
  direct corruption, no indirect corruption could have occurred either").

The certification audit is one call into the audit engine
(:meth:`~repro.core.audit.Auditor.certify`), which joins an in-flight
background sweep or runs the routine audit.  Under
``DBConfig(full_sweep_every=K > 1)`` the routine is a dirty-region pass
between full sweeps -- a documented weakening of the paper's
every-region certification, bounded by K.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.audit import AuditReport
from repro.errors import CheckpointError

if TYPE_CHECKING:  # pragma: no cover
    from repro.storage.database import Database

ANCHOR_FILE = "cur_ckpt"
_META = struct.Struct("<QQI")  # ck_end, audit_sn, att_length


@dataclass(frozen=True)
class CheckpointResult:
    image: str
    ck_end: int
    pages_written: int
    certified: bool
    audit_report: AuditReport | None


class Checkpointer:
    """Writes and loads ping-pong checkpoints for a database."""

    def __init__(self, db: "Database") -> None:
        self.db = db
        self.checkpoints_taken = 0

    # ------------------------------------------------------------ paths

    def _image_path(self, image: str) -> str:
        return self.db.path(f"ckpt_{image}.img")

    def _meta_path(self, image: str) -> str:
        return self.db.path(f"ckpt_{image}.meta")

    def _anchor_path(self) -> str:
        return self.db.path(ANCHOR_FILE)

    def read_anchor(self) -> dict | None:
        path = self._anchor_path()
        if not os.path.exists(path):
            return None
        with open(path) as handle:
            return json.load(handle)

    # ------------------------------------------------------------ write

    def checkpoint(
        self, audit: bool = True, force_full_audit: bool = False
    ) -> CheckpointResult:
        """Write the next checkpoint image; certify it with an audit.

        The certification audit is the auditor's
        :meth:`~repro.core.audit.Auditor.certify`: it joins an in-flight
        background sweep, or runs the routine audit -- full by default,
        a dirty-region pass on the full-sweep cadence under
        ``DBConfig(full_sweep_every=K > 1)``.  ``force_full_audit``
        always audits every region -- corruption recovery's final
        checkpoint must certify the whole image, not just the write
        working set.
        """
        db = self.db
        crashpoints = db.crashpoints
        ck_end = db.system_log.flush()
        anchor = self.read_anchor()
        image = "A" if anchor is None or anchor["image"] == "B" else "B"

        pages = sorted(db.memory.dirty_pages.pending_for(image))
        # A crash anywhere before the anchor replace must be invisible:
        # only the non-anchored ping-pong image is touched, so load_latest
        # keeps returning the previous consistent checkpoint.
        crashpoints.reach("checkpoint.pre_image")
        self._write_image(image, pages)
        crashpoints.reach("checkpoint.after_image")
        att_bytes = db.manager.att.encode()
        audit_sn = db.auditor.last_clean_audit_lsn
        self._write_meta(image, ck_end, audit_sn, att_bytes)
        crashpoints.reach("checkpoint.after_meta")
        db.memory.dirty_pages.clear_for(image, pages)
        self.checkpoints_taken += 1

        report: AuditReport | None = None
        if audit:
            report = db.auditor.certify(force_full=force_full_audit)
            if not report.clean:
                # Not certified: the anchor keeps pointing at the previous
                # image, and the caller is expected to crash into
                # corruption recovery.
                return CheckpointResult(image, ck_end, len(pages), False, report)
            # The audit's own records should be on stable storage before
            # the anchor names this checkpoint.
            db.system_log.flush()
            audit_sn = db.auditor.last_clean_audit_lsn
            self._write_meta(image, ck_end, audit_sn, att_bytes)

        crashpoints.reach("checkpoint.pre_anchor")
        self._write_anchor({"image": image, "ck_end": ck_end})
        crashpoints.reach("checkpoint.after_anchor")
        # A certified anchor is a digest epoch: replication listeners get
        # the per-region content folds for exactly the state a replica
        # reaches after replaying every record below ``ck_end``.  Only
        # published when no transaction is in flight (in-flight image
        # writes have no shipped records yet).
        db.auditor.publish_digests(ck_end, quiescent=len(db.manager.att) == 0)
        return CheckpointResult(image, ck_end, len(pages), True, report)

    def _write_image(self, image: str, pages: list[int]) -> None:
        db = self.db
        path = self._image_path(image)
        page_size = db.memory.page_size
        if not os.path.exists(path):
            with open(path, "wb") as handle:
                handle.truncate(db.memory.size)
        use_copy_range = hasattr(os, "copy_file_range")
        with open(path, "r+b") as handle:
            for page_id in pages:
                address = page_id * page_size
                if use_copy_range:
                    # mmap backing: a dirty page propagates file-to-file,
                    # backing file -> checkpoint image, without staging the
                    # bytes through Python.  Pages never straddle segments
                    # (segments are page-rounded), so a single range covers
                    # the page.  Correctness relies on the unified page
                    # cache: file reads observe mmap stores.
                    src = db.memory.backing_range(address, page_size)
                    if src is not None:
                        src_file, src_offset = src
                        if self._copy_range(
                            src_file, handle, page_size, src_offset, address
                        ):
                            continue
                handle.seek(address)
                handle.write(db.memory.page_bytes(page_id))

    @staticmethod
    def _copy_range(src, dst, count: int, src_offset: int, dst_offset: int) -> bool:
        """Kernel-side copy of ``count`` bytes; False sends the caller to
        the portable read/write fallback."""
        copied = 0
        while copied < count:
            try:
                n = os.copy_file_range(
                    src.fileno(),
                    dst.fileno(),
                    count - copied,
                    src_offset + copied,
                    dst_offset + copied,
                )
            except OSError:  # pragma: no cover - filesystem without support
                return False
            if n == 0:  # pragma: no cover - unexpected short copy
                return False
            copied += n
        return True

    def _write_meta(self, image: str, ck_end: int, audit_sn: int, att: bytes) -> None:
        blob = _META.pack(ck_end, audit_sn, len(att)) + att
        tmp = self._meta_path(image) + ".tmp"
        with open(tmp, "wb") as handle:
            handle.write(blob)
        os.replace(tmp, self._meta_path(image))

    def _write_anchor(self, anchor: dict) -> None:
        tmp = self._anchor_path() + ".tmp"
        with open(tmp, "w") as handle:
            json.dump(anchor, handle)
        os.replace(tmp, self._anchor_path())

    # ------------------------------------------------------------- load

    def load_latest(self) -> tuple[str, int, int, bytes]:
        """Load the anchored checkpoint image into memory.

        Returns ``(image, ck_end, audit_sn, att_bytes)``.
        """
        anchor = self.read_anchor()
        if anchor is None:
            raise CheckpointError("no checkpoint anchor; cannot recover")
        image = anchor["image"]
        db = self.db
        with open(self._image_path(image), "rb") as handle:
            image_size = os.fstat(handle.fileno()).st_size
            if image_size != db.memory.size:
                raise CheckpointError(
                    f"checkpoint image is {image_size} bytes, memory is "
                    f"{db.memory.size}"
                )
            # Stream segment by segment straight into the segment buffers
            # (bytearray or mmap alike) -- no whole-image staging copy, so
            # loading a larger-than-RAM mmap-backed image never doubles
            # its footprint.
            for segment in db.memory.segments:
                handle.seek(segment.base)
                view = memoryview(segment.data)
                filled = 0
                while filled < segment.size:
                    n = handle.readinto(view[filled:])
                    if not n:  # pragma: no cover - size checked above
                        raise CheckpointError(
                            f"checkpoint image truncated inside segment "
                            f"{segment.name!r}"
                        )
                    filled += n
        with open(self._meta_path(image), "rb") as handle:
            blob = handle.read()
        ck_end, audit_sn, att_len = _META.unpack_from(blob, 0)
        att_bytes = blob[_META.size : _META.size + att_len]
        return image, ck_end, audit_sn, att_bytes

    def read_image_range(self, start: int, length: int) -> bytes:
        """Read bytes straight from the anchored image (cache recovery)."""
        anchor = self.read_anchor()
        if anchor is None:
            raise CheckpointError("no checkpoint anchor")
        with open(self._image_path(anchor["image"]), "rb") as handle:
            handle.seek(start)
            return handle.read(length)

    def anchored_ck_end(self) -> int:
        anchor = self.read_anchor()
        if anchor is None:
            raise CheckpointError("no checkpoint anchor")
        return anchor["ck_end"]
