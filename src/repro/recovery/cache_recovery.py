"""The cache-recovery model (Section 4.1/4.2).

When a precheck fails under Read Prechecking, or an audit fails under the
plain Data Codeword scheme, *direct* corruption is present but -- by those
schemes' guarantees -- has not been read by any transaction (precheck) or
is assumed not to have been (plain audits find it before the checkpointer
propagates it).  The corrupted cache region can then be repaired in place,
without crashing, "by applying standard recovery techniques to the region
of data corrupted":

1. reload the region's bytes from the anchored (certified clean)
   checkpoint image;
2. replay physical redo records overlapping the region -- first from the
   stable log starting at the checkpoint's ``CK_end``, then from the
   in-memory system log tail;
3. replay not-yet-migrated updates from the local redo logs of active
   transactions (committed operations' records are already in the system
   log; open operations' records are still local);
4. recompute the region's codeword.

This restores exactly the state the prescribed interface produced, erasing
the wild write.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import RecoveryError
from repro.wal.records import UpdateRecord

if TYPE_CHECKING:  # pragma: no cover
    from repro.storage.database import Database


def _overlap(start_a: int, len_a: int, start_b: int, len_b: int) -> tuple[int, int] | None:
    lo = max(start_a, start_b)
    hi = min(start_a + len_a, start_b + len_b)
    if hi <= lo:
        return None
    return lo, hi - lo


def repair_regions(db: "Database", region_ids: list[int]) -> int:
    """Repair directly-corrupted regions in the cache image.

    Returns the number of regions repaired.  Raises
    :class:`~repro.errors.RecoveryError` if the scheme has no codeword
    table (there is nothing to define a region or verify the repair).
    """
    table = db.scheme.codeword_table
    if table is None:
        raise RecoveryError("cache recovery needs a codeword scheme")

    ck_end = db.checkpointer.anchored_ck_end()
    repaired = 0
    for region_id in region_ids:
        start, length = table.region_bounds(region_id)
        latch = getattr(db.scheme, "protection_latches", None)
        if latch is not None:
            region_latch = latch.latch(region_id)
            region_latch.acquire("X")
        try:
            buffer = bytearray(db.checkpointer.read_image_range(start, length))
            _apply_overlapping_updates(db, buffer, start, length, ck_end)
            db.memory.restore(start, bytes(buffer))
            table.rebuild_region(region_id)
            if not table.matches(region_id):  # pragma: no cover - sanity
                raise RecoveryError(f"region {region_id} still corrupt after repair")
            repaired += 1
        finally:
            if latch is not None:
                region_latch.release()
    maintainer = getattr(db.scheme, "maintainer", None)
    if maintainer is not None:
        # A repaired region matches its (recomputed) codeword again;
        # release it from quarantine so reads flow.  The repair wrote
        # below the hooks, so an in-flight background sweep must
        # re-check these regions at join.
        maintainer.note_repair(region_ids)
        maintainer.unquarantine(region_ids)
    return repaired


def _apply_overlapping_updates(
    db: "Database", buffer: bytearray, start: int, length: int, ck_end: int
) -> None:
    """Replay every prescribed write overlapping ``[start, start+length)``."""

    def apply(record: UpdateRecord) -> None:
        clip = _overlap(start, length, record.address, len(record.image))
        if clip is None:
            return
        lo, n = clip
        img_off = lo - record.address
        buf_off = lo - start
        buffer[buf_off : buf_off + n] = record.image[img_off : img_off + n]

    for _lsn, record in db.system_log.scan(ck_end, only=(UpdateRecord,)):
        apply(record)
    for _lsn, record in db.system_log.tail:
        if isinstance(record, UpdateRecord):
            apply(record)
    # Open operations' updates are still in local redo logs.
    for txn in db.manager.att:
        for record in txn.redo_log.records:
            if isinstance(record, UpdateRecord):
                apply(record)
