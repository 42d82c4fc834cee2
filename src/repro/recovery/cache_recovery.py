"""The cache-recovery model (Section 4.1/4.2).

When a precheck fails under Read Prechecking, or an audit fails under the
plain Data Codeword scheme, *direct* corruption is present but -- by those
schemes' guarantees -- has not been read by any transaction (precheck) or
is assumed not to have been (plain audits find it before the checkpointer
propagates it).  The corrupted cache region can then be repaired in place,
without crashing, "by applying standard recovery techniques to the region
of data corrupted":

1. latch every region in ascending id order and reload its bytes from the
   anchored (certified clean) checkpoint image;
2. replay, in one pass over the live log for all the regions together,
   the physical redo overlapping any of them: the stable log from the
   checkpoint's ``CK_end``, then the in-memory system log tail, then the
   local redo logs of active transactions (committed operations' records
   are already in the system log; open operations' records are still
   local).  Each update is clipped to the regions it touches and stored
   in log order, one :meth:`~repro.mem.memory.MemoryImage.restore_batch`
   per log buffer -- restart redo's store path;
3. recompute the regions' codewords.

This restores exactly the state the prescribed interface produced, erasing
the wild write.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.maintainer import _latch_all, _unlatch_all
from repro.errors import RecoveryError
from repro.txn.latches import EXCLUSIVE
from repro.wal.records import UPDATE_HEAD, RecordType

if TYPE_CHECKING:  # pragma: no cover
    from repro.storage.database import Database

_UPDATE = int(RecordType.UPDATE)


def repair_regions(db: "Database", region_ids) -> int:
    """Repair directly-corrupted regions in the cache image.

    Returns the number of distinct regions repaired.  Raises
    :class:`~repro.errors.RecoveryError` if the scheme has no codeword
    table (there is nothing to define a region or verify the repair).
    """
    table = db.scheme.codeword_table
    if table is None:
        raise RecoveryError("cache recovery needs a codeword scheme")

    ck_end = db.checkpointer.anchored_ck_end()
    ids = sorted(set(region_ids))
    latches = getattr(db.scheme, "protection_latches", None)
    if latches is not None:
        _latch_all(latches, ids, EXCLUSIVE)
    try:
        for region_id in ids:
            start, length = table.region_bounds(region_id)
            db.memory.restore(start, db.checkpointer.read_image_range(start, length))
        _redo_into_regions(db, table, set(ids), ck_end)
        for region_id in ids:
            table.rebuild_region(region_id)
            if not table.matches(region_id):  # pragma: no cover - sanity
                raise RecoveryError(f"region {region_id} still corrupt after repair")
    finally:
        if latches is not None:
            _unlatch_all(latches, ids)
    maintainer = getattr(db.scheme, "maintainer", None)
    if maintainer is not None:
        # A repaired region matches its (recomputed) codeword again;
        # release it from quarantine so reads flow.  The repair wrote
        # below the hooks, so an in-flight background sweep must
        # re-check these regions at join.
        maintainer.note_repair(ids)
        maintainer.unquarantine(ids)
    return len(ids)


def _redo_into_regions(db: "Database", table, wanted: set[int], ck_end: int) -> None:
    """Store every logged after-image byte that lands in a ``wanted``
    region, in log order: one walk of the live log's update frames, open
    operations' included, each clipped to the wanted regions it spans."""
    restore_batch = db.memory.restore_batch
    arenas = (txn.redo_log.arena for txn in db.manager.att)
    source, queue = None, []
    for view, _lsn, code, pos, _end in db.system_log.live_frames(ck_end, arenas):
        if view is not source:
            if queue:
                restore_batch(source, queue)
                queue.clear()
            source = view
        if code != _UPDATE:
            continue
        _txn_id, address, size, _checksum = UPDATE_HEAD.unpack_from(view, pos)
        shift = pos + UPDATE_HEAD.size - address  # address -> offset in view
        for region_id in table.regions_spanning(address, size):
            if region_id in wanted:
                start, length = table.region_bounds(region_id)
                lo, hi = max(start, address), min(start + length, address + size)
                if lo < hi:
                    queue.append((lo, lo + shift, hi + shift))
    if queue:
        restore_batch(source, queue)
