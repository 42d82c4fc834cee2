"""An in-image chained hash index.

The index lives inside the protected database image and is maintained
exclusively through the prescribed read/update interface.  That gives it
the same guarantees as tuple data with zero special-case code:

* physical redo at restart recovers its pages like any others;
* codeword maintenance covers its updates, so a wild write into the index
  is detected by the same audits;
* its reads generate read-log records, so corruption read *through the
  index* is traced by delete-transaction recovery.

Layout (all little-endian):

* header: ``u32 bucket_count | u32 entry_capacity | u32 free_head |
  u32 never_used`` -- ``free_head`` is an entry id + 1 (0 = empty list);
  ``never_used`` supports lazy free-list initialization so formatting the
  index writes 16 bytes, not ``capacity x 16``.
* directory: ``bucket_count`` x u32 (head entry id + 1, 0 = empty bucket);
* entry pool: ``entry_capacity`` entries of ``i64 key | u32 slot |
  u32 next``.

The image is not trusted to be well formed: a wild write can point a
chain anywhere, so a chain walk stops at an entry id past the pool and
after ``entry_capacity`` hops (no chain is longer), and raises
:class:`~repro.errors.CorruptionDetected` instead of reading outside the
index or cycling forever.
"""

from __future__ import annotations

import struct

from repro.errors import ConfigError, CorruptionDetected, OutOfSpaceError
from repro.mem.allocator import MemoryAccessor

_HEADER = struct.Struct("<IIII")
_ENTRY = struct.Struct("<qII")

ENTRY_SIZE = _ENTRY.size  # 16 bytes

#: Hash directory size as a fraction of the table's capacity.
BUCKETS_PER_ENTRY = 0.5


def _mix(key: int) -> int:
    """Deterministic integer hash (stable across processes)."""
    key &= 0xFFFFFFFFFFFFFFFF
    key = (key ^ (key >> 30)) * 0xBF58476D1CE4E5B9 & 0xFFFFFFFFFFFFFFFF
    key = (key ^ (key >> 27)) * 0x94D049BB133111EB & 0xFFFFFFFFFFFFFFFF
    return key ^ (key >> 31)


class HashIndex:
    """Fixed-capacity chained hash index over ``int -> slot`` mappings."""

    HEADER_SIZE = _HEADER.size

    def __init__(self, base: int, bucket_count: int, entry_capacity: int) -> None:
        if bucket_count <= 0 or entry_capacity <= 0:
            raise ConfigError("bucket_count and entry_capacity must be positive")
        self.base = base
        self.bucket_count = bucket_count
        self.entry_capacity = entry_capacity
        self.directory_base = base + self.HEADER_SIZE
        self.pool_base = self.directory_base + 4 * bucket_count

    @staticmethod
    def size_for(bucket_count: int, entry_capacity: int) -> int:
        return HashIndex.HEADER_SIZE + 4 * bucket_count + ENTRY_SIZE * entry_capacity

    @property
    def size(self) -> int:
        return self.size_for(self.bucket_count, self.entry_capacity)

    def format(self, ctx: MemoryAccessor) -> None:
        ctx.update(
            self.base, _HEADER.pack(self.bucket_count, self.entry_capacity, 0, 0)
        )

    # --------------------------------------------------------- geometry

    def _bucket_address(self, key: int) -> int:
        return self.directory_base + 4 * (_mix(key) % self.bucket_count)

    def _entry_address(self, entry_id: int) -> int:
        return self.pool_base + ENTRY_SIZE * entry_id

    # ------------------------------------------------------- operations

    def insert(self, ctx: MemoryAccessor, key: int, slot: int) -> None:
        entry_id = self._allocate_entry(ctx)
        bucket_address = self._bucket_address(key)
        head = struct.unpack("<I", ctx.read(bucket_address, 4))[0]
        ctx.update(self._entry_address(entry_id), _ENTRY.pack(key, slot, head))
        ctx.update(bucket_address, struct.pack("<I", entry_id + 1))

    def _broken_chain(self, entry_id: int, hops: int) -> CorruptionDetected:
        if entry_id >= self.entry_capacity:
            what = f"entry {entry_id} is past the {self.entry_capacity}-entry pool"
        else:
            what = f"a chain runs past {hops} hops (a cycle)"
        return CorruptionDetected(
            [], context=f"hash index walk at {self.base:#x}: {what}"
        )

    def lookup(self, ctx: MemoryAccessor, key: int) -> int | None:
        """Return the slot mapped to ``key``, or None."""
        bucket_address = self._bucket_address(key)
        head = struct.unpack("<I", ctx.read(bucket_address, 4))[0]
        capacity = self.entry_capacity
        hops = 0
        while head:
            entry_id = head - 1
            if entry_id >= capacity or hops == capacity:
                raise self._broken_chain(entry_id, hops)
            hops += 1
            entry_key, slot, nxt = _ENTRY.unpack(
                ctx.read(self._entry_address(entry_id), ENTRY_SIZE)
            )
            if entry_key == key:
                return slot
            head = nxt
        return None

    def delete(self, ctx: MemoryAccessor, key: int) -> bool:
        """Unlink the first entry for ``key``; returns False if absent."""
        bucket_address = self._bucket_address(key)
        prev_address = bucket_address
        head = struct.unpack("<I", ctx.read(bucket_address, 4))[0]
        capacity = self.entry_capacity
        hops = 0
        while head:
            entry_id = head - 1
            if entry_id >= capacity or hops == capacity:
                raise self._broken_chain(entry_id, hops)
            hops += 1
            entry_address = self._entry_address(entry_id)
            entry_key, _slot, nxt = _ENTRY.unpack(ctx.read(entry_address, ENTRY_SIZE))
            if entry_key == key:
                ctx.update(prev_address, struct.pack("<I", nxt))
                self._free_entry(ctx, entry_id)
                return True
            prev_address = entry_address + 12  # the 'next' field of this entry
            head = nxt
        return False

    # -------------------------------------------------- entry free list

    def _allocate_entry(self, ctx: MemoryAccessor) -> int:
        buckets, capacity, free_head, never_used = _HEADER.unpack(
            ctx.read(self.base, self.HEADER_SIZE)
        )
        if free_head:
            entry_id = free_head - 1
            nxt = struct.unpack(
                "<I", ctx.read(self._entry_address(entry_id) + 12, 4)
            )[0]
            ctx.update(self.base, _HEADER.pack(buckets, capacity, nxt, never_used))
            return entry_id
        if never_used < capacity:
            ctx.update(
                self.base, _HEADER.pack(buckets, capacity, free_head, never_used + 1)
            )
            return never_used
        raise OutOfSpaceError(
            f"hash index at {self.base:#x} is full ({capacity} entries)"
        )

    def _free_entry(self, ctx: MemoryAccessor, entry_id: int) -> None:
        buckets, capacity, free_head, never_used = _HEADER.unpack(
            ctx.read(self.base, self.HEADER_SIZE)
        )
        ctx.update(self._entry_address(entry_id) + 12, struct.pack("<I", free_head))
        ctx.update(self.base, _HEADER.pack(buckets, capacity, entry_id + 1, never_used))
