"""Slot allocator with off-page control information.

Dali does not store allocation information on the same page as tuple data
(Section 2).  The allocator therefore keeps its header and bitmap in a
*control* segment while the slots themselves live in a *data* segment.
This separation is load-bearing for the performance study: every insert
dirties control pages far from the tuple page, which is why an operation
touches ~11 pages and why page-granular hardware protection is expensive
(Section 5.3).

All allocator state changes go through a :class:`MemoryAccessor` -- in
production that is a transaction's prescribed ``read``/``update``
interface, so allocation updates are logged, recoverable and
codeword-maintained exactly like tuple updates.
"""

from __future__ import annotations

import struct
from typing import Protocol

from repro.errors import ConfigError, OutOfSpaceError

_HEADER = struct.Struct("<IIII")  # next_free_hint, allocated, slot_count, slot_size


class MemoryAccessor(Protocol):
    """The prescribed data access interface the allocator runs on."""

    def read(self, address: int, length: int) -> bytes: ...

    def update(self, address: int, new_bytes: bytes) -> None: ...


class SlotAllocator:
    """Fixed-size slot allocation over a contiguous data area.

    The header keeps a ``next_free_hint`` so the common allocation path
    reads one header and one bitmap byte; a wrap-around scan handles the
    case where the hint is stale (e.g. after frees or recovery).
    """

    HEADER_SIZE = _HEADER.size

    def __init__(
        self,
        control_base: int,
        data_base: int,
        slot_count: int,
        slot_size: int,
    ) -> None:
        if slot_count <= 0 or slot_size <= 0:
            raise ConfigError(
                f"slot_count and slot_size must be positive: {slot_count}, {slot_size}"
            )
        self.control_base = control_base
        self.data_base = data_base
        self.slot_count = slot_count
        self.slot_size = slot_size
        self.bitmap_base = control_base + self.HEADER_SIZE
        self.bitmap_bytes = (slot_count + 7) // 8

    @property
    def control_size(self) -> int:
        """Bytes of control-segment space this allocator occupies."""
        return self.HEADER_SIZE + self.bitmap_bytes

    @property
    def data_size(self) -> int:
        return self.slot_count * self.slot_size

    # ----------------------------------------------------------- format

    def format(self, ctx: MemoryAccessor) -> None:
        """Initialize the header (bitmap is born all-zero)."""
        header = _HEADER.pack(0, 0, self.slot_count, self.slot_size)
        ctx.update(self.control_base, header)

    # ------------------------------------------------------- operations

    def allocate(self, ctx: MemoryAccessor) -> int:
        """Allocate a free slot and return its id."""
        hint, allocated, _count, _size = _HEADER.unpack(
            ctx.read(self.control_base, self.HEADER_SIZE)
        )
        if allocated >= self.slot_count:
            raise OutOfSpaceError(
                f"allocator at {self.control_base:#x} is full "
                f"({self.slot_count} slots)"
            )
        slot = self._find_free(ctx, hint)
        self._set_bit(ctx, slot, True)
        next_hint = (slot + 1) % self.slot_count
        ctx.update(
            self.control_base,
            _HEADER.pack(next_hint, allocated + 1, self.slot_count, self.slot_size),
        )
        return slot

    def allocate_at(self, ctx: MemoryAccessor, slot: int) -> None:
        """Allocate a specific slot (logical undo of a delete re-inserts here)."""
        self._check_slot(slot)
        if self.is_allocated(ctx, slot):
            raise ConfigError(f"slot {slot} is already allocated")
        hint, allocated, _count, _size = _HEADER.unpack(
            ctx.read(self.control_base, self.HEADER_SIZE)
        )
        self._set_bit(ctx, slot, True)
        ctx.update(
            self.control_base,
            _HEADER.pack(hint, allocated + 1, self.slot_count, self.slot_size),
        )

    def free(self, ctx: MemoryAccessor, slot: int) -> None:
        self._check_slot(slot)
        if not self.is_allocated(ctx, slot):
            raise ConfigError(f"slot {slot} is not allocated")
        self._set_bit(ctx, slot, False)
        hint, allocated, _count, _size = _HEADER.unpack(
            ctx.read(self.control_base, self.HEADER_SIZE)
        )
        new_hint = min(hint, slot)
        ctx.update(
            self.control_base,
            _HEADER.pack(new_hint, allocated - 1, self.slot_count, self.slot_size),
        )

    def is_allocated(self, ctx: MemoryAccessor, slot: int) -> bool:
        self._check_slot(slot)
        byte = ctx.read(self.bitmap_base + slot // 8, 1)[0]
        return bool(byte & (1 << (slot % 8)))

    def allocated_count(self, ctx: MemoryAccessor) -> int:
        _hint, allocated, _count, _size = _HEADER.unpack(
            ctx.read(self.control_base, self.HEADER_SIZE)
        )
        return allocated

    def slot_address(self, slot: int) -> int:
        self._check_slot(slot)
        return self.data_base + slot * self.slot_size

    def slot_for_address(self, address: int) -> int:
        if not self.data_base <= address < self.data_base + self.data_size:
            raise ConfigError(f"address {address:#x} is outside this allocator's data")
        return (address - self.data_base) // self.slot_size

    def iter_allocated(self, ctx: MemoryAccessor):
        """Yield allocated slot ids (used by recovery-time index rebuild)."""
        for base in range(0, self.bitmap_bytes, 512):
            chunk = ctx.read(self.bitmap_base + base, min(512, self.bitmap_bytes - base))
            for i, byte in enumerate(chunk):
                if not byte:
                    continue
                for bit in range(8):
                    slot = (base + i) * 8 + bit
                    if slot < self.slot_count and byte & (1 << bit):
                        yield slot

    # --------------------------------------------------------- internals

    def _check_slot(self, slot: int) -> None:
        if not 0 <= slot < self.slot_count:
            raise ConfigError(f"slot {slot} out of range [0, {self.slot_count})")

    def _find_free(self, ctx: MemoryAccessor, hint: int) -> int:
        """Scan the bitmap starting at ``hint``, wrapping once."""
        probe = 0
        while probe < self.slot_count:
            slot = (hint + probe) % self.slot_count
            byte = ctx.read(self.bitmap_base + slot // 8, 1)[0]
            if not byte & (1 << (slot % 8)):
                return slot
            # Skip the rest of a fully-set byte to bound scan cost (bits
            # past slot_count are never set, so its 8 slots all exist).
            probe += 8 if byte == 0xFF and slot % 8 == 0 else 1
        raise OutOfSpaceError("no free slot found despite header count")

    def _set_bit(self, ctx: MemoryAccessor, slot: int, value: bool) -> None:
        address = self.bitmap_base + slot // 8
        byte = ctx.read(address, 1)[0]
        mask = 1 << (slot % 8)
        byte = (byte | mask) if value else (byte & ~mask)
        ctx.update(address, bytes([byte]))
