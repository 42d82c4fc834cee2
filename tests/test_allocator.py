"""Slot allocator over a raw memory accessor."""

import pytest

from repro.errors import ConfigError, OutOfSpaceError
from repro.mem.allocator import SlotAllocator
from repro.mem.memory import MemoryImage


class RawAccessor:
    """Direct accessor: the allocator's view without a transaction."""

    def __init__(self, memory: MemoryImage) -> None:
        self.memory = memory

    def read(self, address: int, length: int) -> bytes:
        return self.memory.read(address, length)

    def update(self, address: int, new_bytes: bytes) -> None:
        self.memory.write(address, new_bytes)


def make_allocator(slots=64, slot_size=100):
    memory = MemoryImage(page_size=4096)
    data = memory.add_segment("data", slots * slot_size)
    probe = SlotAllocator(0, data.base, slots, slot_size)
    ctl = memory.add_segment("ctl", probe.control_size, kind="control")
    alloc = SlotAllocator(ctl.base, data.base, slots, slot_size)
    ctx = RawAccessor(memory)
    alloc.format(ctx)
    return alloc, ctx


class TestAllocate:
    def test_sequential_allocation(self):
        alloc, ctx = make_allocator()
        assert [alloc.allocate(ctx) for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_allocated_count(self):
        alloc, ctx = make_allocator()
        for _ in range(3):
            alloc.allocate(ctx)
        assert alloc.allocated_count(ctx) == 3

    def test_is_allocated(self):
        alloc, ctx = make_allocator()
        slot = alloc.allocate(ctx)
        assert alloc.is_allocated(ctx, slot)
        assert not alloc.is_allocated(ctx, slot + 1)

    def test_full_allocator_raises(self):
        alloc, ctx = make_allocator(slots=8)
        for _ in range(8):
            alloc.allocate(ctx)
        with pytest.raises(OutOfSpaceError):
            alloc.allocate(ctx)

    def test_slot_addresses(self):
        alloc, ctx = make_allocator(slot_size=100)
        assert alloc.slot_address(3) == alloc.data_base + 300
        assert alloc.slot_for_address(alloc.data_base + 350) == 3

    def test_slot_address_bounds(self):
        alloc, _ = make_allocator(slots=8)
        with pytest.raises(ConfigError):
            alloc.slot_address(8)
        with pytest.raises(ConfigError):
            alloc.slot_for_address(alloc.data_base - 1)


class TestFree:
    def test_free_and_reuse(self):
        alloc, ctx = make_allocator()
        slots = [alloc.allocate(ctx) for _ in range(4)]
        alloc.free(ctx, slots[1])
        assert not alloc.is_allocated(ctx, slots[1])
        # Hint moved back to the freed slot, so it is reused next.
        assert alloc.allocate(ctx) == slots[1]

    def test_double_free_rejected(self):
        alloc, ctx = make_allocator()
        slot = alloc.allocate(ctx)
        alloc.free(ctx, slot)
        with pytest.raises(ConfigError):
            alloc.free(ctx, slot)

    def test_free_unallocated_rejected(self):
        alloc, ctx = make_allocator()
        with pytest.raises(ConfigError):
            alloc.free(ctx, 5)


class TestAllocateAt:
    def test_allocate_specific_slot(self):
        alloc, ctx = make_allocator()
        alloc.allocate_at(ctx, 7)
        assert alloc.is_allocated(ctx, 7)
        assert alloc.allocated_count(ctx) == 1

    def test_allocate_at_taken_slot_rejected(self):
        alloc, ctx = make_allocator()
        alloc.allocate_at(ctx, 7)
        with pytest.raises(ConfigError):
            alloc.allocate_at(ctx, 7)

    def test_allocator_skips_specifically_allocated(self):
        alloc, ctx = make_allocator()
        alloc.allocate_at(ctx, 0)
        assert alloc.allocate(ctx) == 1


class TestIteration:
    def test_iter_allocated(self):
        alloc, ctx = make_allocator()
        expected = {alloc.allocate(ctx) for _ in range(10)}
        alloc.free(ctx, 4)
        expected.discard(4)
        assert set(alloc.iter_allocated(ctx)) == expected

    def test_iter_empty(self):
        alloc, ctx = make_allocator()
        assert list(alloc.iter_allocated(ctx)) == []

    def test_fill_free_fill_cycle(self):
        alloc, ctx = make_allocator(slots=16)
        slots = [alloc.allocate(ctx) for _ in range(16)]
        for s in slots:
            alloc.free(ctx, s)
        assert alloc.allocated_count(ctx) == 0
        refilled = [alloc.allocate(ctx) for _ in range(16)]
        assert sorted(refilled) == slots


class CountingAccessor(RawAccessor):
    """Counts prescribed reads (each costs a hook pass in production)."""

    reads = 0

    def read(self, address: int, length: int) -> bytes:
        self.reads += 1
        return super().read(address, length)


class TestFreeSlotScan:
    def test_scan_past_a_lowered_hint_reads_one_byte_per_full_byte(self):
        """A delete lowers the hint; the allocate after the refill scans
        from there to the frontier -- a bitmap byte per 8 slots, not one
        prescribed read per slot."""
        alloc, raw = make_allocator(slots=4096, slot_size=4)
        ctx = CountingAccessor(raw.memory)
        for _ in range(4000):
            alloc.allocate(ctx)
        alloc.free(ctx, 5)
        assert alloc.allocate(ctx) == 5  # hint is now 6, frontier at 4000
        ctx.reads = 0
        assert alloc.allocate(ctx) == 4000
        # header + slots 6,7 + bytes 1..499 + slot 4000 + the bit flip's read
        assert ctx.reads == 1 + 2 + 499 + 1 + 1

    def test_scan_finds_the_one_free_slot_from_any_hint(self):
        """Stale hints (recovery) make the scan wrap; 20 slots leave a
        partial last bitmap byte, which is never 0xFF."""
        alloc, ctx = make_allocator(slots=20)
        for _ in range(20):
            alloc.allocate(ctx)
        for slot in range(20):
            alloc.free(ctx, slot)
            for hint in range(20):
                assert alloc._find_free(ctx, hint) == slot
            alloc.allocate_at(ctx, slot)
