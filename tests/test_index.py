"""In-image hash index: chains, free list, capacity, persistence of state."""

import signal
import struct
from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CorruptionDetected, OutOfSpaceError
from repro.mem.memory import MemoryImage
from repro.storage.index import HashIndex


class RawAccessor:
    def __init__(self, memory: MemoryImage) -> None:
        self.memory = memory

    def read(self, address: int, length: int) -> bytes:
        return self.memory.read(address, length)

    def update(self, address: int, new_bytes: bytes) -> None:
        self.memory.write(address, new_bytes)


def make_index(buckets=8, capacity=64):
    memory = MemoryImage(page_size=4096)
    seg = memory.add_segment("idx", HashIndex.size_for(buckets, capacity))
    index = HashIndex(seg.base, buckets, capacity)
    ctx = RawAccessor(memory)
    index.format(ctx)
    return index, ctx


class TestBasics:
    def test_lookup_missing_returns_none(self):
        index, ctx = make_index()
        assert index.lookup(ctx, 42) is None

    def test_insert_lookup(self):
        index, ctx = make_index()
        index.insert(ctx, 42, 7)
        assert index.lookup(ctx, 42) == 7

    def test_many_keys_force_collisions(self):
        index, ctx = make_index(buckets=4, capacity=64)
        for key in range(50):
            index.insert(ctx, key, key * 2)
        for key in range(50):
            assert index.lookup(ctx, key) == key * 2

    def test_negative_keys(self):
        index, ctx = make_index()
        index.insert(ctx, -12345, 3)
        assert index.lookup(ctx, -12345) == 3

    def test_delete(self):
        index, ctx = make_index()
        index.insert(ctx, 1, 10)
        index.insert(ctx, 2, 20)
        assert index.delete(ctx, 1)
        assert index.lookup(ctx, 1) is None
        assert index.lookup(ctx, 2) == 20

    def test_delete_missing_returns_false(self):
        index, ctx = make_index()
        assert not index.delete(ctx, 99)

    def test_delete_middle_of_chain(self):
        index, ctx = make_index(buckets=1)  # everything chains in bucket 0
        for key in (1, 2, 3):
            index.insert(ctx, key, key)
        assert index.delete(ctx, 2)
        assert index.lookup(ctx, 1) == 1
        assert index.lookup(ctx, 2) is None
        assert index.lookup(ctx, 3) == 3


class TestFreeList:
    def test_entries_reused_after_delete(self):
        index, ctx = make_index(capacity=2)
        index.insert(ctx, 1, 1)
        index.insert(ctx, 2, 2)
        index.delete(ctx, 1)
        index.insert(ctx, 3, 3)  # must reuse entry 0
        assert index.lookup(ctx, 3) == 3

    def test_capacity_exhaustion(self):
        index, ctx = make_index(capacity=4)
        for key in range(4):
            index.insert(ctx, key, key)
        with pytest.raises(OutOfSpaceError):
            index.insert(ctx, 5, 5)

    def test_delete_then_fill_to_capacity(self):
        index, ctx = make_index(capacity=4)
        for key in range(4):
            index.insert(ctx, key, key)
        for key in range(4):
            index.delete(ctx, key)
        for key in range(10, 14):
            index.insert(ctx, key, key)
        for key in range(10, 14):
            assert index.lookup(ctx, key) == key


class TestProperty:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["insert", "delete"]),
                st.integers(min_value=-50, max_value=50),
            ),
            max_size=80,
        )
    )
    def test_matches_dict_model(self, operations):
        """The index behaves like a Python dict under insert/delete."""
        index, ctx = make_index(buckets=4, capacity=200)
        model: dict[int, int] = {}
        for op, key in operations:
            if op == "insert":
                if key in model:
                    continue  # the index is a primary-key map: no dup keys
                model[key] = abs(key)
                index.insert(ctx, key, abs(key))
            else:
                existed = index.delete(ctx, key)
                assert existed == (key in model)
                model.pop(key, None)
        for key in range(-50, 51):
            assert index.lookup(ctx, key) == model.get(key)


@contextmanager
def hang_guard(seconds: int = 5):
    """Fail the test instead of hanging it when a walk never returns."""

    def expired(_signum, _frame):
        raise AssertionError(f"index walk still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _same_bucket(index: HashIndex, count: int) -> list[int]:
    """``count`` keys that hash to one bucket."""
    by_bucket: dict[int, list[int]] = {}
    for key in range(10_000):
        keys = by_bucket.setdefault(index._bucket_address(key), [])
        keys.append(key)
        if len(keys) == count:
            return keys
    raise AssertionError("no bucket collected enough keys")


class TestCorruptChains:
    """One poked pointer must not hang a walk (the image is not trusted)."""

    def _cycle(self):
        index, ctx = make_index(buckets=8, capacity=64)
        first, second, absent = _same_bucket(index, 3)
        index.insert(ctx, first, 1)  # entry 0, chain tail
        index.insert(ctx, second, 2)  # entry 1, chain head -> entry 0
        # One 4-byte wild write: entry 0's next points back at entry 1.
        ctx.memory.poke(index._entry_address(0) + 12, struct.pack("<I", 2))
        return index, ctx, absent

    def test_lookup_through_a_cycle_raises(self):
        index, ctx, absent = self._cycle()
        with hang_guard(), pytest.raises(CorruptionDetected, match="hash index walk"):
            index.lookup(ctx, absent)

    def test_delete_through_a_cycle_raises(self):
        index, ctx, absent = self._cycle()
        with hang_guard(), pytest.raises(CorruptionDetected, match="cycle"):
            index.delete(ctx, absent)

    def test_entry_past_the_pool_is_rejected(self):
        index, ctx = make_index(buckets=8, capacity=64)
        (key,) = _same_bucket(index, 1)
        ctx.memory.poke(index._bucket_address(key), struct.pack("<I", 64 + 1))
        with pytest.raises(CorruptionDetected, match="past the 64-entry pool"):
            index.lookup(ctx, key)

    def test_full_chain_is_not_a_cycle(self):
        index, ctx = make_index(buckets=1, capacity=16)
        for key in range(16):
            index.insert(ctx, key, key)
        assert index.lookup(ctx, 99) is None  # walks all 16 entries
        assert index.lookup(ctx, 0) == 0

    def test_table_lookup_under_data_cw_raises(self, db_factory):
        """No read is prechecked under data_cw: only the walk's own bound
        stops it, before any audit could convict the region."""
        db = db_factory(scheme="data_cw")
        table = db.table("acct")
        index = table.index
        first, second, absent = _same_bucket(index, 3)
        txn = db.begin()
        for key in (first, second):
            table.insert(txn, {"id": key, "balance": 0, "name": "x"})
        db.commit(txn)
        # Entry 0 is the older key's; point its next at entry 1.
        db.memory.poke(index._entry_address(0) + 12, struct.pack("<I", 2))
        txn = db.begin()
        with hang_guard(), pytest.raises(CorruptionDetected, match="hash index walk"):
            table.lookup(txn, absent)
        db.abort(txn)
