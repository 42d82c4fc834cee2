"""Codeword table: geometry, incremental maintenance, audits."""

from collections import defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.regions import CodewordTable
from repro.errors import ConfigError
from repro.mem.memory import MemoryImage


def make_table(region_size=64, size=4096):
    memory = MemoryImage(page_size=4096)
    memory.add_segment("data", size)
    return memory, CodewordTable(memory, region_size)


class TestGeometry:
    def test_region_count_covers_memory(self):
        _, table = make_table(64, 4096)
        assert table.region_count == 64

    def test_region_count_rounds_up(self):
        memory = MemoryImage(page_size=4096)
        memory.add_segment("data", 4096)
        table = CodewordTable(memory, 4096 * 3)
        assert table.region_count == 1

    def test_regions_spanning(self):
        _, table = make_table(64)
        assert list(table.regions_spanning(60, 8)) == [0, 1]
        assert list(table.regions_spanning(0, 64)) == [0]
        assert list(table.regions_spanning(64, 1)) == [1]

    def test_zero_length_spans_one_region(self):
        _, table = make_table(64)
        assert list(table.regions_spanning(100, 0)) == [1]

    def test_region_bounds_clamped_to_memory(self):
        memory = MemoryImage(page_size=4096)
        memory.add_segment("data", 4096)
        table = CodewordTable(memory, 8192)
        start, length = table.region_bounds(0)
        assert (start, length) == (0, 4096)

    def test_bad_region_size_rejected(self):
        memory = MemoryImage(page_size=4096)
        memory.add_segment("data", 4096)
        with pytest.raises(ConfigError):
            CodewordTable(memory, 6)
        with pytest.raises(ConfigError):
            CodewordTable(memory, 30)

    def test_space_overhead(self):
        _, table = make_table(64)
        assert table.space_overhead == pytest.approx(0.0625)


class TestMaintenance:
    def test_fresh_zero_memory_matches_zero_codewords(self):
        _, table = make_table()
        assert table.matches(0)

    def test_apply_update_keeps_consistency(self):
        memory, table = make_table()
        old = memory.read(10, 8)
        memory.write(10, b"ABCDEFGH")
        table.fold_updates([(10, old, b"ABCDEFGH")])
        assert all(table.matches(r) for r in range(table.region_count))

    def test_update_spanning_regions(self):
        memory, table = make_table(64)
        old = memory.read(60, 12)
        new = b"x" * 12
        memory.write(60, new)
        table.fold_updates([(60, old, new)])
        assert table.matches(0)
        assert table.matches(1)

    def test_unaligned_update(self):
        memory, table = make_table()
        old = memory.read(3, 5)
        memory.write(3, b"abcde")
        table.fold_updates([(3, old, b"abcde")])
        assert table.matches(0)

    def test_mismatched_image_lengths_rejected(self):
        _, table = make_table()
        with pytest.raises(ConfigError):
            table.fold_updates([(0, b"ab", b"abc")])

    def test_wild_write_breaks_match(self):
        memory, table = make_table()
        memory.poke(20, b"\xff\xff")
        assert not table.matches(0)
        assert table.matches(1)

    def test_rebuild_region_restores_match(self):
        memory, table = make_table()
        memory.poke(20, b"\xff\xff")
        table.rebuild_region(0)
        assert table.matches(0)

    def test_words_folded_counts_both_images(self):
        _, table = make_table()
        words, chunks = table.fold_updates([(0, b"\x00" * 8, b"\x01" * 8)])
        assert words == 4  # 2 words old + 2 words new
        assert chunks == 1

    def test_pending_target_roundtrip(self):
        """Deltas folded into a pending mapping, applied later, leave the
        table where folding into the stored words would have."""
        memory, table = make_table(64)
        old = memory.read(62, 8)
        new = b"ZZZZZZZZ"
        pending = defaultdict(int)
        assert table.fold_updates([(62, old, new)], pending) == (6, 2)
        assert sorted(pending) == [0, 1]
        assert not table.codewords[0] and not table.codewords[1]
        memory.write(62, new)
        for region_id, delta in pending.items():
            table.codewords[region_id] ^= delta
        assert table.matches(0) and table.matches(1)

    @settings(max_examples=50)
    @given(
        st.integers(min_value=0, max_value=4000),
        st.binary(min_size=1, max_size=200),
        st.integers(min_value=3, max_value=9),
    )
    def test_incremental_equals_recompute(self, address, patch, region_pow):
        """Property: incremental maintenance == recompute from scratch."""
        region_size = 2**region_pow
        memory, table = make_table(region_size)
        if address + len(patch) > memory.size:
            address = memory.size - len(patch)
        # Start from interesting content, not zeros.
        memory.write(0, bytes((i * 37) % 256 for i in range(memory.size)))
        table.rebuild_all()
        old = memory.read(address, len(patch))
        memory.write(address, patch)
        table.fold_updates([(address, old, patch)])
        assert table.scan_mismatches() == []


class TestXorBlindSpot:
    """XOR codewords detect corruption only 'with high probability'
    (Section 3): a wild write whose old and new images fold to the same
    word escapes detection.  This documents the inherent blind spot."""

    def test_self_canceling_wild_write_evades_detection(self):
        memory, table = make_table(64)
        # Two identical changed words XOR-cancel: fold delta is zero.
        memory.poke(0, b"\xff\xff\xff\xff\xff\xff\xff\xff")
        assert table.matches(0)

    def test_swapping_two_words_evades_detection(self):
        memory, table = make_table(64)
        memory.write(0, b"AAAABBBB")
        table.rebuild_all()
        memory.poke(0, b"BBBBAAAA")  # same multiset of words
        assert table.matches(0)

    def test_single_word_change_always_detected(self):
        memory, table = make_table(64)
        memory.poke(0, b"\xff\xff\xff\xff")
        assert not table.matches(0)


class TestAuditScan:
    def test_scan_finds_only_corrupt_regions(self):
        memory, table = make_table(64)
        memory.poke(130, b"\x01")
        memory.poke(300, b"\x02")
        assert table.scan_mismatches() == [2, 4]

    def test_scan_subset(self):
        memory, table = make_table(64)
        memory.poke(130, b"\x01")
        assert table.scan_mismatches(range(0, 2)) == []
        assert table.scan_mismatches(range(2, 3)) == [2]
