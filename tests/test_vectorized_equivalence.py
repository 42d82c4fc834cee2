"""Vectorized audit kernel == scalar per-region fold, property-tested.

The batch kernel (`fold_all` / `fold_range` / vectorized
`scan_mismatches`) must be byte-identical to the seed's scalar
read-and-fold loop across every geometry: ragged image tails, regions
larger than segments, regions straddling segment boundaries, and
arbitrary wild-write corruption.  The cost model must also be untouched:
a batch audit charges exactly the events the per-region loop charges.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.codeword import fold_words
from repro.core.regions import CodewordTable
from repro.core.schemes import make_scheme
from repro.mem.memory import MemoryImage
from repro.sim.clock import Meter, VirtualClock
from repro.sim.costs import DEFAULT_COSTS

# Tiny pages so small segments produce regions that straddle boundaries.
PAGE = 8

segment_sizes = st.lists(st.integers(min_value=1, max_value=96), min_size=1, max_size=5)
region_sizes = st.integers(min_value=2, max_value=24).map(lambda k: 4 * k)
pokes = st.lists(
    st.tuples(st.integers(min_value=0), st.binary(min_size=1, max_size=12)),
    max_size=6,
)


def build_image(sizes: list[int], fill_seed: int) -> MemoryImage:
    memory = MemoryImage(page_size=PAGE)
    for index, size in enumerate(sizes):
        memory.add_segment(f"s{index}", size, kind="data" if index % 2 else "control")
    memory.restore(0, bytes((i * fill_seed + 13) % 256 for i in range(memory.size)))
    return memory


def scalar_reference(table: CodewordTable) -> list[int]:
    """Ground truth built only from read() + fold_words, no kernel code."""
    mismatches = []
    for region_id in range(table.region_count):
        start, length = table.region_bounds(region_id)
        if fold_words(table.memory.read(start, length)) != table.stored(region_id):
            mismatches.append(region_id)
    return mismatches


class TestKernelEquivalence:
    @settings(max_examples=120, deadline=None)
    @given(
        sizes=segment_sizes,
        region_size=region_sizes,
        fill_seed=st.integers(min_value=1, max_value=251),
        corruption=pokes,
    )
    def test_scan_and_fold_match_scalar(self, sizes, region_size, fill_seed, corruption):
        memory = build_image(sizes, fill_seed)
        table = CodewordTable(memory, region_size)
        table.rebuild_all()
        for address, payload in corruption:
            address %= memory.size
            payload = payload[: memory.size - address]
            if payload:
                memory.poke(address, payload)

        expected = scalar_reference(table)

        # Full vectorized scan.
        assert table.scan_mismatches() == expected
        # fold_all equals per-region scalar folds.
        folds = table.fold_all()
        for region_id in range(table.region_count):
            assert int(folds[region_id]) == table.compute_scalar(region_id)
        # Every contiguous subrange agrees too (the incremental auditor's
        # access pattern).
        count = table.region_count
        for start, stop in ((0, count), (0, count // 2), (count // 2, count), (1, count)):
            if stop < start:
                continue
            assert table.scan_mismatches(range(start, stop)) == [
                r for r in expected if start <= r < stop
            ]
        # Non-range iterables keep working through the scalar path.
        assert table.scan_mismatches(iter(expected)) == expected

    @settings(max_examples=60, deadline=None)
    @given(
        sizes=segment_sizes,
        region_size=region_sizes,
        fill_seed=st.integers(min_value=1, max_value=251),
    )
    def test_rebuild_all_is_clean(self, sizes, region_size, fill_seed):
        memory = build_image(sizes, fill_seed)
        table = CodewordTable(memory, region_size)
        table.rebuild_all()
        assert table.scan_mismatches() == []
        assert scalar_reference(table) == []


class TestCostModelInvariance:
    """Batch audits must charge the exact events the scalar loop charges."""

    @pytest.mark.parametrize("region_size", [64, 512, 4096])
    def test_audit_regions_charges_match_scalar_loop(self, region_size):
        def run(force_scalar: bool):
            memory = MemoryImage(page_size=PAGE)
            memory.add_segment("a", 3000)
            memory.add_segment("b", 1100)
            scheme = make_scheme("data_cw", region_size=region_size)
            meter = Meter(VirtualClock(), DEFAULT_COSTS)
            scheme.attach(memory, meter)
            scheme.startup()
            memory.poke(70, b"\x55\x66\x77")
            if force_scalar:
                # Holding any protection latch disables the batch path.
                scheme.protection_latches.latch(10**9).acquire("X")
            corrupt = scheme.audit_regions()
            return corrupt, meter.snapshot(), meter.clock.now_ns

        batch_corrupt, batch_events, batch_ns = run(force_scalar=False)
        scalar_corrupt, scalar_events, scalar_ns = run(force_scalar=True)
        assert batch_corrupt == scalar_corrupt != []
        assert batch_events == scalar_events
        assert batch_ns == scalar_ns

    def test_ragged_tail_word_accounting(self):
        """The bulk cw_check_word charge must clamp the final region."""
        memory = MemoryImage(page_size=8)
        memory.add_segment("a", 72)  # 72 bytes -> ragged 8-byte tail at 64B
        scheme = make_scheme("data_cw", region_size=64)
        meter = Meter(VirtualClock(), DEFAULT_COSTS)
        scheme.attach(memory, meter)
        scheme.startup()
        scheme.audit_regions()
        # Region 0 folds 16 words, region 1 only the 2 words that exist.
        assert meter.counts["cw_check_word"] == 16 + 2
        assert meter.counts["cw_check_fixed"] == 2
        assert meter.counts["latch_pair"] == 2


def test_view_backed_compute_equals_copying_fold():
    """compute() (view fast path) == compute_scalar() (copying read)."""
    memory = MemoryImage(page_size=8)
    memory.add_segment("a", 40)
    memory.add_segment("b", 24)
    memory.restore(0, bytes(range(64)))
    table = CodewordTable(memory, 16)
    for region_id in range(table.region_count):
        assert table.compute(region_id) == table.compute_scalar(region_id)
    # A region spanning the segment boundary exercises the read() fallback
    # inside compute(): with 16-byte regions the boundary at 40 sits inside
    # region 2.
    assert memory.view(*table.region_bounds(2)) is None


def test_codewords_dtype_stays_uint32():
    memory = MemoryImage(page_size=8)
    memory.add_segment("a", 64)
    table = CodewordTable(memory, 16)
    table.rebuild_all()
    assert table.fold_all().dtype == np.uint32
    assert table.stored_words.dtype == np.uint32
