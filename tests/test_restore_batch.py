"""``MemoryImage.restore_batch``: restart redo's one bulk recovery write.

A batch of ``(address, start, end)`` stores must leave exactly what the
same stores made one at a time leave -- the bytes of every segment and
both checkpoint images' pending page sets -- whether they overlap, repeat
an address, straddle a page or a segment boundary, or are empty, on heap
and on mmap backing.  Two references: a loop of ``restore`` (now a batch
of one) and :func:`~tests.conftest.per_store_restore`, the store and
dirty marking written without the batch.  A store that is unmapped or
negative raises ``MemoryError_`` as ``restore`` does, with the stores
before it applied and marked.
"""

from __future__ import annotations

import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MemoryError_
from repro.mem.memory import MemoryImage
from tests.conftest import per_store_restore

#: Segment sizes before rounding up to whole pages: several segments of a
#: page or less, so runs of stores change segment often.
SEGMENT_SIZES = (40, 100, 8, 64, 24)
SOURCE = bytes((7 * i + 3) % 256 for i in range(512))


def _image(page_size: int, backing: str, backing_dir: str) -> MemoryImage:
    memory = MemoryImage(page_size=page_size, backing=backing, backing_dir=backing_dir)
    for index, size in enumerate(SEGMENT_SIZES):
        memory.add_segment(f"s{index}", size, kind="data")
    return memory


def _state(memory: MemoryImage) -> tuple:
    dirty = memory.dirty_pages
    return memory.snapshot_segments(), dirty.pending_for("A"), dirty.pending_for("B")


def _boundaries(page_size: int) -> list[int]:
    """Segment bases of the layout :func:`_image` builds."""
    bases, base = [], 0
    for size in SEGMENT_SIZES:
        bases.append(base)
        base += -(-size // page_size) * page_size
    bases.append(base)
    return bases


@st.composite
def _stores(draw, page_size: int) -> list[tuple[int, int, int]]:
    """Stores inside the address space, aimed at page and segment edges."""
    bases = _boundaries(page_size)
    space = bases[-1]
    edges = sorted(set(bases[:-1]) | set(range(0, space, page_size)))
    stores = []
    for _ in range(draw(st.integers(1, 30))):
        if stores and draw(st.integers(0, 4)) == 0:
            address = draw(st.sampled_from(stores))[0]  # a repeated address
        else:
            edge = draw(st.sampled_from(edges))
            address = min(max(edge + draw(st.integers(-12, 12)), 0), space - 1)
        length = draw(st.integers(0, min(3 * page_size, space - address)))
        start = draw(st.integers(0, len(SOURCE) - length))
        stores.append((address, start, start + length))
    return stores


def _run(page_size: int, backing: str, stores, fault=None) -> None:
    """Apply ``stores`` three ways and require the same end state;
    ``fault`` is a store to append that must raise."""
    with tempfile.TemporaryDirectory() as backing_dir:
        images = [
            _image(page_size, backing, f"{backing_dir}/{name}")
            for name in ("batch", "loop", "reference")
        ]
        try:
            batch, loop, reference = images
            queue = stores + ([fault] if fault else [])
            errors = []
            for memory, store_one in (
                (loop, MemoryImage.restore),
                (reference, per_store_restore),
            ):
                try:
                    for address, start, end in queue:
                        store_one(memory, address, SOURCE[start:end])
                except MemoryError_ as error:
                    errors.append(str(error))
            if fault is None:
                pages = batch.restore_batch(SOURCE, queue)
                assert pages == batch.dirty_pages.pending_for("A")
            else:
                with pytest.raises(MemoryError_) as raised:
                    batch.restore_batch(SOURCE, queue)
                assert errors == [str(raised.value)] * 2
            assert _state(batch) == _state(loop) == _state(reference)
        finally:
            for memory in images:
                memory.close()


@pytest.mark.parametrize("backing", ["heap", "mmap"])
@given(data=st.data(), page_size=st.sampled_from((8, 16, 24, 64)))
@settings(max_examples=60, deadline=None)
def test_batch_equals_stores_one_at_a_time(backing, data, page_size):
    _run(page_size, backing, data.draw(_stores(page_size), label="stores"))


@pytest.mark.parametrize("backing", ["heap", "mmap"])
@given(
    data=st.data(),
    page_size=st.sampled_from((8, 24)),
    fault=st.sampled_from(("negative", "past the end", "across the end")),
)
@settings(max_examples=30, deadline=None)
def test_unmapped_store_raises_like_restore(backing, data, page_size, fault):
    stores = data.draw(_stores(page_size), label="stores")
    space = _boundaries(page_size)[-1]
    address = {"negative": -4, "past the end": space, "across the end": space - 3}
    _run(page_size, backing, stores, fault=(address[fault], 0, 8))


def test_negative_length_raises():
    memory = _image(8, "heap", "")
    with pytest.raises(MemoryError_, match="negative access length"):
        memory.restore_batch(SOURCE, [(0, 8, 4)])
    assert not memory.dirty_pages.pending_for("A")


def test_pages_marked_once_per_batch():
    """Overlapping stores on one page mark it once; a straddling store
    marks every page it covers."""
    memory = _image(16, "heap", "")
    pages = memory.restore_batch(SOURCE, [(0, 0, 8), (4, 0, 8), (8, 0, 8), (12, 0, 40)])
    assert pages == {0, 1, 2, 3} == memory.dirty_pages.pending_for("B")
    assert memory.read(12, 40) == SOURCE[:40]
