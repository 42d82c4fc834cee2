"""Protection regions and the codeword table.

The database image is divided into fixed-size *protection regions*; one
32-bit codeword is maintained per region (Section 3).  The table itself
lives outside the protected image, so a wild write into the database
cannot silently fix up its own codeword.

Space overhead is ``4 / region_size``: 6.25% at 64-byte regions, 0.78% at
512 bytes, 0.05% at 8 KB -- the time/space tradeoff of Section 5.3.
"""

from __future__ import annotations

from array import array
from typing import Iterator

import numpy as np

from repro.errors import ConfigError
from repro.core.codeword import fold_words, update_delta
from repro.mem.memory import MemoryImage


class CodewordTable:
    """One XOR codeword per fixed-size region of a memory image."""

    def __init__(self, memory: MemoryImage, region_size: int) -> None:
        if region_size < 8 or region_size % 4 != 0:
            raise ConfigError(
                f"region size must be a multiple of 4 and >= 8: {region_size}"
            )
        self.memory = memory
        self.region_size = region_size
        self.region_count = -(-memory.size // region_size)
        #: Bytes in the last region (the image may end mid-region).
        self.last_region_length = memory.size - (self.region_count - 1) * region_size
        #: The stored words, by region id: an ``array('I')``, so the scalar
        #: paths (the read precheck's compare, delta apply) index plain
        #: Python ints.  ``_words`` is a zero-copy numpy view of the same
        #: buffer for the vector kernels.
        self.codewords = array("I", bytes(4 * self.region_count))
        assert self.codewords.itemsize == 4
        self._words = np.frombuffer(self.codewords, dtype=np.uint32)

    # --------------------------------------------------------- geometry

    def region_of(self, address: int) -> int:
        return address // self.region_size

    def regions_spanning(self, address: int, length: int) -> range:
        """Region ids covered by ``[address, address + length)``."""
        region_size = self.region_size
        first = address // region_size
        if length <= 0:
            return range(first, first + 1)
        return range(first, (address + length - 1) // region_size + 1)

    def region_bounds(self, region_id: int) -> tuple[int, int]:
        """``(start_address, byte_length)`` of a region, clamped to memory."""
        start = region_id * self.region_size
        length = min(self.region_size, self.memory.size - start)
        return start, length

    @property
    def space_overhead(self) -> float:
        """Codeword bytes per data byte."""
        return 4.0 / self.region_size

    # ------------------------------------------------------ maintenance

    def stored(self, region_id: int) -> int:
        return self.codewords[region_id]

    @property
    def stored_words(self) -> np.ndarray:
        """A ``uint32`` copy of every stored codeword, by region id.

        The one way outside this class to copy or (by assigning an array
        of ``region_count`` words) seed the stored words; the read
        precheck compares against the live :attr:`codewords` array.
        """
        return self._words.copy()

    @stored_words.setter
    def stored_words(self, words) -> None:
        self._words[:] = words

    def set_stored(self, region_id: int, codeword: int) -> None:
        self.codewords[region_id] = codeword & 0xFFFFFFFF

    def compute(self, region_id: int) -> int:
        """Fold the region's current memory content (zero-copy when the
        region lies within one segment; copying read otherwise)."""
        start, length = self.region_bounds(region_id)
        view = self.memory.view(start, length)
        if view is not None:
            return fold_words(view)
        return fold_words(self.memory.read(start, length))

    def compute_scalar(self, region_id: int) -> int:
        """Seed-era scalar fold: copying read + per-region fold.

        Kept as the reference implementation the vectorized kernel is
        benchmarked and property-tested against.
        """
        start, length = self.region_bounds(region_id)
        return fold_words(self.memory.read(start, length))

    def matches(self, region_id: int) -> bool:
        return self.compute(region_id) == self.stored(region_id)

    def rebuild_region(self, region_id: int) -> None:
        self.set_stored(region_id, self.compute(region_id))

    def rebuild_all(self) -> None:
        """Recompute every codeword from memory (vectorized)."""
        self._words[:] = self.fold_all()

    def fold_updates(self, items, target=None) -> tuple[int, int]:
        """Fold in-place updates into per-region codewords: ``cw ^=
        fold(old) ^ fold(new)`` for every region chunk an update touches.

        ``items`` holds ``(address, old_image, new_image)`` per update;
        the images are the undo and redo images of the updated range,
        which may span several regions.  Each chunk's delta is XORed into
        ``target[region_id]`` -- the stored :attr:`codewords` by default,
        or a deferred maintainer's pending-delta mapping.  Returns
        ``(words_folded, chunks)``: the 32-bit words touched (old + new
        images) for cost accounting, and the region chunks folded.
        """
        if target is None:
            target = self.codewords
        region_size = self.region_size
        words = chunks = 0
        for address, old, new in items:
            length = len(old)
            if length != len(new):
                raise ConfigError(
                    f"undo and redo images differ in length: {length} vs {len(new)}"
                )
            if address % region_size + length <= region_size:
                # Within one region: one delta, no slicing.
                if length:
                    target[address // region_size] ^= update_delta(address, old, new)
                    words += 2 * ((address % 4 + length + 3) // 4)
                    chunks += 1
                continue
            offset = 0
            while offset < length:
                position = address + offset
                region_id = position // region_size
                chunk_len = min(length - offset, (region_id + 1) * region_size - position)
                stop = offset + chunk_len
                target[region_id] ^= update_delta(
                    position, old[offset:stop], new[offset:stop]
                )
                words += 2 * ((position % 4 + chunk_len + 3) // 4)
                chunks += 1
                offset = stop
        return words, chunks

    # ------------------------------------------------------------ audit

    def fold_range(self, start: int, stop: int) -> np.ndarray:
        """Vectorized fold of regions ``[start, stop)``; returns ``uint32``.

        For every maximal run of whole regions lying inside a single
        segment, the segment's ``bytearray`` is viewed as a ``<u4`` array
        (zero-copy via :func:`np.frombuffer`), reshaped to
        ``(n_regions, words_per_region)`` and reduced with
        ``np.bitwise_xor.reduce`` in one call.  Regions that straddle a
        segment boundary -- and the ragged region at the very end of the
        image -- fall back to the scalar :meth:`compute`, so the result is
        byte-identical to folding each region individually.
        """
        start = max(start, 0)
        stop = min(stop, self.region_count)
        n = stop - start
        if n <= 0:
            return np.zeros(0, dtype=np.uint32)
        out = np.zeros(n, dtype=np.uint32)
        covered = np.zeros(n, dtype=bool)
        region_size = self.region_size
        words_per_region = region_size // 4
        for segment in self.memory.segments:
            # Whole regions fully contained in this segment.
            lo = max(start, -(-segment.base // region_size))
            hi = min(stop, segment.end // region_size)
            if hi <= lo:
                continue
            offset = lo * region_size - segment.base
            words = np.frombuffer(
                segment.data,
                dtype="<u4",
                count=(hi - lo) * words_per_region,
                offset=offset,
            )
            out[lo - start : hi - start] = np.bitwise_xor.reduce(
                words.reshape(hi - lo, words_per_region), axis=1
            )
            covered[lo - start : hi - start] = True
        if not covered.all():
            for index in np.nonzero(~covered)[0]:
                out[index] = self.compute(start + int(index))
        return out

    def fold_all(self) -> np.ndarray:
        """Vectorized fold of every region (see :meth:`fold_range`)."""
        return self.fold_range(0, self.region_count)

    def scan_mismatches(self, region_ids: Iterator[int] | range | None = None) -> list[int]:
        """Return regions whose content no longer matches their codeword.

        A full scan (or any contiguous ascending :class:`range` of valid
        region ids) takes the vectorized path: one :meth:`fold_range` plus
        a single whole-array ``!=`` against the stored codewords.  Other
        iterables keep the scalar per-region check.
        """
        ids = region_ids if region_ids is not None else range(self.region_count)
        if (
            isinstance(ids, range)
            and ids.step == 1
            and ids.start >= 0
            and ids.stop <= self.region_count
        ):
            if not len(ids):
                return []
            computed = self.fold_range(ids.start, ids.stop)
            mismatched = np.nonzero(computed != self._words[ids.start : ids.stop])[0]
            return [ids.start + int(index) for index in mismatched]
        return [region_id for region_id in ids if not self.matches(region_id)]
