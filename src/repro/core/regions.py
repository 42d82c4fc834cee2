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
        # Stored words live in an ``array('I')``, so the scalar paths
        # (precheck compare, delta apply) index plain Python ints; ``_words``
        # is a zero-copy numpy view of the same buffer for the vector kernels.
        self._codewords = array("I", bytes(4 * self.region_count))
        assert self._codewords.itemsize == 4
        self._words = np.frombuffer(self._codewords, dtype=np.uint32)

    # --------------------------------------------------------- geometry

    def region_of(self, address: int) -> int:
        return address // self.region_size

    def regions_spanning(self, address: int, length: int) -> range:
        """Region ids covered by ``[address, address + length)``."""
        if length <= 0:
            first = self.region_of(address)
            return range(first, first + 1)
        first = self.region_of(address)
        last = self.region_of(address + length - 1)
        return range(first, last + 1)

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
        return self._codewords[region_id]

    @property
    def stored_words(self) -> np.ndarray:
        """A ``uint32`` copy of every stored codeword, by region id.

        The one way outside this class to copy, compare or (by assigning
        an array of ``region_count`` words) seed the stored words.
        """
        return self._words.copy()

    @stored_words.setter
    def stored_words(self, words) -> None:
        self._words[:] = words

    def set_stored(self, region_id: int, codeword: int) -> None:
        self._codewords[region_id] = codeword & 0xFFFFFFFF

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

    def compute_deltas(self, address: int, old: bytes, new: bytes) -> list[tuple[int, int, int]]:
        """Per-region codeword deltas for an in-place update.

        ``old`` and ``new`` are the undo and redo images of the updated
        range; the update may span several regions.  Returns
        ``(region_id, delta, words_folded)`` triples, where ``delta`` is
        the value to XOR into the region's codeword and ``words_folded``
        counts the 32-bit words touched (old + new images) for cost
        accounting.
        """
        if len(old) != len(new):
            raise ConfigError(
                f"undo and redo images differ in length: {len(old)} vs {len(new)}"
            )
        deltas = []
        for region_id, offset, chunk_len in self._split(address, len(old)):
            old_chunk = old[offset : offset + chunk_len]
            new_chunk = new[offset : offset + chunk_len]
            chunk_address = address + offset
            delta = update_delta(chunk_address, old_chunk, new_chunk)
            lead = chunk_address % 4
            words = 2 * ((lead + chunk_len + 3) // 4)
            deltas.append((region_id, delta, words))
        return deltas

    def apply_delta(self, region_id: int, delta: int) -> None:
        self._codewords[region_id] ^= delta

    def apply_update(self, address: int, old: bytes, new: bytes) -> int:
        """Incrementally maintain codewords; returns words folded."""
        length = len(old)
        region_size = self.region_size
        if 0 < length == len(new) and address % region_size + length <= region_size:
            # Within one region: one delta, no split.
            self._codewords[address // region_size] ^= update_delta(address, old, new)
            return 2 * ((address % 4 + length + 3) // 4)
        words_folded = 0
        for region_id, delta, words in self.compute_deltas(address, old, new):
            self._codewords[region_id] ^= delta
            words_folded += words
        return words_folded

    #: Below this many image bytes (old + new, summed over the batch) the
    #: scalar per-update loop -- one integer fold per region chunk -- beats
    #: the numpy call overhead; the two tie between 400 and 600 bytes.
    _BATCH_NUMPY_THRESHOLD = 512

    def apply_update_batch(self, items: list[tuple[int, bytes, bytes]]) -> int:
        """Incrementally maintain codewords for a batch of updates.

        ``items`` holds ``(address, old_image, new_image)`` per update.
        Bit-identical to calling :meth:`apply_update` per item (XOR
        folding is associative and commutative, and the positioned
        padding is reproduced exactly), and returns the same total
        words-folded count, but all the per-chunk folds go through a
        single ``np.bitwise_xor.reduceat`` over one packed buffer instead
        of 2 scalar folds per region chunk -- unless the batch is too
        small for that to pay (``_BATCH_NUMPY_THRESHOLD``).
        """
        if len(items) == 1:
            return self.apply_update(*items[0])
        if 2 * sum(len(old) for _address, old, _new in items) < (
            self._BATCH_NUMPY_THRESHOLD
        ):
            return sum(self.apply_update(*item) for item in items)
        # Pack every chunk's positioned old and new images, word-aligned,
        # into one buffer: lead = chunk_address % 4 zero bytes in front
        # (positioned_fold), zero padding to the next word boundary behind
        # (fold_words' ragged-tail rule).
        buf = bytearray()
        starts: list[int] = []
        chunk_regions: list[int] = []
        words_folded = 0
        region_size = self.region_size
        for address, old, new in items:
            length = len(old)
            if length != len(new):
                raise ConfigError(
                    f"undo and redo images differ in length: {length} vs {len(new)}"
                )
            # Word-aligned update inside one region: append both images
            # directly, no split or padding arithmetic needed.
            if (
                address % 4 == 0
                and length % 4 == 0
                and address % region_size + length <= region_size
            ):
                word = len(buf) // 4
                starts.append(word)
                starts.append(word + length // 4)
                buf += old
                buf += new
                chunk_regions.append(address // region_size)
                words_folded += length // 2
                continue
            for region_id, offset, chunk_len in self._split(address, length):
                chunk_address = address + offset
                lead = chunk_address % 4
                for image in (old, new):
                    starts.append(len(buf) // 4)
                    if lead:
                        buf += b"\x00" * lead
                    buf += image[offset : offset + chunk_len]
                    pad = -len(buf) % 4
                    if pad:
                        buf += b"\x00" * pad
                chunk_regions.append(region_id)
                words_folded += 2 * ((lead + chunk_len + 3) // 4)
        folds = np.bitwise_xor.reduceat(
            np.frombuffer(buf, dtype="<u4"), np.asarray(starts)
        )
        deltas = (folds[0::2] ^ folds[1::2]).tolist()
        codewords = self._codewords
        for region_id, delta in zip(chunk_regions, deltas):
            codewords[region_id] ^= delta
        return words_folded

    def _split(self, address: int, length: int) -> Iterator[tuple[int, int, int]]:
        """Yield ``(region_id, offset_in_update, chunk_length)`` per region."""
        offset = 0
        while offset < length:
            position = address + offset
            region_id = self.region_of(position)
            region_end = (region_id + 1) * self.region_size
            chunk_len = min(length - offset, region_end - position)
            yield region_id, offset, chunk_len
            offset += chunk_len

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
