"""The flat in-memory database image.

The image is a set of named :class:`Segment` objects laid out in one flat
address space.  Following Dali's layout (Section 2), *control* information
(allocation bitmaps, table headers) lives in segments separate from tuple
data -- this is what makes a TPC-B operation touch many more pages than
tuples and is load-bearing for the hardware-protection results.

Three write paths exist, mirroring the paper's threat model:

* :meth:`MemoryImage.write` -- the prescribed path used by the storage
  manager.  Subject to the simulated MMU (a protected page traps) and
  noted in the dirty page table.
* :meth:`MemoryImage.poke` -- an *addressing error*: a wild write that
  bypasses logging and dirty tracking entirely.  It still traps on a
  hardware-protected page, because the MMU does not care about intent.
* checkpoint restore -- bulk replacement of segment contents during
  recovery, below the MMU.

Segment storage is pluggable: the default keeps each segment in a
``bytearray`` (heap backing), while ``backing="mmap"`` maps each segment
onto a sparse file so images larger than RAM stay usable.  An ``mmap``
object satisfies the same buffer protocol a ``bytearray`` does -- slice
assignment, ``memoryview``, ``np.frombuffer`` -- so every consumer
(audit kernel, fault injector, checkpointer) works unchanged on either
backing.  The backing file models *swap*, not durable storage: it is
recreated zeroed whenever the image is rebuilt, and recovery still loads
state from the checkpoint, never from the backing file.
"""

from __future__ import annotations

import mmap
import os
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, BinaryIO, Iterator

from repro.errors import ConfigError, MemoryError_
from repro.mem.pages import DirtyPageTable, PAGE_SIZE_DEFAULT

if TYPE_CHECKING:  # pragma: no cover
    from repro.mem.mprotect import SimulatedMMU

MEMORY_BACKINGS = ("heap", "mmap")


@dataclass
class Segment:
    """A contiguous named slice of the database address space."""

    name: str
    base: int
    size: int
    kind: str  # "data" or "control"
    data: "bytearray | mmap.mmap" = field(repr=False, default_factory=bytearray)

    def __post_init__(self) -> None:
        if not self.data:
            self.data = bytearray(self.size)

    @property
    def end(self) -> int:
        return self.base + self.size

    def contains(self, address: int, length: int = 1) -> bool:
        return self.base <= address and address + max(length, 1) <= self.end


class MemoryImage:
    """Flat address space composed of page-aligned segments."""

    def __init__(
        self,
        page_size: int = PAGE_SIZE_DEFAULT,
        backing: str = "heap",
        backing_dir: str | None = None,
    ) -> None:
        if page_size <= 0 or page_size % 8 != 0:
            raise ConfigError(f"page size must be a positive multiple of 8: {page_size}")
        if backing not in MEMORY_BACKINGS:
            raise ConfigError(
                f"memory backing must be one of {MEMORY_BACKINGS}: {backing!r}"
            )
        if backing == "mmap" and not backing_dir:
            raise ConfigError("mmap backing needs a backing_dir for segment files")
        self.page_size = page_size
        self.backing = backing
        self.backing_dir = backing_dir
        self.dirty_pages = DirtyPageTable()
        self.mmu: "SimulatedMMU | None" = None
        self._segments: list[Segment] = []
        self._by_name: dict[str, Segment] = {}
        # Segment bases, sorted ascending (segments are allocated
        # contiguously), so address -> segment is a bisect, not a scan.
        self._bases: list[int] = []
        self._next_base = 0
        # Open backing files, by segment name (mmap backing only).  Kept
        # open so the checkpointer can copy_file_range straight from the
        # backing file into a checkpoint image without staging the bytes
        # through Python.
        self._backing_files: dict[str, BinaryIO] = {}

    # ------------------------------------------------------------ layout

    def add_segment(self, name: str, size: int, kind: str = "data") -> Segment:
        """Create a new page-aligned segment at the end of the space."""
        if name in self._by_name:
            raise ConfigError(f"segment {name!r} already exists")
        if kind not in ("data", "control"):
            raise ConfigError(f"segment kind must be 'data' or 'control': {kind!r}")
        if size <= 0:
            raise ConfigError(f"segment size must be positive: {size}")
        # Round up to whole pages so a segment never shares a page with
        # another segment (page-granular protection stays per-segment).
        size = -(-size // self.page_size) * self.page_size
        data: bytearray | mmap.mmap = bytearray()
        if self.backing == "mmap":
            data = self._map_segment_file(name, size)
        segment = Segment(name=name, base=self._next_base, size=size, kind=kind, data=data)
        self._segments.append(segment)
        self._by_name[name] = segment
        self._bases.append(segment.base)
        self._next_base += size
        return segment

    def _map_segment_file(self, name: str, size: int) -> mmap.mmap:
        """Create a zeroed sparse backing file for a segment and map it.

        An existing file (a previous incarnation of this database) is
        unlinked rather than truncated in place: truncation would yank the
        pages out from under any still-live mapping of the old image and
        turn later accesses into SIGBUS.  Unlinking leaves the old inode
        alive for old mappings while this image gets a fresh, fully sparse
        file -- exactly the semantics of volatile memory that did not
        survive the crash.
        """
        assert self.backing_dir is not None
        os.makedirs(self.backing_dir, exist_ok=True)
        path = os.path.join(self.backing_dir, f"{name}.seg")
        if os.path.exists(path):
            os.unlink(path)
        handle = open(path, "w+b")
        handle.truncate(size)
        self._backing_files[name] = handle
        return mmap.mmap(handle.fileno(), size)

    def backing_range(self, address: int, length: int) -> tuple[BinaryIO, int] | None:
        """``(backing_file, file_offset)`` for an in-segment range.

        Returns ``None`` on heap backing or when the range straddles a
        segment boundary; the caller (checkpoint page propagation) then
        falls back to copying the bytes through Python.
        """
        if self.backing != "mmap":
            return None
        segment = self._segment_at(address)
        if address + length > segment.end:
            return None
        return self._backing_files[segment.name], address - segment.base

    def flush_backing(self) -> None:
        """msync every mapped segment to its backing file (test helper;
        on Linux the unified page cache makes file reads coherent with
        mmap stores even without this)."""
        for segment in self._segments:
            if isinstance(segment.data, mmap.mmap):
                segment.data.flush()

    def close(self) -> None:
        """Unmap every mmap-backed segment and close its backing file.

        Idempotent; a heap-backed image holds nothing to release.  The
        image is unusable on mmap backing afterwards, which is what both a
        clean shutdown and a simulated crash leave behind.
        """
        for segment in self._segments:
            if isinstance(segment.data, mmap.mmap):
                segment.data.close()
        for handle in self._backing_files.values():
            handle.close()
        self._backing_files.clear()

    def segment(self, name: str) -> Segment:
        try:
            return self._by_name[name]
        except KeyError:
            raise MemoryError_(f"no segment named {name!r}") from None

    @property
    def segments(self) -> tuple[Segment, ...]:
        return tuple(self._segments)

    @property
    def size(self) -> int:
        return self._next_base

    @property
    def page_count(self) -> int:
        return self._next_base // self.page_size

    def _segment_at(self, address: int) -> Segment:
        """Segment containing ``address`` (bisect; segments are sorted)."""
        if address < 0 or address >= self._next_base:
            raise MemoryError_(f"address {address:#x} is not mapped")
        return self._segments[bisect_right(self._bases, address) - 1]

    def segment_for(self, address: int, length: int = 1) -> Segment:
        """Locate the segment containing ``[address, address + length)``."""
        segment = self._segment_at(address)
        if address + max(length, 1) > segment.end:
            raise MemoryError_(
                f"access of {length} bytes at {address:#x} crosses the "
                f"end of segment {segment.name!r}"
            )
        return segment

    def _spans(self, address: int, length: int):
        """Yield ``(segment, seg_offset, chunk_len)`` covering a flat range.

        Segments are laid out contiguously, so a range may legitimately
        cross segment boundaries (e.g. a large protection region folding
        several small segments at once).
        """
        if length < 0:
            raise MemoryError_(f"negative access length: {length}")
        if address < 0 or address + length > self._next_base:
            raise MemoryError_(
                f"access of {length} bytes at {address:#x} is outside the "
                f"{self._next_base}-byte address space"
            )
        remaining = length
        position = address
        while remaining > 0:
            segment = self._segment_at(position)
            offset = position - segment.base
            chunk = min(remaining, segment.size - offset)
            yield segment, offset, chunk
            position += chunk
            remaining -= chunk

    # ------------------------------------------------------------ access

    def read(self, address: int, length: int) -> bytes:
        """Raw read; protection-scheme hooks live above this layer."""
        if length == 0:
            # Validate the address even for empty reads.
            self._segment_at(address)
            return b""
        if length > 0 and address >= 0 and address + length <= self._next_base:
            # Fast path: the whole range lies within one segment (the
            # overwhelmingly common case -- reads rarely straddle).
            segment = self._segments[bisect_right(self._bases, address) - 1]
            offset = address - segment.base
            if offset + length <= segment.size:
                return bytes(segment.data[offset : offset + length])
        chunks = [
            bytes(seg.data[off : off + n]) for seg, off, n in self._spans(address, length)
        ]
        return chunks[0] if len(chunks) == 1 else b"".join(chunks)

    def view(self, address: int, length: int) -> memoryview | None:
        """Zero-copy ``memoryview`` of a flat range within one segment.

        Returns ``None`` when the range straddles a segment boundary (the
        caller falls back to a copying :meth:`read`); raises
        :class:`MemoryError_` when the range is not mapped at all.  Used by
        the vectorized audit kernel and read prechecking so folding a
        region does not copy its bytes.
        """
        if length < 0:
            raise MemoryError_(f"negative access length: {length}")
        segment = self._segment_at(address)
        if address + length > self._next_base:
            raise MemoryError_(
                f"access of {length} bytes at {address:#x} is outside the "
                f"{self._next_base}-byte address space"
            )
        if address + length > segment.end:
            return None
        offset = address - segment.base
        return memoryview(segment.data)[offset : offset + length]

    def write(self, address: int, data: bytes) -> None:
        """Prescribed-path write: MMU-checked and dirty-tracked."""
        if self.mmu is not None:
            self.mmu.check_write(address, len(data))
        self._store(address, data)
        self.dirty_pages.note_dirty_range(address, len(data), self.page_size)

    def poke(self, address: int, data: bytes) -> None:
        """A wild write: bypasses dirty tracking but not the MMU.

        This is the fault-injection entry point -- an addressing error does
        not announce the pages it touched, but it cannot write through a
        hardware-protected page either.
        """
        if self.mmu is not None:
            self.mmu.check_write(address, len(data))
        self._store(address, data)

    def restore(self, address: int, data: bytes) -> None:
        """Recovery-path write: below the MMU, still dirty-tracked.

        Used when loading checkpoint images and applying redo at restart.
        """
        self._store(address, data)
        self.dirty_pages.note_dirty_range(address, len(data), self.page_size)

    def _store(self, address: int, data: bytes) -> None:
        length = len(data)
        if length > 0 and address >= 0 and address + length <= self._next_base:
            # Fast path: single-segment store without the span generator.
            segment = self._segments[bisect_right(self._bases, address) - 1]
            offset = address - segment.base
            if offset + length <= segment.size:
                segment.data[offset : offset + length] = data
                return
        consumed = 0
        for segment, offset, chunk in self._spans(address, length):
            segment.data[offset : offset + chunk] = data[consumed : consumed + chunk]
            consumed += chunk

    # -------------------------------------------------------- page views

    def page_bytes(self, page_id: int) -> bytes:
        address = page_id * self.page_size
        return self.read(address, self.page_size)

    def load_page(self, page_id: int, content: bytes) -> None:
        if len(content) != self.page_size:
            raise MemoryError_(
                f"page content must be exactly {self.page_size} bytes, got "
                f"{len(content)}"
            )
        self.restore(page_id * self.page_size, content)

    def iter_pages(self) -> Iterator[int]:
        return iter(range(self.page_count))

    def snapshot_segments(self) -> dict[str, bytes]:
        """Deep copy of all segment contents (test/verification helper)."""
        return {seg.name: bytes(seg.data) for seg in self._segments}
