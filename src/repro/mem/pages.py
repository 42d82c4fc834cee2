"""Page geometry helpers and the dirty page table.

Dali is "only page-based to the extent that it is convenient for tracking
storage use" (Section 2): pages matter for dirty tracking, checkpoint
propagation and hardware protection granularity, not for record layout.
"""

from __future__ import annotations

from typing import Iterable

PAGE_SIZE_DEFAULT = 8192


def page_range(address: int, length: int, page_size: int) -> range:
    """Page ids covered by ``[address, address + length)``.

    A zero-length access still touches the page containing ``address`` --
    callers use this for protection checks where intent matters.
    """
    if length <= 0:
        first = address // page_size
        return range(first, first + 1)
    first = address // page_size
    last = (address + length - 1) // page_size
    return range(first, last + 1)


def page_span(address: int, length: int, page_size: int) -> int:
    """Number of pages covered by ``[address, address + length)``."""
    return len(page_range(address, length, page_size))


class DirtyPageTable:
    """Tracks pages dirtied since each checkpoint image was last written.

    Dali keeps two checkpoint images (``Ckpt_A``/``Ckpt_B``, Section 2.1)
    written alternately (ping-pong checkpointing), so a page must stay
    "dirty with respect to image X" until it has been propagated to X --
    even if it was already propagated to the other image.  The table
    therefore keeps one pending set per image, both of which receive every
    newly dirtied page.
    """

    IMAGES = ("A", "B")

    def __init__(self) -> None:
        self._pending: dict[str, set[int]] = {img: set() for img in self.IMAGES}

    def note_dirty(self, page_id: int) -> None:
        for pending in self._pending.values():
            pending.add(page_id)

    def note_dirty_range(self, address: int, length: int, page_size: int) -> None:
        self.mark_all_dirty(page_range(address, length, page_size))

    def pending_for(self, image: str) -> frozenset[int]:
        """Pages that must be written to checkpoint ``image``."""
        return frozenset(self._pending[image])

    def clear_for(self, image: str, pages: Iterable[int]) -> None:
        """Mark ``pages`` as propagated to checkpoint ``image``."""
        self._pending[image].difference_update(pages)

    def mark_all_dirty(self, page_ids: Iterable[int]) -> None:
        """Mark pages dirty for both images at once (a recovery batch, or
        every page after recovery)."""
        ids = list(page_ids)
        for pending in self._pending.values():
            pending.update(ids)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        sizes = {img: len(p) for img, p in self._pending.items()}
        return f"DirtyPageTable(pending={sizes})"
