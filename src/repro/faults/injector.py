"""Addressing-error injection.

"One class of software error which has been shown to have a significant
impact on DBMS availability is the addressing error.  This class of error
includes copy overruns and wild writes through uninitialized pointers."
(Section 1)

The injector writes through :meth:`~repro.mem.memory.MemoryImage.poke`:
no logging, no codeword maintenance, no dirty tracking -- but the
simulated MMU still sees the write, so under the Hardware Protection
scheme an injected fault raises :class:`~repro.errors.ProtectionFault`
and the corruption is *prevented*, exactly as in the paper's model.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ConfigError, LogError

if TYPE_CHECKING:  # pragma: no cover
    from repro.storage.database import Database


def _frame_starts(path: str) -> list[int]:
    """Byte offset of every verified ``(lsn, frame)`` in a stable log.

    Walks the file with :func:`~repro.wal.system_log.walk_frames`, the
    walk :meth:`SystemLog.scan` uses, stopping at the first torn frame,
    so trailing torn-tail garbage is not counted as a frame.
    """
    # Imported here, not at module top: the system log itself imports
    # ``repro.faults`` (for crash points), so a top-level wal import
    # would be circular.
    from repro.wal.system_log import PAYLOAD_OFFSET, walk_frames

    with open(path, "rb") as handle:
        view = memoryview(handle.read())
    starts: list[int] = []
    try:
        for _lsn, _code, pos, _end in walk_frames(view):
            starts.append(pos - PAYLOAD_OFFSET)
    except LogError:
        pass
    return starts


def tear_log_tail(
    path: str,
    cut: int | None = None,
    frames: int | None = None,
    rng: random.Random | None = None,
) -> bytes:
    """Chop the tail off a stable log file; returns the removed bytes.

    Two modes, mutually exclusive:

    * ``cut=N`` (or neither argument, for a random sliver): remove the
      last ``N`` bytes, usually leaving the file ending mid-frame -- the
      classic torn flush the frame CRC detects;
    * ``frames=K``: remove the last ``K`` whole frames at a frame
      boundary (plus any trailing undecodable garbage), leaving a
      *clean* shorter log -- the group-commit loss case, where a crash
      swallows whole buffered commits and no tear is ever detected.
    """
    size = os.path.getsize(path)
    if size == 0:
        raise ConfigError("stable log is empty; nothing to tear")
    if frames is not None:
        if cut is not None:
            raise ConfigError("pass cut= or frames=, not both")
        if frames <= 0:
            raise ConfigError(f"frames must be positive: {frames}")
        starts = _frame_starts(path)
        if frames > len(starts):
            raise ConfigError(
                f"log has only {len(starts)} whole frame(s); cannot tear "
                f"{frames}"
            )
        cut = size - starts[len(starts) - frames]
    elif cut is None:
        rng = rng if rng is not None else random.Random()
        cut = rng.randrange(1, min(size, 16) + 1)
    if not 0 < cut <= size:
        raise ConfigError(f"cut must be in [1, {size}]: {cut}")
    with open(path, "r+b") as handle:
        handle.seek(size - cut)
        removed = handle.read(cut)
        handle.truncate(size - cut)
    return removed


@dataclass(frozen=True)
class CorruptionEvent:
    """A record of one injected fault (ground truth for tests)."""

    kind: str
    address: int
    old: bytes
    new: bytes

    @property
    def length(self) -> int:
        return len(self.new)


class FaultInjector:
    """Injects direct physical corruption into a database image."""

    def __init__(self, db: "Database", seed: int | None = None) -> None:
        self.db = db
        self.rng = random.Random(seed)
        self.events: list[CorruptionEvent] = []

    # ------------------------------------------------------------ faults

    def wild_write(
        self,
        address: int | None = None,
        length: int = 8,
        data: bytes | None = None,
    ) -> CorruptionEvent:
        """A stray pointer write: random bytes at a (random) address."""
        if address is None:
            address = self._random_address(length)
        if data is None:
            data = self._differing_bytes(address, length)
        elif len(data) != length:
            length = len(data)
        old = self.db.memory.read(address, length)
        self.db.memory.poke(address, data)
        event = CorruptionEvent("wild_write", address, old, data)
        self.events.append(event)
        return event

    def bit_flip(self, address: int | None = None) -> CorruptionEvent:
        """Flip one random bit of one byte."""
        if address is None:
            address = self._random_address(1)
        old = self.db.memory.read(address, 1)
        flipped = bytes([old[0] ^ (1 << self.rng.randrange(8))])
        self.db.memory.poke(address, flipped)
        event = CorruptionEvent("bit_flip", address, old, flipped)
        self.events.append(event)
        return event

    def copy_overrun(self, table: str, slot: int, overrun: int = 16) -> CorruptionEvent:
        """A memcpy that runs ``overrun`` bytes past the end of a record.

        The bytes *within* the record are left alone (the copy itself was
        legitimate); the bytes past its end are clobbered.
        """
        if overrun <= 0:
            raise ConfigError("overrun must be positive")
        tbl = self.db.table(table)
        end = tbl.record_address(slot) + tbl.schema.record_size
        data = self._differing_bytes(end, overrun)
        old = self.db.memory.read(end, overrun)
        self.db.memory.poke(end, data)
        event = CorruptionEvent("copy_overrun", end, old, data)
        self.events.append(event)
        return event

    def torn_flush(
        self, cut: int | None = None, frames: int | None = None
    ) -> CorruptionEvent:
        """A crash mid-flush: the last bytes of a stable-log write are lost.

        Chops ``cut`` bytes (default: a random sliver of the final
        record) off the stable system log file, simulating a flush whose
        tail never reached disk.  Call after :meth:`Database.crash` --
        the next ``scan`` detects the tear via the frame CRC and sets
        ``torn_tail_detected``; restart recovery truncates it.

        ``frames=K`` instead removes the last ``K`` *whole* frames at a
        frame boundary, leaving a clean shorter log: the group-commit
        loss case, where a crash swallows entire buffered commits and no
        tear is detectable (see :func:`tear_log_tail`).

        The event's ``address`` is the surviving file length and ``old``
        holds the bytes that were torn off (ground truth for tests).
        """
        path = self.db.system_log.path
        size = os.path.getsize(path)
        removed = tear_log_tail(path, cut=cut, frames=frames, rng=self.rng)
        event = CorruptionEvent("torn_flush", size - len(removed), removed, b"")
        self.events.append(event)
        return event

    def corrupt_record(self, table: str, slot: int) -> CorruptionEvent:
        """Wild-write directly over a specific record (targeted tests)."""
        tbl = self.db.table(table)
        address = tbl.record_address(slot)
        return self.wild_write(address, tbl.schema.record_size)

    # -------------------------------------------------- transport faults

    def _ship_fault(self, transport, kind: str) -> CorruptionEvent:
        """Arm one transport fault and record it as ground truth.

        Transport faults damage bytes *in flight*, not the image, so the
        event's address/old/new carry no memory content -- the kind and
        the transport's own ``faults_applied`` list are the ground truth
        the replication campaign scores against.
        """
        transport.arm_fault(kind)
        event = CorruptionEvent(f"ship_{kind}", -1, b"", b"")
        self.events.append(event)
        return event

    def drop_batch(self, transport) -> CorruptionEvent:
        """The next ship batch vanishes in the network."""
        return self._ship_fault(transport, "drop")

    def duplicate_batch(self, transport) -> CorruptionEvent:
        """The next ship batch is delivered twice."""
        return self._ship_fault(transport, "duplicate")

    def reorder_batches(self, transport) -> CorruptionEvent:
        """The next ship batch arrives after its successor."""
        return self._ship_fault(transport, "reorder")

    def tear_batch(self, transport) -> CorruptionEvent:
        """The next ship batch arrives truncated (fails its CRC)."""
        return self._ship_fault(transport, "tear")

    # ----------------------------------------------------------- helpers

    def _random_address(self, length: int) -> int:
        data_segments = [s for s in self.db.memory.segments if s.kind == "data"]
        if not data_segments:
            raise ConfigError("no data segments to corrupt")
        segment = self.rng.choice(data_segments)
        max_offset = segment.size - length
        if max_offset < 0:
            # Fault longer than the segment: start at the segment base
            # (poke spans segments), clamped so the span stays in memory.
            return min(segment.base, max(0, self.db.memory.size - length))
        # randrange(max_offset + 1) so the fault can start at *every*
        # in-bounds offset, including the one that ends flush against the
        # segment's last byte.
        return segment.base + self.rng.randrange(max_offset + 1)

    def _differing_bytes(self, address: int, length: int) -> bytes:
        """Random bytes guaranteed to differ from current content."""
        current = self.db.memory.read(address, length)
        while True:
            data = wild_payload(self.rng, length)
            if data != current:
                return data


def wild_payload(rng: random.Random, length: int) -> bytes:
    """``length`` random bytes from ``rng``: one wild write's scribble.

    The payload must vary per injection: the audit folds a region with
    XOR, so two *identical* scribbles over identical old bytes in the
    same region cancel exactly and the corruption becomes invisible by
    construction (and re-scribbling an address with the same bytes is
    not a state change at all).  Unique random payloads make
    cancellation a 2^-(8 * length) coincidence instead of a certainty,
    which is also the realistic model -- a wild pointer does not write
    the same sentinel twice.
    """
    return bytes(rng.randrange(256) for _ in range(length))
