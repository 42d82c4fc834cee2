"""The system log: in-memory tail plus stable on-disk log.

"The contents of the system log tail are flushed to the stable system log
on disk when a transaction commits, or during a checkpoint.  The system
log latch must be obtained before performing a flush." (Section 2.1)

LSNs are dense sequence numbers assigned when a record enters the tail
(i.e. at operation commit, when local redo records migrate here).  The
stable file stores ``u64 lsn`` followed by the framed record, so a scan
can start from any LSN (``CK_end``, ``Audit_SN``).

The tail *is* those bytes: records arrive as frames packed where they
were made (:mod:`repro.wal.records`), either straight into the tail with
their LSN (transaction begin/commit/abort, operation begin/commit, reads
outside any operation) or as a byte range moved from a local redo log
whose LSN slots are stamped on the way in.  A flush writes the tail
buffer it holds with one syscall.  Readers walk verified frames out of
a single ``memoryview`` of the file (:func:`walk_frames`), truncation
splices the file at a byte offset instead of decoding and re-encoding
every survivor, and
:attr:`stable_record_count` is a counter maintained at flush/truncate
time instead of an O(file) scan per call.
"""

from __future__ import annotations

import os
import struct
import threading
import zlib
from typing import Iterator

from repro.errors import LogError
from repro.faults.crashpoints import CrashPointRegistry
from repro.sim.clock import Meter
from repro.txn.latches import EXCLUSIVE, Latch
from repro.wal.records import (
    LSN_SLOT,
    LogicalUndo,
    LogRecord,
    decode_payload,
    pack_marker,
    pack_op_begin,
    pack_op_commit,
    pack_read,
    pack_record,
    pack_txn_begin,
)

_FRAME_HEAD = struct.Struct("<QI")  # the LSN header plus the record frame's u32 length
_CRC = struct.Struct("<I")
#: CRC-32 of any bytes followed by their own ``_CRC``-packed CRC-32.
_CRC_RESIDUE = 0x2144DF1C
#: A frame occupies ``[payload start - PAYLOAD_OFFSET, body end + _CRC.size)``:
#: LSN, length and the type byte precede the payload, the CRC follows the body.
PAYLOAD_OFFSET = _FRAME_HEAD.size + 1


class _TornFrame(LogError):
    """A frame that ends early or fails its CRC: where a crash tore a flush."""


def walk_frames(
    view: memoryview, stamped: bool = True
) -> Iterator[tuple[int, int, int, int]]:
    """The one frame verifier, over ``u64 lsn | framed record`` bytes.

    Yields ``(lsn, type code, payload start, body end)`` per frame, the
    offsets into ``view``: the CRC of every frame is checked and LSNs must
    ascend, but no record is built -- a reader unpacks the fields it needs
    (:mod:`repro.wal.records`' payload heads), and ``decode_payload(code,
    view, start, end)`` builds the record where one is wanted.  A local
    redo log's arena holds frames whose LSN slots are not stamped yet
    (all zero): walk it with ``stamped=False``.  (All-int tuples: the
    garbage collector stops tracking them, so a caller may keep a whole
    log's worth in a list.)  A truncated or CRC-damaged frame raises
    :class:`_TornFrame` (a :class:`~repro.errors.LogError`); an LSN out of
    order raises a plain ``LogError``, which no caller mistakes for a torn
    tail.
    """
    size = len(view)
    head = _FRAME_HEAD.unpack_from
    head_size = _FRAME_HEAD.size
    crc_size = _CRC.size
    crc32 = zlib.crc32
    offset = 0
    previous_lsn = -1
    while offset < size:
        body_start = offset + head_size
        if body_start > size:
            raise _TornFrame("truncated frame header")
        lsn, body_len = head(view, offset)
        offset = body_start + body_len + crc_size  # the next frame
        if body_len == 0 or offset > size:
            raise _TornFrame("truncated record body")
        # One pass checks body and stored CRC together: a CRC-32 run over
        # its data followed by that data's little-endian CRC always ends
        # at _CRC_RESIDUE, and at it only when the stored CRC is right.
        if crc32(view[body_start:offset]) != _CRC_RESIDUE:
            raise _TornFrame("log record CRC mismatch")
        if lsn <= previous_lsn and stamped:
            raise LogError(f"frame LSNs out of order: {lsn} after {previous_lsn}")
        previous_lsn = lsn
        yield lsn, view[body_start], body_start + 1, offset - crc_size


class SystemLog:
    """System log tail + stable log file."""

    def __init__(
        self,
        path: str,
        meter: Meter,
        crashpoints: CrashPointRegistry | None = None,
    ) -> None:
        self.path = path
        self.meter = meter
        self._charge_records = meter.counter("log_record", "log_byte")
        self._charge_flush = meter.counter("latch_pair", "flush_fixed", "flush_byte")
        # A private inert registry when none is shared in: ``reach`` on an
        # un-armed registry is a dict lookup, so the flush path needs no
        # conditional instrumentation.
        self.crashpoints = crashpoints if crashpoints is not None else CrashPointRegistry()
        self.latch = Latch("system_log")
        # Guards LSN assignment and the in-memory tail so concurrent
        # serving sessions can append while a flush snapshots the tail.
        # Uncontended acquisition is a cheap C-level operation, and the
        # meter never sees it -- the paper's cost model charges the
        # *system log latch* (held across flushes), not this mutex.
        self._tail_lock = threading.Lock()
        #: The tail: stamped frames not yet flushed, and how many.
        self._tail = bytearray()
        self._tail_frames = 0
        self.next_lsn = 0
        self.end_of_stable_lsn = 0  # records with lsn < this are on disk
        self.torn_tail_detected = False
        self._clean_prefix_bytes = 0
        #: LSN of the last verified frame seen by the most recent
        #: :meth:`frames` (-1 for an empty file) -- tracked for *every*
        #: frame, even ones a ``from_lsn`` filter skipped, so restart
        #: recovery learns the true end of log.
        self.last_scanned_lsn = -1
        self._file = open(path, "ab")
        # Stable-record counter: exact from birth for a fresh file,
        # lazily counted once when opening a pre-existing file.
        self._stable_count: int | None = 0 if self._file.tell() == 0 else None

    # ------------------------------------------------------------ write
    #
    # Every tail append takes the tail mutex once, claims dense LSNs and
    # packs or moves frames into the tail; none of them can leave a
    # partial frame behind (a failed pack is cut off before the mutex is
    # released).

    def append_txn_begin(self, txn_id: int, is_recovery: bool) -> int:
        """A transaction begin record, charged; returns its LSN."""
        with self._tail_lock:
            lsn = self.next_lsn
            size = pack_txn_begin(self._tail, lsn, txn_id, is_recovery)
            self.next_lsn = lsn + 1
            self._tail_frames += 1
        self._charge_records(1, size)
        return lsn

    def append_marker(self, code: int, txn_id: int) -> int:
        """A transaction commit or abort record (``code``, see
        :func:`~repro.wal.records.pack_marker`), charged; returns its LSN."""
        with self._tail_lock:
            lsn = self.next_lsn
            size = pack_marker(self._tail, lsn, code, txn_id)
            self.next_lsn = lsn + 1
            self._tail_frames += 1
        self._charge_records(1, size)
        return lsn

    def append_read(self, txn_id: int, address: int, length: int, checksum) -> int:
        """A read record made outside any operation, not charged here
        (read logging charges ``readlog_*``); returns its ``approx_size``.
        The counterpart of :meth:`LocalRedoLog.append_read
        <repro.wal.local_log.LocalRedoLog.append_read>`."""
        with self._tail_lock:
            lsn = self.next_lsn
            size = pack_read(self._tail, lsn, txn_id, address, length, checksum)
            self.next_lsn = lsn + 1
            self._tail_frames += 1
        return size

    def append_operation(
        self,
        txn_id: int,
        op_id: int,
        level: int,
        object_key: str,
        logical_undo: LogicalUndo,
        frames,
        starts: list[int],
    ) -> int:
        """An operation commit's one tail append: its OpBegin record, the
        operation's frames moved from the local redo log (``starts`` are
        their offsets in ``frames``; each LSN slot is stamped on the way
        in) and its OpCommit record.  The two new
        records are charged as one ``log_record`` and one ``log_byte``
        charge (:meth:`~repro.sim.clock.Meter.charge` is linear); returns
        the OpCommit record's LSN."""
        with self._tail_lock:
            tail = self._tail
            base = len(tail)
            first = lsn = self.next_lsn
            try:
                size = pack_op_begin(tail, lsn, txn_id, op_id, level, object_key)
                lsn += 1
                moved = len(tail)
                tail += frames
                stamp = LSN_SLOT.pack_into
                for start in starts:
                    stamp(tail, moved + start, lsn)
                    lsn += 1
                size += pack_op_commit(
                    tail, lsn, txn_id, op_id, level, object_key, logical_undo
                )
            except BaseException:
                del tail[base:]
                raise
            self.next_lsn = lsn + 1
            self._tail_frames += lsn + 1 - first
        self._charge_records(2, size)
        return lsn

    def append(self, record: LogRecord, charge: bool = True) -> int:
        """Add a record object to the tail (the cold path); returns its LSN.

        Records migrating from a local redo log were already charged when
        first appended there; callers pass ``charge=False`` for those so
        the move itself costs nothing extra (it is a pointer move in Dali).
        """
        return self.extend((record,), charge)[0]

    def extend(self, records, charge: bool = True) -> tuple[int, int]:
        """Append many record objects in one batch; returns ``(first_lsn, next_lsn)``.

        Meter-identical to a loop of :meth:`append` calls with the same
        ``charge`` flag: :meth:`~repro.sim.clock.Meter.charge` is linear,
        so one bulk ``log_record``/``log_byte`` charge equals the
        per-record sequence in both event counts and virtual nanoseconds.
        """
        size = 0
        with self._tail_lock:
            tail = self._tail
            base = len(tail)
            first = lsn = self.next_lsn
            try:
                for record in records:
                    size += pack_record(record, tail, lsn)
                    lsn += 1
            except BaseException:
                del tail[base:]
                raise
            self.next_lsn = lsn
            self._tail_frames += lsn - first
        if charge and lsn > first:
            self._charge_records(lsn - first, size)
        return first, lsn

    @property
    def tail(self) -> list[tuple[int, LogRecord]]:
        """The unflushed records, decoded: ``(lsn, record)`` pairs (a
        read-only view of the tail's frames, for tests and cold paths)."""
        with self._tail_lock:
            view = memoryview(bytes(self._tail))
        return [
            (lsn, decode_payload(code, view, pos, end))
            for lsn, code, pos, end in walk_frames(view)
        ]

    @property
    def tail_records(self) -> int:
        """How many records the tail holds, counted without decoding."""
        return self._tail_frames

    def flush(self) -> int:
        """Flush the tail to the stable log; returns end_of_stable_lsn.

        Holds the system log latch for the duration, as the paper requires
        to serialize access to the flush buffers.  The tail already holds
        the stable bytes; it is written with a single syscall.
        """
        # An explicit acquire / release pair, not ``Latch.exclusive()``'s
        # generator: this runs once per commit.
        latch = self.latch
        latch.acquire(EXCLUSIVE)
        try:
            with self._tail_lock:
                if not self._tail_frames:
                    self.meter.charge("latch_pair")
                    return self.end_of_stable_lsn
                # Detach the tail under the mutex: records appended by
                # other sessions from here on ride the *next* flush.
                buf = self._tail
                count = self._tail_frames
                end_lsn = self.next_lsn
                self._tail = bytearray()
                self._tail_frames = 0
            self.crashpoints.reach("wal.flush.pre")
            armed = self.crashpoints.reach("wal.flush.mid", defer=True)
            if armed is not None:
                # A torn flush: a prefix of the buffer reaches disk, then
                # the process dies.  The surviving prefix ends mid-frame,
                # so the next scan's CRC check reports a torn tail --
                # exactly the state FaultInjector.torn_flush fabricates
                # after the fact.
                keep = armed.payload.get("keep_bytes")
                if keep is None:
                    keep = int(len(buf) * armed.payload.get("keep_fraction", 0.5))
                keep = max(0, min(keep, len(buf) - 1))
                self._file.write(buf[:keep])
                self._file.flush()
                self._stable_count = None  # bytes the counter can't vouch for
                self.crashpoints.crash("wal.flush.mid")
            self._file.write(buf)
            self._file.flush()
            self.crashpoints.reach("wal.flush.post")
            self._charge_flush(1, 1, len(buf))
            if self._stable_count is not None:
                self._stable_count += count
            self.end_of_stable_lsn = end_lsn
            return self.end_of_stable_lsn
        finally:
            latch.release()

    def close(self) -> None:
        self._file.close()

    def crash(self) -> None:
        """Simulate a process crash: the unflushed tail is lost."""
        with self._tail_lock:
            self._tail = bytearray()
            self._tail_frames = 0
        self._file.close()

    # ------------------------------------------------------------- read

    def read_stable(self) -> memoryview:
        """The stable file's bytes (empty when it does not exist)."""
        if not os.path.exists(self.path):
            return memoryview(b"")
        with open(self.path, "rb") as handle:
            return memoryview(handle.read())

    def frames(
        self, view: memoryview, strict: bool = False
    ) -> list[tuple[int, int, int, int]]:
        """The verified frames of the whole *stable* log, as a list:
        :func:`walk_frames` over ``view``, which the caller got from
        :meth:`read_stable`.

        A crash can tear the last flush, leaving a truncated or
        CRC-damaged record at the end of the file.  By default the walk
        stops cleanly at the first such frame (setting
        :attr:`torn_tail_detected`), which is the standard write-ahead-log
        recovery behaviour; ``strict=True`` raises instead, for integrity
        checks that must see every byte accounted for.  The end of the
        clean prefix and :attr:`last_scanned_lsn` come from the last
        frame verified.
        """
        frames: list[tuple[int, int, int, int]] = []
        torn = False
        try:
            frames.extend(walk_frames(view))
        except _TornFrame:
            if strict:
                raise
            torn = True
        finally:
            self.torn_tail_detected = torn
            if frames:
                last_lsn, _code, _pos, end = frames[-1]
                self.last_scanned_lsn = last_lsn
                self._clean_prefix_bytes = end + _CRC.size
            else:
                self.last_scanned_lsn = -1
                self._clean_prefix_bytes = 0
        if torn:
            # The file holds bytes the counter can no longer vouch for;
            # recount lazily after the tail is repaired.
            self._stable_count = None
        elif self._stable_count is None:
            # A clean full traversal counted every frame; repair the
            # counter for free.
            self._stable_count = len(frames)
        return frames

    def scan(
        self, from_lsn: int = 0, strict: bool = False
    ) -> Iterator[tuple[int, LogRecord]]:
        """Yield ``(lsn, record)`` from the *stable* log, lsn >= from_lsn
        (the test and cold-path form of :meth:`live_frames`).

        Torn tails and ``strict`` are those of :meth:`frames`; frames
        below ``from_lsn`` are verified like the rest.
        """
        view = self.read_stable()
        for lsn, code, pos, end in self.frames(view, strict):
            if lsn >= from_lsn:
                yield lsn, decode_payload(code, view, pos, end)

    def live_frames(
        self, from_lsn: int = 0, arenas=()
    ) -> Iterator[tuple[memoryview, int, int, int, int]]:
        """Every verified frame of the live log, in log order, as ``(view,
        lsn, type code, payload start, body end)``: the stable log from
        ``from_lsn`` (torn tails as in :meth:`frames`), then the unflushed
        tail, then each of ``arenas`` -- local redo logs' frames, whose
        operations are still open and which have no LSN yet (``-1``).
        """
        view = self.read_stable()
        for lsn, code, pos, end in self.frames(view):
            if lsn >= from_lsn:
                yield view, lsn, code, pos, end
        with self._tail_lock:
            view = memoryview(bytes(self._tail))
        for lsn, code, pos, end in walk_frames(view):
            if lsn >= from_lsn:
                yield view, lsn, code, pos, end
        for arena in arenas:
            view = memoryview(bytes(arena))
            for _lsn, code, pos, end in walk_frames(view, stamped=False):
                yield view, -1, code, pos, end

    def export_frames(
        self,
        from_lsn: int,
        max_records: int | None = None,
        up_to_lsn: int | None = None,
    ) -> tuple[bytes, int, int]:
        """Raw stable-log frames with ``from_lsn <= lsn < up_to_lsn``.

        Returns ``(payload, first_lsn, count)`` where ``payload`` is the
        verbatim on-disk bytes (``u64 lsn`` header + CRC-framed record,
        per frame) of up to ``max_records`` consecutive frames.  This is
        the log-shipping export: the bytes are copied as-is, so a replica
        ingesting them ends with a byte-identical stable log suffix, and
        every frame still carries its own CRC for end-to-end verification.
        The skipped prefix is CRC-checked but never constructed; a torn
        tail is never exported.  ``first_lsn`` is ``-1`` when nothing
        qualifies.
        """
        view = self.read_stable()
        start = stop = 0
        first_lsn = -1
        count = 0
        try:
            for lsn, _code, pos, end in walk_frames(view):
                if up_to_lsn is not None and lsn >= up_to_lsn:
                    break
                if max_records is not None and count >= max_records:
                    break
                if lsn >= from_lsn:
                    if count == 0:
                        start = pos - PAYLOAD_OFFSET
                        first_lsn = lsn
                    count += 1
                    stop = end + _CRC.size
        except _TornFrame:
            pass  # torn tail: not shippable until truncated
        return bytes(view[start:stop]), first_lsn, count

    def ingest_frames(self, payload: bytes, first_lsn: int) -> int:
        """Append exported frames verbatim; returns the new end-of-stable LSN.

        The receive half of log shipping: ``payload`` must be bytes from
        :meth:`export_frames`, starting exactly at this log's
        :attr:`next_lsn` (dense LSNs are the idempotence key -- callers
        drop already-ingested frames before calling).  Every frame is
        CRC-verified and LSN-checked *before* any byte is written, so a
        corrupt or mis-sequenced batch leaves the file untouched.  The
        tail must be empty: a replica's log only ever grows by ingestion
        until promotion.
        """
        lsns = [lsn for lsn, _code, _pos, _end in walk_frames(memoryview(payload))]
        if not lsns:
            return self.end_of_stable_lsn
        with self.latch.exclusive():
            self.meter.charge("latch_pair")
            with self._tail_lock:
                if self._tail_frames:
                    raise LogError(
                        "cannot ingest frames into a log with a live tail"
                    )
                if first_lsn != self.next_lsn or lsns[0] != first_lsn:
                    raise LogError(
                        f"ingest expects frames starting at LSN {self.next_lsn}, "
                        f"got {lsns[0]} (declared {first_lsn})"
                    )
                # The walk saw them ascend: dense iff the last one fits.
                expected = first_lsn + len(lsns)
                if lsns[-1] != expected - 1:
                    raise LogError(
                        f"ingested frames not dense: {len(lsns)} frames from "
                        f"LSN {first_lsn} end at {lsns[-1]}"
                    )
                self.meter.charge("flush_fixed")
                self._file.write(payload)
                self._file.flush()
                self.meter.charge("flush_byte", len(payload))
                if self._stable_count is not None:
                    self._stable_count += len(lsns)
                self.next_lsn = expected
                self.end_of_stable_lsn = expected
                return self.end_of_stable_lsn

    def truncate_before(self, lsn: int) -> int:
        """Drop stable records with LSNs below ``lsn``; returns the count.

        Standard log reclamation after a certified checkpoint: restart
        recovery never reads below ``CK_end``.  Archive replay *does* read
        below it, so callers that keep archives must not truncate past the
        oldest archive's ``CK_end`` (see ``Database.truncate_log``).

        Only the dropped prefix is decoded (CRC-verified, records never
        constructed); the survivors are spliced out byte-for-byte at the
        cut offset -- encoding is deterministic, so the spliced bytes are
        exactly what the old decode→re-encode cycle produced.  Torn-tail
        bytes, if any, stay in place for ``scan``/``truncate_torn_tail``.
        """
        view = self.read_stable()
        cut = 0
        removed = 0
        try:
            for record_lsn, _code, _pos, end in walk_frames(view):
                if record_lsn >= lsn:
                    break
                cut = end + _CRC.size
                removed += 1
        except _TornFrame:
            pass
        if removed == 0:
            return 0
        self._file.close()
        with open(self.path, "wb") as handle:
            handle.write(view[cut:])
        self._file = open(self.path, "ab")
        if self._stable_count is not None:
            self._stable_count -= removed
        return removed

    def truncate_torn_tail(self) -> bool:
        """Cut a torn tail found by the last :meth:`scan` off the file.

        Must be called before any further flush appends records, or the
        new records would land after undecodable garbage.  Returns True
        if anything was truncated.
        """
        if not self.torn_tail_detected:
            return False
        self._file.close()
        with open(self.path, "r+b") as handle:
            handle.truncate(self._clean_prefix_bytes)
        self._file = open(self.path, "ab")
        self.torn_tail_detected = False
        return True

    @property
    def stable_record_count(self) -> int:
        """Number of records in the stable file.

        O(1): the counter is maintained at flush/truncate time.  It is
        (re)counted lazily -- CRC checks only, no record construction --
        after opening a pre-existing file or after a scan found a torn
        tail (external damage the counter cannot vouch for).
        """
        if self._stable_count is None:
            count = 0
            try:
                for _frame in walk_frames(self.read_stable()):
                    count += 1
            except _TornFrame:
                pass
            self._stable_count = count
        return self._stable_count
