"""The system log: in-memory tail plus stable on-disk log.

"The contents of the system log tail are flushed to the stable system log
on disk when a transaction commits, or during a checkpoint.  The system
log latch must be obtained before performing a flush." (Section 2.1)

LSNs are dense sequence numbers assigned when a record enters the tail
(i.e. at operation commit, when local redo records migrate here).  The
stable file stores ``u64 lsn`` followed by the framed record, so a scan
can start from any LSN (``CK_end``, ``Audit_SN``).

The write path is batch-oriented: a flush encodes the whole tail into one
``bytearray`` via :func:`~repro.wal.records.encode_into` (one write
syscall, no per-record joins), scans decode out of a single
``memoryview`` of the file, truncation splices the file at a byte offset
instead of decoding and re-encoding every survivor, and
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
from repro.txn.latches import Latch
from repro.wal.records import LogRecord, decode_payload, encode_into, type_codes

_LSN_HEADER = struct.Struct("<Q")
_FRAME_HEAD = struct.Struct("<QI")  # the LSN header plus the record frame's u32 length
_CRC = struct.Struct("<I")
#: A frame occupies ``[payload start - PAYLOAD_OFFSET, body end + _CRC.size)``:
#: LSN, length and the type byte precede the payload, the CRC follows the body.
PAYLOAD_OFFSET = _FRAME_HEAD.size + 1


class _TornFrame(LogError):
    """A frame that ends early or fails its CRC: where a crash tore a flush."""


def walk_frames(view: memoryview) -> Iterator[tuple[int, int, int, int]]:
    """The one verified-frame iterator over ``u64 lsn | framed record`` bytes.

    Yields ``(lsn, type code, payload start, body end)`` per frame, the
    offsets into ``view``: the CRC of every frame is checked and LSNs must
    ascend, but no record is built -- ``decode_payload(code, view, start,
    end)`` does that for the frames a caller wants.  (All-int tuples: the
    garbage collector stops tracking them, so a caller may keep a whole
    log's worth in a list.)  A truncated or CRC-damaged frame raises
    :class:`_TornFrame` (a :class:`~repro.errors.LogError`); an LSN out of
    order raises a plain ``LogError``, which no caller mistakes for a torn
    tail.
    """
    size = len(view)
    head = _FRAME_HEAD.unpack_from
    head_size = _FRAME_HEAD.size
    crc_at = _CRC.unpack_from
    crc_size = _CRC.size
    crc32 = zlib.crc32
    offset = 0
    previous_lsn = -1
    while offset < size:
        body_start = offset + head_size
        if body_start > size:
            raise _TornFrame("truncated frame header")
        lsn, body_len = head(view, offset)
        body_end = body_start + body_len
        if body_len == 0 or body_end + crc_size > size:
            raise _TornFrame("truncated record body")
        if crc32(view[body_start:body_end]) != crc_at(view, body_end)[0]:
            raise _TornFrame("log record CRC mismatch")
        if lsn <= previous_lsn:
            raise LogError(f"frame LSNs out of order: {lsn} after {previous_lsn}")
        previous_lsn = lsn
        yield lsn, view[body_start], body_start + 1, body_end
        offset = body_end + crc_size


def decode_frames(payload: bytes) -> Iterator[tuple[int, LogRecord]]:
    """Decode exported frame bytes into ``(lsn, record)`` pairs.

    Strict: a truncated header, bad CRC or non-ascending LSN raises
    :class:`~repro.errors.LogError`.  Used by the replica to turn a
    shipped batch into replayable records (and to reject corrupt batches
    before a single byte lands in its log).
    """
    view = memoryview(payload)
    for lsn, code, pos, end in walk_frames(view):
        yield lsn, decode_payload(code, view, pos, end)


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
        self.tail: list[tuple[int, LogRecord]] = []
        self.next_lsn = 0
        self.end_of_stable_lsn = 0  # records with lsn < this are on disk
        self.torn_tail_detected = False
        self._clean_prefix_bytes = 0
        #: LSN of the last decodable frame seen by the most recent
        #: :meth:`scan` (-1 for an empty file) -- tracked for *every*
        #: frame, even ones a ``from_lsn``/``only`` filter skipped, so
        #: restart recovery can learn the true end of log from a
        #: filtered scan.
        self.last_scanned_lsn = -1
        self._file = open(path, "ab")
        # Stable-record counter: exact from birth for a fresh file,
        # lazily counted once when opening a pre-existing file.
        self._stable_count: int | None = 0 if self._file.tell() == 0 else None

    # ------------------------------------------------------------ write

    def append(self, record: LogRecord, charge: bool = True) -> int:
        """Add a record to the tail; returns its LSN.

        Records migrating from a local redo log were already charged when
        first appended there; callers pass ``charge=False`` for those so
        the move itself costs nothing extra (it is a pointer move in Dali).
        """
        with self._tail_lock:
            lsn = self.next_lsn
            self.next_lsn += 1
            self.tail.append((lsn, record))
        if charge:
            self.meter.charge("log_record")
            self.meter.charge("log_byte", record.approx_size())
        return lsn

    def extend(self, records, charge: bool = True) -> tuple[int, int]:
        """Append many records in one batch; returns ``(first_lsn, next_lsn)``.

        Meter-identical to a loop of :meth:`append` calls with the same
        ``charge`` flag: :meth:`~repro.sim.clock.Meter.charge` is linear,
        so one bulk ``log_record``/``log_byte`` charge equals the
        per-record sequence in both event counts and virtual nanoseconds.
        """
        if not isinstance(records, list):
            records = list(records)
        with self._tail_lock:
            first = self.next_lsn
            lsn = first
            tail_append = self.tail.append
            for record in records:
                tail_append((lsn, record))
                lsn += 1
            self.next_lsn = lsn
        if charge and records:
            self.meter.charge("log_record", len(records))
            self.meter.charge(
                "log_byte", sum(record.approx_size() for record in records)
            )
        return first, lsn

    def flush(self) -> int:
        """Flush the tail to the stable log; returns end_of_stable_lsn.

        Holds the system log latch for the duration, as the paper requires
        to serialize access to the flush buffers.  The whole tail is
        encoded into one buffer and written with a single syscall.
        """
        with self.latch.exclusive():
            self.meter.charge("latch_pair")
            with self._tail_lock:
                if not self.tail:
                    return self.end_of_stable_lsn
                # Detach the tail under the mutex: records appended by
                # other sessions from here on ride the *next* flush.
                pending = self.tail
                self.tail = []
            self.crashpoints.reach("wal.flush.pre")
            self.meter.charge("flush_fixed")
            buf = bytearray()
            pack_lsn = _LSN_HEADER.pack
            for lsn, record in pending:
                buf += pack_lsn(lsn)
                encode_into(record, buf)
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
            self.meter.charge("flush_byte", len(buf))
            if self._stable_count is not None:
                self._stable_count += len(pending)
            self.end_of_stable_lsn = pending[-1][0] + 1
            return self.end_of_stable_lsn

    def close(self) -> None:
        self._file.close()

    def crash(self) -> None:
        """Simulate a process crash: the unflushed tail is lost."""
        self.tail.clear()
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
    ) -> Iterator[tuple[int, int, int, int]]:
        """Walk the whole *stable* log: :func:`walk_frames` over ``view``,
        which the caller got from :meth:`read_stable`.

        A crash can tear the last flush, leaving a truncated or
        CRC-damaged record at the end of the file.  By default the walk
        stops cleanly at the first such frame (setting
        :attr:`torn_tail_detected`), which is the standard write-ahead-log
        recovery behaviour; ``strict=True`` raises instead, for integrity
        checks that must see every byte accounted for.
        """
        self.torn_tail_detected = False
        self._clean_prefix_bytes = 0
        self.last_scanned_lsn = -1
        clean, last, count = 0, -1, 0
        try:
            for frame in walk_frames(view):
                last = frame[0]
                clean = frame[3] + _CRC.size
                count += 1
                yield frame
        except _TornFrame:
            if strict:
                raise
            self.torn_tail_detected = True
            # The file holds bytes the counter can no longer vouch
            # for; recount lazily after the tail is repaired.
            self._stable_count = None
        else:
            if self._stable_count is None:
                # A clean full traversal counted every frame; repair the
                # counter for free.
                self._stable_count = count
        finally:
            self._clean_prefix_bytes = clean
            self.last_scanned_lsn = last

    def scan(
        self, from_lsn: int = 0, strict: bool = False, only=None
    ) -> Iterator[tuple[int, LogRecord]]:
        """Yield ``(lsn, record)`` from the *stable* log, lsn >= from_lsn.

        Torn tails and ``strict`` are those of :meth:`frames`.  ``only``
        restricts the yield to an iterable of record *classes* (e.g.
        ``only=(AmendRecord,)`` for archive replay's amendment prepass).
        Skipped frames -- filtered by type or below ``from_lsn`` -- are
        still CRC-verified and LSN-ordered, but the record object is never
        constructed, so a filtered scan touches each byte once and
        allocates nothing per skipped record.
        """
        want = type_codes(only) if only is not None else None
        view = self.read_stable()
        for lsn, code, pos, end in self.frames(view, strict):
            if lsn >= from_lsn and (want is None or code in want):
                yield lsn, decode_payload(code, view, pos, end)

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
        frames = list(decode_frames(payload))
        if not frames:
            return self.end_of_stable_lsn
        with self.latch.exclusive():
            self.meter.charge("latch_pair")
            with self._tail_lock:
                if self.tail:
                    raise LogError(
                        "cannot ingest frames into a log with a live tail"
                    )
                if first_lsn != self.next_lsn or frames[0][0] != first_lsn:
                    raise LogError(
                        f"ingest expects frames starting at LSN {self.next_lsn}, "
                        f"got {frames[0][0]} (declared {first_lsn})"
                    )
                expected = first_lsn
                for lsn, _record in frames:
                    if lsn != expected:
                        raise LogError(
                            f"ingested frames not dense: expected LSN "
                            f"{expected}, got {lsn}"
                        )
                    expected += 1
                self.meter.charge("flush_fixed")
                self._file.write(payload)
                self._file.flush()
                self.meter.charge("flush_byte", len(payload))
                if self._stable_count is not None:
                    self._stable_count += len(frames)
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
