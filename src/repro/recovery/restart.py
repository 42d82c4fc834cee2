"""Restart recovery: Dali multi-level recovery plus the delete-transaction
corruption recovery algorithm of Section 4.3.

:class:`RestartRecovery` is the only code that replays the stable log onto
an image.  It has three drivers: :meth:`RestartRecovery.run` (restart,
archive and delete-transaction recovery scan to the end of the log); the
hot standby's :meth:`~RestartRecovery.continuous` /
:meth:`~RestartRecovery.apply_frames` / :meth:`~RestartRecovery.complete`
(a restart that never finishes); and prior-state recovery's early stop,
``run(until_lsn=...)`` (a restart that finishes early -- exactly a crash at
the cutoff).

Normal restart ("repeating history physically", Section 2.1):

1. load the anchored checkpoint image and its ATT (with local undo logs);
2. analysis: read the stable log once, verify every frame, and collect the
   transactions whose commit or abort frame lies in the replayed span --
   the *finished* transactions, which the undo phase will never visit;
3. redo phase: forward pass from ``CK_end`` applying every physical update
   record, while reconstructing the local undo logs of every transaction
   that is not finished (pre-images captured before each redo; operation
   commit records replace an operation's physical undo with its logical
   undo).  Every frame is read where it lies in the log buffer, by the
   handler its type code selects in one table
   (``RestartRecovery._HANDLERS``), which unpacks only the fields it acts
   on -- no record object is built.  A finished transaction's frames
   skip even that and are applied as they lie in the
   log buffer: its after-images are queued as offsets into the frame
   bytes and stored, in log order, as one batch write
   (:meth:`~repro.mem.memory.MemoryImage.restore_batch`: one segment
   lookup per run of stores in a segment, each dirty page marked once);
   its operation brackets are matched by id, and no pre-image or undo
   entry is built -- only the undo sequence counter
   advances as if they had been.  The queue is stored before any other
   record is replayed, since a tracked update reads its pre-image from
   memory;
4. undo phase: transactions without a commit/abort record are rolled back
   level by level -- physical (level-0) undo first, then logical undo of
   committed operations, newest first;
5. a checkpoint finishes recovery.

The eligibility rule for step 3's shortcut is one test per frame: the
record names a transaction in the finished set.  The set is empty -- so
every frame goes to its handler and is tracked -- whenever an undo
log can be needed from a transaction that does finish: in every
delete-transaction mode (below), because a transaction may be recruited
at any record and its undo log must exist from its first action; for the
hot standby, which maintains codewords from the pre-images; and for
transactions carried in the checkpoint's ATT, whose open operations began
before ``CK_end``.  Records past an early stop are not replayed at all.

Delete-transaction mode is the same scan with the modifications of
Section 4.3: a CorruptDataTable (byte intervals) and CorruptTransTable are
maintained; writes of corrupt transactions are suppressed and their target
ranges become corrupt; begin-operation records that conflict with a
corrupt transaction's undone operations recruit their transaction; at
``Audit_SN`` the failed audit's regions seed the CorruptDataTable.  With
checksummed read logs the CorruptDataTable is dispensed with entirely:
a logged checksum that does not match the recovering image recruits the
reader, which yields a *view-consistent* delete history.

A stacked configuration carrying *both* evidence kinds (an audit-only
codeword member plus checksummed read logging,
``scheme="data_cw+cw_read_logging"``) runs in **combined** mode: checksum
comparison recruits precisely where a checksum exists, and the
audit-populated CorruptDataTable recruits conservatively at region
granularity as well.  The union costs nothing in soundness (recruitment
is always conservative) and covers the XOR blind spot of pure checksums:
corruption whose words fold to the original checksum is invisible to the
comparison but still lands in the CDT via the failed audit's note.
"""

from __future__ import annotations

import bisect
import json
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.codeword import fold_words
from repro.errors import LogError, RecoveryError
from repro.storage.database import CORRUPTION_NOTE_FILE
from repro.txn.transaction import ActiveTransactionTable
from repro.wal.local_log import LogicalUndoEntry, PhysicalUndo
from repro.wal.records import (
    NO_CHECKSUM,
    OP_HEAD,
    TXN_BEGIN_HEAD,
    TXN_ID,
    UPDATE_HEAD,
    AmendRecord,
    LogicalUndo,
    RecordType,
    TxnCommitRecord,
    decode_str,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.storage.database import Database

# Plain-int wire type codes: the replay loop compares one per frame.
_UPDATE = int(RecordType.UPDATE)
_READ = int(RecordType.READ)
_OP_BEGIN = int(RecordType.OP_BEGIN)
_OP_COMMIT = int(RecordType.OP_COMMIT)
_TXN_BEGIN = int(RecordType.TXN_BEGIN)
_TXN_COMMIT = int(RecordType.TXN_COMMIT)
_TXN_ABORT = int(RecordType.TXN_ABORT)
_TXN_PREPARE = int(RecordType.TXN_PREPARE)
#: Records whose ``txn_id`` names a transaction (an audit's or an
#: amendment's names an audit or a recovery episode).
_TXN_RECORD_CODES = frozenset(
    int(code)
    for code in RecordType
    if code not in (RecordType.AUDIT_BEGIN, RecordType.AUDIT_END, RecordType.AMEND)
)


@dataclass(frozen=True)
class CorruptionContext:
    """What restart knows about detected corruption."""

    corrupt_ranges: tuple[tuple[int, int], ...]
    audit_sn: int
    use_checksums: bool
    #: whether the log contains read records; without them (plain Data
    #: Codeword / Read Prechecking), corruption can only be traced through
    #: writes and operation conflicts -- a documented weaker mode.
    reads_traced: bool = True
    #: True when this context was reconstructed from an AmendRecord during
    #: archive recovery (no new amendment is written for it).
    from_amendment: bool = False
    #: transactions to delete as *logical* corruption roots (user-named
    #: bad transactions -- incorrect data entry, buggy application logic);
    #: their taint is traced through the read log exactly like physical
    #: corruption.
    root_txns: tuple[int, ...] = ()
    #: True when the protection stack carries both audit-based and
    #: checksum-based evidence (``ProtectionPipeline.combines_evidence``):
    #: the scan then unions checksum-mismatch recruitment with the
    #: audit-populated CorruptDataTable instead of choosing one.
    combine_evidence: bool = False


def load_corruption_note(db: "Database") -> CorruptionContext | None:
    """Build the corruption context for a restart.

    A corruption note (written by :meth:`Database.crash_with_corruption`)
    always triggers delete-transaction recovery.  Without a note, schemes
    that log read checksums still run it on every restart, because only
    then can corruption that occurred after the last audit be caught
    (Section 4.3).
    """
    path = db.path(CORRUPTION_NOTE_FILE)
    use_checksums = bool(getattr(db.scheme, "logs_read_checksums", False))
    reads_traced = bool(getattr(db.scheme, "logs_reads", False))
    combine = bool(getattr(db.scheme, "combines_evidence", False))
    if os.path.exists(path):
        with open(path) as handle:
            note = json.load(handle)
        return CorruptionContext(
            corrupt_ranges=tuple((int(s), int(l)) for s, l in note["corrupt_ranges"]),
            audit_sn=int(note["audit_sn"]),
            use_checksums=use_checksums,
            reads_traced=reads_traced,
            combine_evidence=combine,
        )
    if use_checksums:
        # No note, but reads carry checksums: run the scan anyway (it is
        # the only way to catch corruption after the last audit).  There
        # are no audit ranges to combine with on this path.
        return CorruptionContext(
            corrupt_ranges=(), audit_sn=0, use_checksums=True, reads_traced=True
        )
    return None


class CorruptDataTable:
    """A set of byte intervals, merged on insert, with overlap queries."""

    def __init__(self) -> None:
        self._starts: list[int] = []
        self._ends: list[int] = []

    def add(self, start: int, length: int) -> None:
        if length <= 0:
            return
        end = start + length
        i = bisect.bisect_left(self._starts, start)
        # Merge with a predecessor that reaches into us.
        if i > 0 and self._ends[i - 1] >= start:
            i -= 1
            start = self._starts[i]
            end = max(end, self._ends[i])
            del self._starts[i]
            del self._ends[i]
        # Merge with successors we swallow.
        while i < len(self._starts) and self._starts[i] <= end:
            end = max(end, self._ends[i])
            del self._starts[i]
            del self._ends[i]
        self._starts.insert(i, start)
        self._ends.insert(i, end)

    def overlaps(self, start: int, length: int) -> bool:
        if length <= 0 or not self._starts:
            return False
        end = start + length
        i = bisect.bisect_right(self._starts, start)
        if i > 0 and self._ends[i - 1] > start:
            return True
        return i < len(self._starts) and self._starts[i] < end

    @property
    def ranges(self) -> list[tuple[int, int]]:
        return [(s, e - s) for s, e in zip(self._starts, self._ends)]

    def __len__(self) -> int:
        return len(self._starts)


@dataclass
class RecoveryReport:
    """What recovery did; returned by :meth:`Database.recover`."""

    #: "normal" | "delete-transaction" | "delete-transaction-view" |
    #: "delete-transaction-combined" | "delete-transaction-writes-only" |
    #: "delete-transaction-logical"
    mode: str
    ck_end: int
    audit_sn: int
    redo_applied: int = 0
    writes_suppressed: int = 0
    deleted_committed: tuple[int, ...] = ()
    rolled_back: tuple[int, ...] = ()
    recruited: dict[int, str] = field(default_factory=dict)
    corrupt_range_count: int = 0
    #: Prepared (in-doubt) 2PC branches the resolver decided: committed
    #: branches get a commit record appended and their effects kept;
    #: aborted (or unresolvable -- presumed abort) branches roll back.
    resolved_committed: tuple[int, ...] = ()
    resolved_aborted: tuple[int, ...] = ()
    #: ``run(until_lsn=...)`` only: user transactions whose commit record
    #: lies at or past the stop -- discarded wholesale with the tail.
    lost_committed: tuple[int, ...] = ()
    #: Where the time went: wall seconds of ``load`` (checkpoint image and
    #: ATT), ``analysis`` (log read, frame verification, finisher set),
    #: ``redo``, ``undo`` and ``finish``, plus ``frames`` walked, the
    #: ``fast_frames`` among them replayed without building a record and
    #: the distinct ``redo_pages`` those frames' after-images dirtied.
    #: Measurement only -- nothing reads it to decide anything, and two
    #: runs that did the same work still compare equal.
    phase_seconds: dict[str, float] = field(default_factory=dict, compare=False)

    @property
    def deleted_set(self) -> set[int]:
        """Committed transactions removed from history (report to user)."""
        return set(self.deleted_committed)


class _RecTxn:
    """A transaction's state as reconstructed during the redo scan."""

    __slots__ = (
        "txn_id",
        "entries",
        "op_stack",
        "corrupt",
        "committed_in_log",
        "reason",
        "is_recovery",
        "prepared",
        "gid",
    )

    def __init__(self, txn_id: int) -> None:
        self.txn_id = txn_id
        self.entries: list = []
        # (op_id, level, object_key, undo_mark)
        self.op_stack: list[tuple[int, int, str, int]] = []
        self.corrupt = False
        self.committed_in_log = False
        self.reason = ""
        self.is_recovery = False
        self.prepared = False
        self.gid = ""


class RestartRecovery:
    """One restart recovery run over a freshly rebuilt database shell."""

    def __init__(
        self,
        db: "Database",
        corruption: CorruptionContext | list[CorruptionContext] | None,
        in_doubt_resolver=None,
    ) -> None:
        self.db = db
        #: ``gid -> bool`` callable consulted for prepared (in-doubt) 2PC
        #: branches found on the log: True means the coordinator decided
        #: commit.  ``None`` or an unknown gid means presumed abort.
        self.in_doubt_resolver = in_doubt_resolver
        if corruption is None:
            contexts: list[CorruptionContext] = []
        elif isinstance(corruption, CorruptionContext):
            contexts = [corruption]
        else:
            contexts = list(corruption)
        self.contexts = contexts
        self.cdt = CorruptDataTable()
        self._txns: dict[int, _RecTxn] = {}
        self._corrupt_keys: set[str] = set()
        self._seq = 1
        self._max_txn_id = 0
        self._unseeded: list[CorruptionContext] = list(contexts)
        self.root_txns: set[int] = set()
        for context in contexts:
            self.root_txns.update(context.root_txns)
        if contexts:
            self.use_checksums = any(c.use_checksums for c in contexts)
            self.combine = any(c.combine_evidence for c in contexts)
            reads_traced = all(c.reads_traced for c in contexts)
            only_logical = bool(self.root_txns) and not any(
                c.corrupt_ranges or c.use_checksums for c in contexts
            )
            if only_logical:
                mode = "delete-transaction-logical"
            elif self.use_checksums and self.combine:
                mode = "delete-transaction-combined"
            elif self.use_checksums:
                mode = "delete-transaction-view"
            elif reads_traced:
                mode = "delete-transaction"
            else:
                # Detection-only schemes crashed into corruption recovery:
                # reads were never logged, so only direct corruption and
                # write/conflict-propagated corruption can be removed.
                # Indirect corruption carried purely through reads is NOT
                # traced -- the paper's reason to pay for read logging.
                mode = "delete-transaction-writes-only"
        else:
            self.use_checksums = False
            self.combine = False
            mode = "normal"
        self.report = RecoveryReport(
            mode=mode,
            ck_end=0,
            audit_sn=max((c.audit_sn for c in contexts), default=0),
        )
        #: Continuous-restore mode only (see :meth:`continuous`): redo
        #: applies codeword maintenance alongside each image restore, so
        #: a replica's table stays incrementally correct between its own
        #: audits.  Plain restart leaves this False -- ``_undo_phase``
        #: rebuilds the table wholesale, so per-record maintenance there
        #: would be wasted work.
        self.maintain_codewords = False
        #: ``(address, length)`` of the first checksum mismatch a standby saw.
        self.first_mismatch: tuple[int, int] | None = None
        self.corruption_mode = bool(contexts)
        #: Whether the CorruptDataTable participates in this scan: pure
        #: checksum mode dispenses with it (Section 4.3), combined mode
        #: keeps it alongside the checksum comparison.
        self._track_cdt = not self.use_checksums or self.combine

    # --------------------------------------------------------------- run

    def run(self, until_lsn: int | None = None) -> RecoveryReport:
        """Run recovery; every phase boundary is a registered crash point.

        ``until_lsn`` stops repeating history there (prior-state recovery,
        Section 4.1): records at or past it are traversed but not applied,
        and everything in flight at the stop is undone -- a crash at
        ``until_lsn``, replayed.

        Recovery is *idempotent* across those points: crashing at any of
        them and re-running converges to a byte-identical image and an
        equivalent report.  Before ``recovery.after_undo`` the stable
        inputs are unchanged (torn-tail truncation is itself idempotent);
        after it, the log additionally carries committed compensation
        transactions, which a re-run replays in its redo phase and then
        skips in its undo phase (lenient logical undo + the rule that
        ``is_recovery`` transactions are never recruited).
        """
        crashpoints = self.db.crashpoints
        with self._timed("load"):
            ck_end = self._load_checkpoint()
        self._seed_due_contexts(ck_end)
        self.replay(ck_end, until_lsn)
        crashpoints.reach("recovery.after_redo")
        with self._timed("undo"):
            self._undo_phase()
        crashpoints.reach("recovery.after_undo")
        with self._timed("finish"):
            self._finish()
        return self.report

    @contextmanager
    def _timed(self, phase: str):
        """Record a phase's wall seconds in ``report.phase_seconds``."""
        began = time.perf_counter()
        try:
            yield
        finally:
            self.report.phase_seconds[phase] = time.perf_counter() - began

    def _resume_counters(self, last_lsn: int) -> None:
        """The system log was reopened in append mode with fresh counters;
        resume LSN, transaction-id and undo-sequence assignment after the
        last stable record."""
        db = self.db
        db.system_log.next_lsn = last_lsn + 1
        db.system_log.end_of_stable_lsn = last_lsn + 1
        db.manager._next_txn_id = self._max_txn_id + 1
        db.manager._next_seq = self._seq + 1

    def _load_checkpoint(self) -> int:
        """Load the anchored image and its ATT; returns ``CK_end``."""
        _image, ck_end, _audit_sn, att_bytes = self.db.checkpointer.load_latest()
        self.report.ck_end = ck_end
        for txn_id, ckpt_txn in ActiveTransactionTable.decode(att_bytes).items():
            rec = _RecTxn(txn_id)
            rec.entries = list(ckpt_txn.undo_log.entries)
            rec.op_stack = list(ckpt_txn.open_ops)
            self._txns[txn_id] = rec
            self._max_txn_id = max(self._max_txn_id, txn_id)
            for entry in rec.entries:
                self._seq = max(self._seq, entry.seq + 1)
        return ck_end

    # ------------------------------------------------- continuous replay

    @classmethod
    def continuous(cls, db: "Database") -> "RestartRecovery":
        """A recovery run driven one shipped batch at a time: the hot standby.

        A replica is a restart recovery that never finishes.  The
        archived checkpoint image is loaded here; the caller then feeds
        every shipped batch's verified frames through :meth:`apply_frames`
        as it arrives, instead of this class scanning a local log;
        :meth:`complete` (promotion) runs the undo/finish tail whenever
        failover demands it.  Replay keeps the replica's codeword table
        incrementally correct (``maintain_codewords``) -- redo bypasses
        the prescribed update interface, so without it the table would
        only match the image at rebuild points and the replica's own
        audits could not convict replica-side wild writes.
        """
        recovery = cls(db, None)
        recovery.maintain_codewords = True
        recovery.use_checksums = True  # first-touch divergence detection
        recovery._load_checkpoint()
        return recovery

    def apply_frames(self, view, frames) -> tuple[int, int] | None:
        """Replay one shipped batch -- ``frames`` walked out of ``view`` --
        through the redo loop, every frame tracked.  Returns ``(address,
        length)`` of the batch's first update whose logged pre-image
        checksum differs from the bytes it overwrote here, or ``None``."""
        self.first_mismatch = None
        self._redo(view, frames, set(), 0, sys.maxsize)
        return self.first_mismatch

    def complete(self, last_lsn: int) -> RecoveryReport:
        """Finish a continuous replay: the promotion tail of :meth:`run`.

        Rolls back transactions still in flight at ``last_lsn`` (the last
        contiguous applied LSN) and takes the recovery checkpoint.  The
        caller must run its certifying sweep *before* this:
        ``_undo_phase`` rebuilds every codeword from the image, which
        would fold existing replica-side corruption into fresh, matching
        codewords and mask it forever.
        """
        self._resume_counters(last_lsn)
        self._undo_phase()
        self._finish()
        return self.report

    def _seed_due_contexts(self, lsn: int) -> None:
        """Seed the CorruptDataTable of every context whose Audit_SN has
        been passed by the scan ("when Audit_LSN is passed", Section 4.3)."""
        if not self._unseeded:
            return
        due = [c for c in self._unseeded if c.audit_sn <= lsn]
        if not due:
            return
        self._unseeded = [c for c in self._unseeded if c.audit_sn > lsn]
        for context in due:
            if context.use_checksums and not context.combine_evidence:
                continue  # checksums replace the CorruptDataTable entirely
            for start, length in context.corrupt_ranges:
                self.cdt.add(start, length)

    # ------------------------------------------------------- redo phase

    def replay(self, from_lsn: int, until_lsn: int | None = None) -> None:
        """Repeat history from the stable log and resume its counters.

        The one scan loop: :meth:`run` and a reopening standby both replay
        through it.  The log is read and its frames verified once; an
        analysis pass names the transactions that finish below the stop,
        and redo applies their records straight from the frame bytes.
        Every other frame goes to its handler in :attr:`_HANDLERS`.
        """
        system_log = self.db.system_log
        stop = sys.maxsize if until_lsn is None else until_lsn
        with self._timed("analysis"):
            # Frames below from_lsn are verified like the rest (the true
            # end of log is last_scanned_lsn, whatever replay skips).
            view = system_log.read_stable()
            frames = system_log.frames(view)
            finished = self._finished_transactions(view, frames, from_lsn, stop)
            self._max_txn_id = max(self._max_txn_id, max(finished, default=0))
        with self._timed("redo"):
            fast, redo_pages = self._redo(view, frames, finished, from_lsn, stop)
        self.report.phase_seconds["frames"] = len(frames)
        self.report.phase_seconds["fast_frames"] = fast
        self.report.phase_seconds["redo_pages"] = redo_pages
        # A crash mid-flush can leave a torn record at the end of the
        # stable log; cut it off before recovery appends anything new.
        system_log.truncate_torn_tail()
        # An empty log (a bootstrapping standby) resumes at from_lsn.
        self._resume_counters(max(system_log.last_scanned_lsn, from_lsn - 1))

    def _finished_transactions(
        self, view, frames, from_lsn: int, stop: int
    ) -> set[int]:
        """Analysis pass: the transactions redo need not be able to undo.

        A transaction whose commit or abort frame lies in ``[from_lsn,
        stop)`` is never rolled back by a plain restart, so the undo log
        redo would rebuild for it is thrown away at that frame.  Not so
        in any delete-transaction mode (a transaction may be recruited at
        any record, and its undo log must exist from its first action),
        for a standby (redo maintains codewords from the pre-images), or
        for a transaction carried in the checkpoint's ATT (its open
        operations and undo log began before ``from_lsn``).
        """
        if self.contexts or self.maintain_codewords:
            return set()
        txn_id_at = TXN_ID.unpack_from
        finished = {
            txn_id_at(view, pos)[0]
            for lsn, code, pos, _end in frames
            if (code == _TXN_COMMIT or code == _TXN_ABORT) and from_lsn <= lsn < stop
        }
        finished.difference_update(self._txns)
        return finished

    def _redo(
        self, view, frames, finished: set[int], from_lsn: int, stop: int
    ) -> tuple[int, int]:
        """Apply ``frames`` in ``[from_lsn, stop)``; returns how many took
        the fast path (records of ``finished`` transactions, replayed from
        the frame bytes with no record, pre-image or undo entry built) and
        how many distinct pages their after-images dirtied.

        The fast path queues each after-image as ``(address, start, end)``
        offsets into ``view`` and stores the queue in log order as one
        :meth:`~repro.mem.memory.MemoryImage.restore_batch`.  The queue is
        applied before any frame goes to its handler (a tracked update reads
        its pre-image from memory), before a malformed log raises, and at
        the end; the undo sequence numbers of the entries not built are
        taken at the same points.
        """
        restore_batch = self.db.memory.restore_batch
        update_head = UPDATE_HEAD.unpack_from
        image_at = UPDATE_HEAD.size
        op_head = OP_HEAD.unpack_from
        txn_id_at = TXN_ID.unpack_from
        handlers = self._HANDLERS
        #: open operation ids per finished transaction: all that is kept of
        #: their op stacks, so an unmatched operation commit still raises
        open_ops: dict[int, list[int]] = {}
        lost: list[int] = []
        recovery_txns: set[int] = set()
        queue: list[tuple[int, int, int]] = []
        enqueue = queue.append
        pages: set[int] = set()
        fast = applied = 0
        skipped = 0  # operation commits whose LogicalUndoEntry was not built

        def apply_queued() -> None:
            nonlocal applied, skipped
            # Each queued update skipped a PhysicalUndo's sequence number.
            self._seq += len(queue) + skipped
            applied += len(queue)
            skipped = 0
            pages.update(restore_batch(view, queue))
            queue.clear()

        # Frames ascend by LSN, so the replayed span is one slice.
        first = bisect.bisect_left(frames, (from_lsn,))
        past_stop = bisect.bisect_left(frames, (stop,), first)
        for lsn, code, pos, end in frames[first:past_stop]:
            if code == _UPDATE:
                txn_id, address, length, _checksum = update_head(view, pos)
                if txn_id in finished:
                    image = pos + image_at
                    enqueue((address, image, image + length))
                    continue
            elif code == _OP_BEGIN or code == _OP_COMMIT:
                txn_id, op_id, _level = op_head(view, pos)
                if txn_id in finished:
                    fast += 1
                    if code == _OP_BEGIN:
                        open_ops.setdefault(txn_id, []).append(op_id)
                        continue
                    ops = open_ops.get(txn_id, ())
                    if op_id not in ops:
                        apply_queued()
                        raise RecoveryError(
                            f"operation commit {op_id} without matching begin "
                            f"(txn {txn_id})"
                        )
                    while ops.pop() != op_id:
                        pass  # operations nested inside it end with it
                    skipped += 1
                    continue
            elif code in _TXN_RECORD_CODES:
                txn_id = txn_id_at(view, pos)[0]
                if txn_id in finished:
                    if code == _TXN_COMMIT or code == _TXN_ABORT:
                        # Whatever the log says of this id from here on is
                        # a new transaction with no end in sight: tracked.
                        finished.discard(txn_id)
                        open_ops.pop(txn_id, None)
                    # Nothing to keep of the rest: reads matter to
                    # corruption tracing only, is_recovery to recruitment,
                    # a prepare to a branch still in doubt.
                    fast += 1
                    continue
            if queue or skipped:
                apply_queued()
            if self._unseeded:
                self._seed_due_contexts(lsn)
            try:
                handler = handlers[code]
            except KeyError:
                raise LogError(f"unknown record type {code}") from None
            handler(self, lsn, view, pos, end)
        apply_queued()
        if applied:
            self.db.meter.charge("redo_apply", applied)
            self.report.redo_applied += applied
        # Past the early stop nothing is applied; the tail still yields the
        # highest transaction id and the commits being lost.  Compensation
        # transactions of an interrupted earlier attempt are not user work.
        for _lsn, code, pos, _end in frames[past_stop:]:
            if code == _TXN_BEGIN:
                txn_id, is_recovery = TXN_BEGIN_HEAD.unpack_from(view, pos)
                self._max_txn_id = max(self._max_txn_id, txn_id)
                if is_recovery:
                    recovery_txns.add(txn_id)
            elif code == _TXN_COMMIT:
                txn_id = txn_id_at(view, pos)[0]
                if txn_id not in recovery_txns:
                    lost.append(txn_id)
        self.report.lost_committed = tuple(sorted(lost))
        return fast + applied, len(pages)

    def _get_txn(self, txn_id: int) -> _RecTxn:
        rec = self._txns.get(txn_id)
        if rec is None:
            rec = _RecTxn(txn_id)
            self._txns[txn_id] = rec
            self._max_txn_id = max(self._max_txn_id, txn_id)
        if txn_id in self.root_txns and not rec.corrupt:
            self._recruit(rec, "user-specified deletion root")
        return rec

    def _recruit(self, rec: _RecTxn, reason: str) -> None:
        """Add a transaction to the CorruptTransTable, freezing its undo.

        Its undo log keeps only actions taken before it first read corrupt
        data; the conflict-key set grows so later operations that would
        block its rollback are recruited too.

        Compensation transactions spawned by an earlier recovery are never
        recruited: they ran against a clean post-undo image, and
        suppressing their writes during an archive replay would leave the
        transactions they compensated half-undone.
        """
        if rec.corrupt or rec.is_recovery:
            return
        rec.corrupt = True
        rec.reason = reason
        self.report.recruited[rec.txn_id] = reason
        for entry in rec.entries:
            if isinstance(entry, LogicalUndoEntry):
                self._corrupt_keys.add(entry.object_key)
        for _op_id, _level, key, _mark in rec.op_stack:
            self._corrupt_keys.add(key)

    # The frame handlers: ``handler(self, lsn, view, pos, end)`` with the
    # payload at ``view[pos:end]`` of a verified frame, one per wire type
    # code in _HANDLERS.  Each unpacks only the fields it acts on; no
    # record object is built.

    def _on_update(self, lsn: int, view, pos: int, end: int) -> None:
        """One pre-image read serves the logged checksum, the undo entry
        and codeword maintenance.  A checksum mismatch recruits the writer
        in corruption mode; a standby notes it in :attr:`first_mismatch`."""
        txn_id, address, length, checksum = UPDATE_HEAD.unpack_from(view, pos)
        rec = self._get_txn(txn_id)
        memory = self.db.memory
        pre_image = memory.read(address, length)
        if (
            self.use_checksums
            and checksum != NO_CHECKSUM
            and not rec.corrupt
            and fold_words(pre_image) != checksum
        ):
            if self.corruption_mode:
                self._recruit(rec, "write checksum mismatch")
            elif self.first_mismatch is None:
                self.first_mismatch = (address, length)
        if (
            self.corruption_mode
            and not rec.corrupt
            and self._track_cdt
            and self.cdt.overlaps(address, length)
        ):
            self._recruit(rec, "wrote data marked corrupt")
        if self.corruption_mode and rec.corrupt:
            # Suppress the write; everything it would have produced is
            # corrupt data.
            if self._track_cdt:
                self.cdt.add(address, length)
            self.report.writes_suppressed += 1
            return
        op_id = rec.op_stack[-1][0] if rec.op_stack else 0
        rec.entries.append(
            PhysicalUndo(self._take_seq(), op_id, address, pre_image, True)
        )
        image = bytes(view[pos + UPDATE_HEAD.size : end])
        memory.restore(address, image)
        if self.maintain_codewords:
            maintainer = getattr(self.db.pipeline, "maintainer", None)
            if maintainer is not None:
                maintainer.apply_maintenance([(address, pre_image, image)])
        self.db.meter.charge("redo_apply")
        self.report.redo_applied += 1

    def _on_read(self, lsn: int, view, pos: int, end: int) -> None:
        if not self.corruption_mode:
            return
        txn_id, address, length, checksum = UPDATE_HEAD.unpack_from(view, pos)
        rec = self._get_txn(txn_id)
        if rec.corrupt:
            return
        if self.use_checksums and checksum != NO_CHECKSUM:
            current = self.db.memory.read(address, length)
            if fold_words(current) != checksum:
                self._recruit(rec, "read checksum mismatch")
                return
        if self._track_cdt and self.cdt.overlaps(address, length):
            self._recruit(rec, "read data marked corrupt")

    def _on_op_begin(self, lsn: int, view, pos: int, end: int) -> None:
        txn_id, op_id, level = OP_HEAD.unpack_from(view, pos)
        rec = self._get_txn(txn_id)
        if self.corruption_mode and rec.corrupt:
            return
        object_key = decode_str(view, pos + OP_HEAD.size)[0]
        if (
            self.corruption_mode
            and object_key in self._corrupt_keys
            and not rec.is_recovery
        ):
            # The operation conflicts with an operation that must be
            # rolled back from a corrupt transaction; it cannot be allowed
            # to proceed in the delete history.  (A recovery transaction's
            # op on that key IS the rollback -- it proceeds.)
            self._recruit(rec, f"conflicts with corrupt undo on {object_key}")
            return
        rec.op_stack.append((op_id, level, object_key, len(rec.entries)))

    def _on_op_commit(self, lsn: int, view, pos: int, end: int) -> None:
        txn_id, op_id, level = OP_HEAD.unpack_from(view, pos)
        rec = self._get_txn(txn_id)
        if self.corruption_mode and rec.corrupt:
            return
        mark = None
        for i in range(len(rec.op_stack) - 1, -1, -1):
            if rec.op_stack[i][0] == op_id:
                mark = rec.op_stack[i][3]
                del rec.op_stack[i:]
                break
        if mark is None:
            raise RecoveryError(
                f"operation commit {op_id} without matching begin (txn {txn_id})"
            )
        del rec.entries[mark:]
        object_key, undo_at = decode_str(view, pos + OP_HEAD.size)
        undo = LogicalUndo.decode(view, undo_at)[0]
        rec.entries.append(
            LogicalUndoEntry(self._take_seq(), op_id, level, object_key, undo)
        )

    def _on_txn_begin(self, lsn: int, view, pos: int, end: int) -> None:
        txn_id, is_recovery = TXN_BEGIN_HEAD.unpack_from(view, pos)
        rec = self._get_txn(txn_id)
        rec.is_recovery = rec.is_recovery or bool(is_recovery)

    def _on_txn_end(self, lsn: int, view, pos: int, end: int) -> None:
        """A commit or abort frame (the type byte precedes the payload)."""
        rec = self._get_txn(TXN_ID.unpack_from(view, pos)[0])
        if self.corruption_mode and rec.corrupt:
            # Commit/abort records of corrupt transactions are ignored;
            # the transaction is deleted from history instead.
            rec.committed_in_log = rec.committed_in_log or view[pos - 1] == _TXN_COMMIT
            return
        self._txns.pop(rec.txn_id, None)

    def _on_prepare(self, lsn: int, view, pos: int, end: int) -> None:
        rec = self._get_txn(TXN_ID.unpack_from(view, pos)[0])
        rec.prepared = True
        rec.gid = decode_str(view, pos + TXN_ID.size)[0]

    def _on_amend(self, lsn: int, view, pos: int, end: int) -> None:
        """An amend record marks the end of a corruption-recovery episode:
        everything corrupt was removed, compensations were logged (as
        is_recovery transactions), and a certified checkpoint followed.
        Heal the CorruptDataTable and the conflict-key set so
        post-recovery transactions that touch the once-corrupt ranges are
        not wrongly recruited during an archive replay, and drop the
        frozen undo logs of corrupt transactions -- the logged
        compensations already undid them; re-running them in this scan's
        undo phase would compensate twice."""
        self.cdt = CorruptDataTable()
        self._corrupt_keys.clear()
        for rec in self._txns.values():
            if rec.corrupt:
                rec.entries.clear()

    def _on_audit(self, lsn: int, view, pos: int, end: int) -> None:
        """Audit brackets change nothing a replay rebuilds."""

    _HANDLERS = {
        _UPDATE: _on_update,
        _READ: _on_read,
        _OP_BEGIN: _on_op_begin,
        _OP_COMMIT: _on_op_commit,
        _TXN_BEGIN: _on_txn_begin,
        _TXN_COMMIT: _on_txn_end,
        _TXN_ABORT: _on_txn_end,
        _TXN_PREPARE: _on_prepare,
        int(RecordType.AMEND): _on_amend,
        int(RecordType.AUDIT_BEGIN): _on_audit,
        int(RecordType.AUDIT_END): _on_audit,
    }

    def _take_seq(self) -> int:
        seq = self._seq
        self._seq += 1
        return seq

    # ------------------------------------------------------- undo phase

    def _resolve_in_doubt(self) -> None:
        """Decide prepared 2PC branches before the undo phase rolls back.

        A branch whose prepare record reached the stable log voted yes and
        must await the coordinator's decision: the resolver (the
        coordinator's durable decision log) answers ``True`` for commit.
        Committing is one appended commit record -- the branch's redo is
        already on the log -- flushed before undo begins, so a crash
        mid-recovery re-resolves to the same outcome (the decision log is
        durable) or finds the branch already ended.  No resolver, or a gid
        the resolver does not know, means presumed abort: the branch falls
        through to the normal rollback below.
        """
        db = self.db
        committed: list[int] = []
        aborted: list[int] = []
        for rec in list(self._txns.values()):
            if not rec.prepared:
                continue
            decide = self.in_doubt_resolver
            if decide is not None and bool(decide(rec.gid)):
                db.system_log.append(TxnCommitRecord(rec.txn_id))
                committed.append(rec.txn_id)
                del self._txns[rec.txn_id]
            else:
                aborted.append(rec.txn_id)
        if committed:
            db.system_log.flush()
        self.report.resolved_committed = tuple(sorted(committed))
        self.report.resolved_aborted = tuple(sorted(aborted))

    def _undo_phase(self) -> None:
        db = self.db
        self._resolve_in_doubt()
        remaining = list(self._txns.values())
        physical: list[tuple[int, PhysicalUndo]] = []
        logical: list[tuple[int, LogicalUndoEntry]] = []
        for rec in remaining:
            for entry in rec.entries:
                if isinstance(entry, PhysicalUndo):
                    physical.append((entry.seq, entry))
                else:
                    logical.append((entry.seq, entry))
        # Level 0 first: physical before-images, newest first, below the
        # protection scheme (codewords are rebuilt afterwards).
        for _seq, entry in sorted(physical, key=lambda p: -p[0]):
            db.memory.restore(entry.address, entry.image)
            db.meter.charge("undo_apply")
        # Codewords now match the post-physical-undo image; hardware
        # protection re-covers the pages.
        db.scheme.startup()
        # Level-0 state is consistent, logical compensation has not begun;
        # everything so far was volatile, so a crash here re-runs from the
        # same stable inputs.
        db.crashpoints.reach("recovery.mid_undo")
        # Higher levels: execute logical undo operations through the full
        # prescribed machinery, newest first.  Each runs in its own
        # recovery transaction so locks release immediately.
        for _seq, entry in sorted(logical, key=lambda p: -p[0]):
            if entry.undo.op_name == "noop":
                continue
            rtxn = db.manager.begin(is_recovery=True)
            db._dispatch_logical_undo(rtxn, entry.undo, lenient=True)
            db.manager.commit(rtxn)
        deleted = sorted(
            rec.txn_id for rec in remaining if rec.corrupt and rec.committed_in_log
        )
        rolled_back = sorted(
            rec.txn_id
            for rec in remaining
            if not (rec.corrupt and rec.committed_in_log)
        )
        self.report.deleted_committed = tuple(deleted)
        self.report.rolled_back = tuple(rolled_back)
        self.report.corrupt_range_count = len(self.cdt)

    # ------------------------------------------------------------ finish

    def _finish(self) -> None:
        """Amend the log, then checkpoint so a further crash cannot
        rediscover the corruption."""
        db = self.db
        db.crashpoints.reach("recovery.pre_complete")
        self._write_amendments()
        db.memory.dirty_pages.mark_all_dirty(db.memory.iter_pages())
        # Corruption recovery must certify the whole image, not just the
        # dirty working set an incremental audit mode would fold.
        result = db.checkpointer.checkpoint(force_full_audit=True)
        if not result.certified:
            raise RecoveryError(
                "post-recovery checkpoint failed its audit; the image is "
                "still corrupt"
            )
        note = db.path(CORRUPTION_NOTE_FILE)
        if os.path.exists(note):
            os.remove(note)

    def _write_amendments(self) -> None:
        """Append AmendRecords preserving this recovery's corruption
        contexts, so archives taken before the corruption stay valid
        (Section 4.3's omitted "log may be amended" scheme).

        Only written when the recovery actually changed history (deleted
        a committed transaction or suppressed writes) -- a clean
        delete-transaction pass is replay-equivalent to the raw log.
        """
        changed_history = bool(self.report.deleted_committed) or (
            self.report.writes_suppressed > 0
        )
        if not changed_history:
            return
        for context in self.contexts:
            if context.from_amendment:
                continue  # already on the log from a previous recovery
            self.db.system_log.append(
                AmendRecord(
                    txn_id=0,
                    corrupt_ranges=tuple(context.corrupt_ranges),
                    audit_sn=context.audit_sn,
                    use_checksums=context.use_checksums,
                    root_txns=tuple(context.root_txns),
                )
            )
        self.db.system_log.flush()
