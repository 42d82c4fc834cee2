"""Exception hierarchy for the repro storage manager.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch one base class at an API boundary.  Corruption-related
conditions carry enough structure (addresses, region ids, transaction ids)
for the recovery machinery to act on them programmatically.

Every error also answers one question a caller can act on without
inspecting its type: **is retrying this operation safe and potentially
useful?**  ``exc.retryable`` is ``True`` exactly when (a) the failed
operation left no partial durable effect the caller could double-apply
by retrying, and (b) the condition is transient -- load, contention, or
a shard that the supervisor is already bringing back.  The full
classification contract lives in ``docs/errors.md``.
"""

from __future__ import annotations

import copyreg


class ReproError(Exception):
    """Base class for all errors raised by the repro package.

    ``retryable`` is a class-level default; see :class:`RetryableError`
    for the conditions under which a subclass (or an instance -- the
    attribute may be overridden per raise) advertises ``True``.
    """

    #: Whether retrying the failed operation is safe and potentially
    #: useful.  ``False`` by default: unknown errors must not be retried
    #: blindly (the operation may have partially applied).
    retryable = False

    def __reduce__(self):
        # Errors cross the shard worker pipe as pickled objects.  Default
        # exception pickling re-calls ``type(self)(*self.args)``, which
        # breaks for every subclass whose constructor takes structured
        # arguments and formats its own message; rebuild without
        # ``__init__`` instead: class, ``args``, then instance attributes.
        return (copyreg.__newobj__, (type(self), *self.args), self.__dict__ or None)


class RetryableError(ReproError):
    """Marker base for transient errors that are safe to retry.

    A subclass promises two things: the failed operation left **no
    durable effect** that a retry could double-apply, and the condition
    is **transient** -- backing off and retrying (possibly after the
    supervisor repairs a shard) can succeed.  A serving
    :class:`~repro.serve.protocol.Response` carries the error and reads
    this flag off it (``Response.retryable``), so remote clients get the
    same contract without type introspection.
    """

    retryable = True


class ConfigError(ReproError):
    """Invalid configuration (bad region size, page size, scheme name...)."""


class MemoryError_(ReproError):
    """Address-space violation inside the simulated memory image."""


class OutOfSpaceError(MemoryError_):
    """A segment or allocator has no room for the requested allocation."""


class ProtectionFault(ReproError):
    """A write hit a hardware-protected page (simulated mprotect trap).

    Under the Hardware Protection scheme this is the SIGSEGV-equivalent:
    the offending write is *not* performed.
    """

    def __init__(self, address: int, length: int, page_id: int):
        super().__init__(
            f"write of {length} bytes at address {address:#x} trapped on "
            f"protected page {page_id}"
        )
        self.address = address
        self.length = length
        self.page_id = page_id


class CorruptionDetected(ReproError):
    """A codeword check failed: region content no longer matches codeword."""

    def __init__(self, region_ids: list[int], context: str = ""):
        ids = ", ".join(str(r) for r in region_ids)
        suffix = f" during {context}" if context else ""
        super().__init__(f"codeword mismatch in region(s) [{ids}]{suffix}")
        self.region_ids = list(region_ids)
        self.context = context


class AuditFailure(CorruptionDetected):
    """An asynchronous audit found corrupt regions.

    Carries the log sequence number of the last *clean* audit (``Audit_SN``
    in the paper) so corruption recovery knows the window in which the
    error could have occurred.
    """

    def __init__(self, region_ids: list[int], clean_audit_lsn: int):
        super().__init__(region_ids, context="audit")
        self.clean_audit_lsn = clean_audit_lsn


class QuarantinedRegionError(CorruptionDetected):
    """A prescribed read touched a region held in quarantine.

    Under ``DBConfig(quarantine=True)`` a failed audit or precheck places
    the corrupt regions in a quarantine set instead of aborting the
    system; a later read overlapping a quarantined region raises this
    (or triggers a transparent repair under ``quarantine_repair=True``)
    so known-corrupt bytes are never served as data.  Subclasses
    :class:`CorruptionDetected` so existing handlers keep working.

    Deliberately **not** retryable: the bytes stay corrupt until a
    repair runs, so an immediate retry hits the same quarantine.  Run
    (or wait for) ``repair_quarantined()``, then retry.
    """

    def __init__(self, region_ids: list[int], address: int = 0, length: int = 0):
        super().__init__(list(region_ids), context="quarantined read")
        self.address = address
        self.length = length


class SimulatedCrash(ReproError):
    """An armed crash point fired (deterministic fault testing).

    Raised by :class:`~repro.faults.crashpoints.CrashPointRegistry` when
    execution reaches an armed point; carries the point name and the hit
    count at which it fired so tests can assert exactly where the
    simulated process died.  Callers are expected to treat the exception
    as a process death: call :meth:`Database.crash` and recover.
    """

    def __init__(self, point: str, hit: int = 1):
        super().__init__(f"simulated crash at {point!r} (hit {hit})")
        self.point = point
        self.hit = hit


class LatchError(ReproError):
    """Latch misuse: double release, upgrade deadlock, wrong owner."""


class LockError(ReproError):
    """Logical lock misuse or (in tests) an induced lock conflict.

    A *conflict* (another transaction holds the key) is transient --
    the lock manager is non-blocking, nothing was acquired, and the
    holder will finish -- so lock errors are retryable.  Misuse (bad
    duration string) shares the class but is caught in development.

    Conflicts carry the holding transaction id (``holder_txn_id``) so
    the cross-shard deadlock detector can build wait-for edges.
    """

    retryable = True

    def __init__(self, message: str, holder_txn_id: int | None = None):
        super().__init__(message)
        self.holder_txn_id = holder_txn_id


class TransactionError(ReproError):
    """Transaction state machine violation (e.g. update after commit)."""


class TransactionAborted(TransactionError):
    """The transaction was rolled back; carries the abort reason."""

    def __init__(self, txn_id: int, reason: str):
        super().__init__(f"transaction {txn_id} aborted: {reason}")
        self.txn_id = txn_id
        self.reason = reason


class LogError(ReproError):
    """Log codec or sequencing error (bad record, LSN out of order...)."""


class RecoveryError(ReproError):
    """Restart or corruption recovery could not complete."""


class CheckpointError(ReproError):
    """Checkpoint could not be written or certified."""


class ArchiveError(RecoveryError):
    """An archive could not be created or read.

    Typed (rather than a bare :class:`RecoveryError` message) so campaign
    scoring can classify "the checkpoint under the archive failed
    certification" as a detection, not a schedule error.
    """


class ReplicationError(ReproError):
    """Log shipping or replica replay failed (bad batch, seq/LSN gap...)."""


class DivergenceDetected(CorruptionDetected):
    """The replica's codeword digest disagrees with the primary's.

    Carries the replay epoch (the primary checkpoint's ``CK_end``), the
    mismatched region ids and the classification the
    :class:`~repro.replication.divergence.DivergenceDetector` assigned:
    ``"primary"`` (replica self-audit clean -- the primary's content
    moved), ``"replica"`` (the replica's own audit convicts the region)
    or ``"both"``.
    """

    def __init__(self, region_ids: list[int], ck_end: int, classification: str):
        super().__init__(list(region_ids), context=f"digest epoch {ck_end}")
        self.ck_end = ck_end
        self.classification = classification


class PromotionError(ReplicationError):
    """Failover could not certify the replica's image.

    Carries the failed :class:`~repro.core.audit.AuditReport` so the
    caller can quarantine/repair and retry the promotion.
    """

    def __init__(self, message: str, audit_report=None):
        super().__init__(message)
        self.audit_report = audit_report


class WorkloadError(ReproError):
    """Benchmark workload misconfiguration."""


class ServeError(ReproError):
    """Serving front-end misuse (closed session, unknown op...)."""


class BackpressureError(RetryableError, ServeError):
    """The server's admission queue is full; retry after backoff.

    Raised to the *submitting* client instead of growing the queue
    without bound -- the server sheds load at admission, it does not
    melt down under it.  Retryable: the request was never admitted,
    so nothing was applied.
    """



class ShardError(ReproError):
    """Shard router/worker failure (dead worker, routing misuse...)."""


class TwoPhaseCommitError(ShardError):
    """A cross-shard transaction could not reach a consistent outcome
    in this round trip.

    Two very different conditions share the type, told apart by
    ``committed``:

    * ``committed=False`` -- presumed abort.  No decision was made
      durable, every prepared branch rolls back (now or at that
      shard's restart), so the *whole transaction* is safe to retry:
      ``retryable`` is ``True``.
    * ``committed=True`` -- the decision log holds the commit but
      delivering it to some participant failed.  The transaction IS
      committed; retrying it would apply it twice, so ``retryable``
      is ``False``.  Under supervision this state never surfaces: the
      :class:`~repro.shard.coordinator.Coordinator` queues the
      undelivered decision, the supervisor's ticks complete it, and the
      caller sees success.
    """

    def __init__(
        self,
        message: str,
        gid: str | None = None,
        committed: bool = False,
        undelivered: tuple[int, ...] = (),
    ):
        super().__init__(message)
        self.gid = gid
        self.committed = committed
        #: Shard ids still owed the commit decision (``committed=True``).
        self.undelivered = tuple(undelivered)
        self.retryable = not committed


class ShardUnavailableError(RetryableError, ShardError):
    """The shard is down, hung, or mid-recovery; fail fast and retry.

    Raised *instead of blocking on a dead worker pipe*: the supervisor
    marks a crashed/hung shard and every routed call to it returns this
    immediately until the shard's recovery certifies and it rejoins.
    Nothing was applied (the call never reached a serving shard), so
    the error is retryable; surviving shards keep serving throughout.
    """

    def __init__(self, shard_id: int, state: str, detail: str = ""):
        suffix = f": {detail}" if detail else ""
        super().__init__(f"shard {shard_id} is {state}{suffix}")
        self.shard_id = shard_id
        self.state = state


class ShardTimeoutError(ShardUnavailableError):
    """A shard call exceeded its deadline; the worker is presumed hung.

    The pipe to the worker is poisoned by the timeout (a late reply
    would desynchronize the FIFO), so the supervisor restarts the
    worker exactly as if it had died.  The timed-out call's outcome is
    *indeterminate* until that restart recovery runs -- uncommitted
    work rolls back, which is what makes the error safe to mark
    retryable at the transaction level.
    """

    def __init__(self, shard_id: int, timeout_s: float):
        ShardError.__init__(
            self,
            f"shard {shard_id} did not answer within {timeout_s:.3f}s; "
            "worker presumed hung, pipe poisoned",
        )
        self.shard_id = shard_id
        self.state = "hung"
        self.timeout_s = timeout_s


class PartialDrainError(RetryableError, ShardError):
    """A supervised pipelined drain lost part of its backlog to a dead
    or hung shard.

    The answers that did arrive are in ``results`` (in submission order
    per shard, surviving shards complete); ``lost`` maps each crashed
    shard id to the number of its un-acked submissions whose outcome is
    now *indeterminate* until that shard's restart recovery settles
    them (committed work replays, the rest rolls back).  Raised instead
    of silently returning a shorter list so a caller correlating drain
    results with ``submit_txn_nowait`` calls can tell exactly which
    transactions need the outcome-check-then-retry discipline.
    Retryable at the session level: the shards are being restarted by
    the supervisor.
    """

    def __init__(self, results: list, lost: dict):
        total = sum(lost.values())
        super().__init__(
            f"drain lost the un-acked backlog of shard(s) "
            f"{sorted(lost)}: {total} submission(s) indeterminate until "
            "restart recovery settles them"
        )
        self.results = results
        self.lost = dict(lost)


class DeadlockError(RetryableError, ShardError):
    """A cross-shard wait-for cycle convicted this session (youngest
    victim).  Its open branches are rolled back on every shard; the
    whole transaction is safe to retry and the surviving sessions in
    the cycle proceed.
    """

    def __init__(self, victim: int, cycle: tuple[int, ...]):
        chain = " -> ".join(str(s) for s in cycle)
        super().__init__(
            f"session {victim} aborted to break cross-shard deadlock "
            f"cycle [{chain}]"
        )
        self.victim = victim
        self.cycle = tuple(cycle)
