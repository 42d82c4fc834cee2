"""Logical corruption repair: delete user-named transactions and their taint.

The paper's abstract promises that read logging "may also prove useful
when resolving problems caused by incorrect data entry and other logical
errors", and Section 7 sketches the idea: a transaction that entered bad
data (a fat-fingered deposit, a buggy application) is *logical* corruption
-- codewords cannot detect it, but once a human identifies the offending
transaction, the same delete-transaction machinery can remove it and
everything it tainted.

:func:`delete_transactions` runs delete-transaction recovery with the
named transactions as *roots*: every root is recruited into the
CorruptTransTable at its first log record, its writes are suppressed (and
their ranges poisoned), and any transaction that later read those ranges
is recruited transitively -- exactly the Section 4.3 algorithm, seeded by
a human instead of a failed audit.

Checksums cannot help here (the bad values were written through the
prescribed interface, so every checksum matches); tracing is always
CorruptDataTable-based and the result is a conflict-consistent delete
history.  Read logging (either variant) must have been enabled while the
bad transactions ran, or reads cannot be traced.

:func:`trace_readers` is the read-only companion: an audit-trail query
that reports which transactions read given byte ranges, without changing
anything.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.errors import RecoveryError
from repro.recovery.restart import CorruptionContext, RecoveryReport
from repro.wal.records import ReadRecord

if TYPE_CHECKING:  # pragma: no cover
    from repro.storage.database import Database, DBConfig


def delete_transactions(
    config: "DBConfig", txn_ids: Iterable[int], crashpoints=None
) -> tuple["Database", RecoveryReport]:
    """Delete committed transactions (and their taint) from history.

    The database must already be crashed or closed (recovery rebuilds it
    from the directory).  Returns the recovered database and a report
    whose ``deleted_set`` contains the roots plus every transaction
    recruited transitively through the read log.  ``crashpoints`` arms
    recovery crash points exactly as for :meth:`Database.recover`; a
    crashed run is simply re-run with the same roots.
    """
    from repro.storage.database import Database

    roots = tuple(sorted(set(txn_ids)))
    if not roots:
        raise RecoveryError("no transactions named for deletion")
    db = Database._open_shell(config, crashpoints)
    if not getattr(db.scheme, "logs_reads", False):
        raise RecoveryError(
            "logical deletion needs read logging (scheme 'read_logging' or "
            "'cw_read_logging'): without read records the taint of "
            f"{roots} cannot be traced"
        )
    context = CorruptionContext(
        corrupt_ranges=(),
        audit_sn=0,
        use_checksums=False,  # checksums match legitimate-but-wrong values
        reads_traced=True,
        root_txns=roots,
    )
    return db, db._run_recovery(context)


def trace_readers(
    db: "Database", ranges: list[tuple[int, int]], from_lsn: int = 0
) -> dict[int, list[tuple[int, int, int]]]:
    """Audit-trail query: which transactions read the given byte ranges?

    Scans the stable log (and the in-memory tail) for read records
    overlapping ``(start, length)`` ranges; returns
    ``{txn_id: [(lsn, address, length), ...]}``.  Purely informational --
    the Bjork-style audit trail the paper says read logging provides.
    """

    def overlaps(address: int, length: int) -> bool:
        for start, span in ranges:
            if address < start + span and start < address + length:
                return True
        return False

    hits: dict[int, list[tuple[int, int, int]]] = {}
    def note(lsn: int, record) -> None:
        if isinstance(record, ReadRecord) and overlaps(record.address, record.length):
            hits.setdefault(record.txn_id, []).append(
                (lsn, record.address, record.length)
            )

    for lsn, record in db.system_log.scan(from_lsn, only=(ReadRecord,)):
        note(lsn, record)
    for lsn, record in db.system_log.tail:
        if lsn >= from_lsn:
            note(lsn, record)
    return hits
