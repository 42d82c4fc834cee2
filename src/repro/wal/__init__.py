"""Logging subsystem: record codec, local per-transaction logs, system log."""

from repro.wal.records import (
    AuditBeginRecord,
    AuditEndRecord,
    LogRecord,
    LogicalUndo,
    OpBeginRecord,
    OpCommitRecord,
    ReadRecord,
    TxnAbortRecord,
    TxnBeginRecord,
    TxnCommitRecord,
    UpdateRecord,
)
from repro.wal.local_log import LocalRedoLog, LogicalUndoEntry, PhysicalUndo, UndoLog
from repro.wal.system_log import SystemLog

__all__ = [
    "LogRecord",
    "UpdateRecord",
    "ReadRecord",
    "OpBeginRecord",
    "OpCommitRecord",
    "TxnBeginRecord",
    "TxnCommitRecord",
    "TxnAbortRecord",
    "AuditBeginRecord",
    "AuditEndRecord",
    "LogicalUndo",
    "PhysicalUndo",
    "LogicalUndoEntry",
    "UndoLog",
    "LocalRedoLog",
    "SystemLog",
]
