"""Read Logging (Section 4.2) on top of the Data Codeword scheme.

"When a data item is read, the identity of that item is added to the
transaction log ... the data logged consists of the identity of the item
and an optional checksum of the value, but not the value itself."

Read records migrate to the system log with the rest of an operation's
records (a read outside any operation goes there directly), turning the
log into a limited audit trail: given a set of corrupt regions,
corruption recovery (the delete-transaction model, Section 4.3) can
trace which transactions *read* corrupt data and therefore which writes
carried the corruption onward.

With ``log_checksums`` enabled, read records (and, via the
``old_checksum`` field of update records, which the pipeline fills as a
window closes, writes treated as read-then-write) carry a fold of the
value read.  That upgrade makes recovery *view-consistent* instead of
conflict-consistent and lets a restart after a genuine crash detect
corruption that occurred after the last audit (Section 4.3, "Codewords
in Read Log Records").
"""

from __future__ import annotations

from repro.core.data_codeword import DataCodewordScheme
from repro.mem.memory import MemoryImage
from repro.sim.clock import Meter
from repro.txn.transaction import Transaction


class ReadLoggingScheme(DataCodewordScheme):
    """Data Codeword plus per-read identity (and optional checksum) logging."""

    name = "read_logging"
    indirect_protection = "detect+correct"
    logs_reads = True

    def __init__(self, region_size: int = 65536, log_checksums: bool = False) -> None:
        super().__init__(region_size)
        self.log_checksums = log_checksums
        if log_checksums:
            self.name = "cw_read_logging"
        self.read_records_logged = 0

    @property
    def logs_read_checksums(self) -> bool:  # type: ignore[override]
        return self.log_checksums

    def attach(self, memory: MemoryImage, meter: Meter) -> None:
        super().attach(memory, meter)
        self._charge_read = meter.counter("readlog_record", "readlog_byte")

    def on_read(self, txn: Transaction, address: int, length: int) -> None:
        """Pack the read's frame where it will live: the transaction's
        redo arena inside an operation (it migrates at the operation's
        commit), else straight into the system log tail -- the order an
        immediate migration gave.  A scheme no manager bound keeps it in
        the arena."""
        checksum = None
        if self.log_checksums:
            checksum = self.maintainer.checksum_of(self.memory.read(address, length))
        log = self.system_log
        if txn.op_stack or log is None:
            log = txn.redo_log
        size = log.append_read(txn.txn_id, address, length, checksum)
        self.read_records_logged += 1
        self._charge_read(1, size)
