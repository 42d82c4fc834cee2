"""The log shipper: streaming stable-log frames to a hot standby.

The shipper runs on the primary and owns the replication session state:
which LSN ships next, which batches are in flight, and which digest
epochs are waiting their turn.  Its contract with the transport is
deliberately weak -- batches may be dropped, duplicated, reordered or
torn -- and the protocol recovers from all four:

* every batch carries a sequence number and a CRC (transport layer) and
  RECORDS payloads keep their per-frame CRCs (end-to-end layer);
* the in-flight window is bounded: at most ``window`` unacknowledged
  batches, which also bounds the lost-commit window at failover to
  ``window * batch_records`` records;
* acks are cumulative (the replica's ``expected_seq``); an unacked batch
  is retransmitted after ``timeout_pumps`` pump cycles, with capped
  exponential backoff so a torn channel is not flooded;
* the replica drops duplicates by sequence number and by LSN, so
  retransmit-after-partial-delivery converges instead of double-applying.

Digest epochs are sequenced, not raced: a digest published at ``CK_end``
is sent only once every frame below ``CK_end`` has been handed to the
transport, and frame export never reads past the earliest pending epoch.
The replica therefore evaluates each epoch at exactly the state the
primary certified.

The pump is a program point, not a thread: the campaign and the serving
integration call :meth:`LogShipper.pump` after commits and checkpoints.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ReplicationError
from repro.replication.transport import (
    KIND_DIGEST,
    KIND_RECORDS,
    ShipBatch,
    ShipTransport,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.replication.replica import Replica
    from repro.storage.database import Database


@dataclass
class _InFlight:
    batch: ShipBatch
    deadline: int  # pump count at which an unacked batch retransmits
    attempts: int = 0


class LogShipper:
    """Ships one primary's stable log to one replica over one transport."""

    def __init__(
        self,
        db: "Database",
        transport: ShipTransport,
        replica: "Replica",
        *,
        window: int = 4,
        batch_records: int = 16,
        timeout_pumps: int = 2,
        backoff_cap: int = 8,
    ) -> None:
        self.db = db
        self.transport = transport
        self.replica = replica
        self.window = max(1, window)
        self.batch_records = max(1, batch_records)
        self.timeout_pumps = max(1, timeout_pumps)
        self.backoff_cap = max(self.timeout_pumps, backoff_cap)
        self._next_seq = replica.expected_seq
        self._next_lsn = replica.next_lsn
        self._in_flight: dict[int, _InFlight] = {}
        #: Published digest epochs waiting to be sequenced into the
        #: stream: ``(ck_end, payload, region_count)`` in epoch order.
        self._digests: deque[tuple[int, bytes, int]] = deque()
        self.pumps = 0
        self.batches_shipped = 0
        self.records_shipped = 0
        self.digests_shipped = 0
        self.retransmits = 0
        # Certified checkpoints publish their epoch digests through the
        # auditor; the shipper sequences them into the ship stream.
        db.auditor.digest_listeners.append(self._on_digest_epoch)

    # ------------------------------------------------------------- intake

    def _on_digest_epoch(self, ck_end: int, digests) -> None:
        payload = np.asarray(digests, dtype="<u4").tobytes()
        self._digests.append((ck_end, payload, len(digests)))

    @property
    def in_flight(self) -> int:
        return len(self._in_flight)

    @property
    def lost_window_bound(self) -> int:
        """Worst-case records lost if the primary dies right now: the
        whole unacked window."""
        return self.window * self.batch_records

    # --------------------------------------------------------------- pump

    def pump(self) -> int:
        """One replication cycle; returns the replica's cumulative ack.

        Deliver whatever the network is carrying, absorb the ack,
        retransmit what timed out (with capped exponential backoff), then
        refill the in-flight window from the stable log and the pending
        digest queue.
        """
        self.pumps += 1
        replica = self.replica
        for raw in self.transport.deliver():
            replica.receive(raw)
        acked = replica.acked_seq
        for seq in [s for s in self._in_flight if s < acked]:
            del self._in_flight[seq]
        for seq in sorted(self._in_flight):
            entry = self._in_flight[seq]
            if self.pumps >= entry.deadline:
                entry.attempts += 1
                backoff = min(
                    self.backoff_cap, self.timeout_pumps << entry.attempts
                )
                entry.deadline = self.pumps + backoff
                self.transport.send(entry.batch)
                self.retransmits += 1
        while len(self._in_flight) < self.window:
            batch = self._next_batch()
            if batch is None:
                break
            self._in_flight[batch.seq] = _InFlight(
                batch, self.pumps + self.timeout_pumps
            )
            self.transport.send(batch)
            self.batches_shipped += 1
            if batch.kind == KIND_RECORDS:
                self.records_shipped += batch.record_count
            else:
                self.digests_shipped += 1
        return replica.acked_seq

    def _next_batch(self) -> ShipBatch | None:
        """The next batch in stream order: frames first, then the epoch.

        A pending digest for ``CK_end`` acts as a barrier: frame export
        never reads at or past it, and the digest itself goes out only
        when every frame below it has shipped -- so the digest arrives
        when the replica's ``next_lsn`` is exactly ``CK_end``.
        """
        if self._digests:
            ck_end, payload, count = self._digests[0]
            if self._next_lsn >= ck_end:
                self._digests.popleft()
                seq = self._next_seq
                self._next_seq += 1
                return ShipBatch(seq, KIND_DIGEST, ck_end, count, payload)
            barrier: int | None = ck_end
        else:
            barrier = None
        payload, first_lsn, count = self.db.system_log.export_frames(
            self._next_lsn, max_records=self.batch_records, up_to_lsn=barrier
        )
        if count == 0:
            return None
        if first_lsn != self._next_lsn:
            raise ReplicationError(
                f"ship gap: next frame to ship is LSN {self._next_lsn} but "
                f"the stable log starts at {first_lsn} (truncated past the "
                "replication horizon?)"
            )
        self._next_lsn = first_lsn + count  # LSNs are dense
        seq = self._next_seq
        self._next_seq += 1
        return ShipBatch(seq, KIND_RECORDS, first_lsn, count, payload)

    # -------------------------------------------------------- maintenance

    def drain(self, max_pumps: int = 1000) -> bool:
        """Pump until the replica has acked everything stable; True on
        success, False if the budget ran out (a dead transport)."""
        for _ in range(max_pumps):
            if self.caught_up:
                return True
            self.pump()
        return self.caught_up

    @property
    def caught_up(self) -> bool:
        return (
            not self._in_flight
            and not self._digests
            and self.transport.in_network == 0
            and self._next_lsn >= self.db.system_log.end_of_stable_lsn
        )

    def resync(self, replica: "Replica | None" = None) -> None:
        """Restart the ship session against a (re)opened replica.

        Everything unacked is forgotten -- the replica's durable state is
        the truth, so shipping resumes at its ``next_lsn`` and sequence
        numbers restart at its ``expected_seq``.  Pending digest epochs
        the replica has already replayed past are dropped: their
        comparison point is gone (the epoch holds only at exactly
        ``next_lsn == CK_end``).
        """
        if replica is not None:
            self.replica = replica
        self._in_flight.clear()
        self._next_seq = self.replica.expected_seq
        self._next_lsn = self.replica.next_lsn
        while self._digests and self._digests[0][0] < self._next_lsn:
            self._digests.popleft()
        # Anything still riding the old session's network is garbage to
        # the new session (stale seqs); flush it.
        self.transport.deliver()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LogShipper(next_lsn={self._next_lsn}, seq={self._next_seq}, "
            f"in_flight={len(self._in_flight)}, pumps={self.pumps}, "
            f"retransmits={self.retransmits})"
        )
