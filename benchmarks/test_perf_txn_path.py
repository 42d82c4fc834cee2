"""Wall-clock benchmark of the transaction write path.

Three measurements, written to ``BENCH_txn.json`` at the repo root:

* **log_lifecycle** -- the tentpole gate.  A TPC-B-flavoured stream of
  transactions (begin, a few updates, commit) driven through the stable
  log's full lifecycle: batched append + flush every round, periodic
  ``stable_record_count`` + ``truncate_before`` reclamation, and a final
  recovery-style scan.  The baseline is the seed implementation copied
  inline below: per-record ``bytes``-join encoding, per-record meter
  charges, O(file) decode -> re-encode truncation and O(file) record
  counting -- exactly the pathologies the batched codec, byte-splice
  truncate and cached counter remove.  Required speedup: >= 5x; each
  side's best of three runs, the two sides alternated.
* **codec** -- pure encode/decode subscores (no file I/O), gated only at
  parity (> 1x): ``pack_record`` (LSN slot included) against the seed
  encoder, ``walk_frames`` + ``decode_payload`` against the seed
  decoder.  Frame building is cheap relative to CPython dataclass
  construction, so most of the lifecycle win comes from batching and the
  O(file) -> O(1)/O(suffix) rewrites, not raw codec arithmetic.
* **commit_path / incremental_audit** -- commits/sec under group-commit
  windows of 1 vs 8, and audit latency vs dirty-set size against a full
  sweep (virtual ns makes the scaling deterministic; wall time is
  reported for flavour).
* **lock_release** -- the serving-era fast path.  With many concurrent
  sessions' grants resident in one lock table, releasing a transaction
  must be O(locks held), not O(lock table).  The baseline is the
  pre-index release copied inline below (full-table scan + per-key list
  rebuild); the gate requires the reverse-indexed release to beat it.
  A second arm holds the lock table's other promise: an operation
  commit's ``release_operation`` costs the same at the 500th operation of
  a transaction as at the 10th (it walked every held key before the
  per-(txn, op) key lists; the ratio was ~30).

* **recovery.replay** -- restart redo's fast path.  ``replay()`` over a
  generated log whose transactions all commit (analysis names every one
  a finisher; their frames are applied without a handler call) against
  the same records with the commit frames left off (nobody finishes:
  every frame goes to its handler, is tracked and given an undo entry,
  which is what redo did for every transaction before).  Records/s of
  both, gated on their ratio, and a census of each: Python calls per
  replayed record under ``cProfile``, gated like the op census.

* **recovery.repair** -- in-place region repair (the cache-recovery
  model).  ``repair_regions`` over k = 1 / 8 / 64 wild-written 256-byte
  regions of a table whose stable log holds ``REPAIR_UPDATES`` committed
  updates past the checkpoint.  Gated: exactly one
  ``SystemLog.read_stable`` call per repair, whatever k (one walk of the
  live log serves every region; it was walked once per region).  The
  repair's wall seconds at each k are reported, not gated.

* **shard.round_trip** -- the shard pipe's transport.  One command tuple
  echoed through a worker process over :class:`repro.shard.worker.Channel`
  (one framed write, buffered reads) against the same echo over the
  ``multiprocessing`` ``Connection.send`` / ``recv`` it replaced, copied
  inline below.  Both sides run pinned to one CPU in alternated pairs;
  the best time of each side is reported and the median pair's ratio is
  gated.

* **census** -- Python calls per op under ``cProfile``: 1 000 seeded ops
  of the paper, readmix and served op shapes of the end-to-end benchmark
  (``benchmarks/e2e``'s shapes and load generator, used read-only), after
  1 000 warm-up ops.  A count does not depend on how busy the machine
  is, so it can be gated where wall-clock ratios cannot: each must stay
  within 10 % of the count this tree measured on Python 3.11.

* **opcodes** -- the exact ruler under the census: bytecodes per op
  (``sys.settrace`` with opcode events) and C calls per op
  (``sys.setprofile``) over 200 of the census's seeded ops after its
  warm-up, on the driving thread, with the totals over those ops by
  function, by file and by builtin (the function table sums exactly).  Also
  the bytecodes of one ``Table.insert`` and of one lookup + ``Table.update``
  of the paper shape after the warm-up.  Gated like the census at 10 % over
  ``OPCODES_MEASURED``, keyed by Python minor version since the bytecode
  differs between minors; a version with no entry reports ungated.

* **latch_memory** -- the bytes ``repro/txn/latches.py`` still holds
  (``tracemalloc``) after the census's seeded drives, load included:
  latches have state only while held, so each shape must retain at most
  ``LATCH_MEMORY_GATE`` bytes however many regions it latched (the
  object-per-key design it replaced kept ~580 B per key ever latched, in
  each of two tables).  Also reported, not gated: an uncontended
  acquire/release pair in each mode against ``SeedLatch``, that design's
  latch copied inline below.

``TXN_BENCH_QUICK=1`` shrinks the workload and relaxes the lifecycle
gate for CI smoke runs (the census runs the same ops either way).
"""

from __future__ import annotations

import cProfile
import gc
import json
import os
import platform
import pstats
import struct
import sys
import threading
import time
import tracemalloc
import zlib
from collections import defaultdict
from functools import partial

import pytest

from benchmarks.e2e import loadgen, shapes
from benchmarks.e2e.workloads import workload
from repro import Database, DBConfig, Field, FieldType, Schema
from repro.errors import LatchError
from repro.recovery.cache_recovery import repair_regions
from repro.recovery.restart import RestartRecovery
from repro.shard.shard import _mp_context
from repro.shard.worker import Channel
from repro.sim.clock import Meter, VirtualClock
from repro.sim.costs import DEFAULT_COSTS
from repro.txn import latches as latches_module
from repro.txn.latches import EXCLUSIVE, SHARED, Latch, LatchTable
from repro.txn.locks import LockManager, LockMode
from repro.wal.records import (
    LogicalUndo,
    OpBeginRecord,
    OpCommitRecord,
    RecordType,
    TxnBeginRecord,
    TxnCommitRecord,
    UpdateRecord,
    decode_payload,
    pack_record,
)
from repro.wal.system_log import SystemLog, walk_frames

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_PATH = os.path.join(REPO_ROOT, "BENCH_txn.json")

QUICK = os.environ.get("TXN_BENCH_QUICK") == "1"
ROUNDS = 12 if QUICK else 120
TXNS_PER_ROUND = 10 if QUICK else 30
UPDATES_PER_TXN = 3
RECLAIM_EVERY = 4 if QUICK else 8
COMMIT_TXNS = 80 if QUICK else 400
REQUIRED_LIFECYCLE_SPEEDUP = 2.0 if QUICK else 5.0
REQUIRED_CODEC_SPEEDUP = 1.0

_LSN = struct.Struct("<Q")
_OPT_NONE = 0xFFFFFFFFFFFFFFFF

ACCT_SCHEMA = Schema(
    [
        Field("id", FieldType.INT64),
        Field("balance", FieldType.INT64),
        Field("name", FieldType.CHAR, 16),
    ]
)

# --------------------------------------------------------------------------
# Seed baseline, copied inline: per-record codec and the original
# SystemLog write/scan/truncate/count logic (restricted to the record
# types the workload uses, with the original chain order and copies).
# --------------------------------------------------------------------------


def _seed_encode(record) -> bytes:
    if isinstance(record, UpdateRecord):
        rtype = RecordType.UPDATE
        payload = (
            struct.pack("<QqI", record.txn_id, record.address, len(record.image))
            + struct.pack(
                "<Q",
                _OPT_NONE if record.old_checksum is None else record.old_checksum,
            )
            + record.image
        )
    elif isinstance(record, TxnBeginRecord):
        rtype = RecordType.TXN_BEGIN
        payload = struct.pack("<QB", record.txn_id, int(record.is_recovery))
    elif isinstance(record, TxnCommitRecord):
        rtype = RecordType.TXN_COMMIT
        payload = struct.pack("<Q", record.txn_id)
    else:  # pragma: no cover - workload only uses the three types above
        raise TypeError(type(record).__name__)
    body = bytes([rtype]) + payload
    crc = zlib.crc32(body) & 0xFFFFFFFF
    return struct.pack("<I", len(body)) + body + struct.pack("<I", crc)


def _seed_decode(data: bytes, offset: int):
    (body_len,) = struct.unpack_from("<I", data, offset)
    offset += 4
    body = data[offset : offset + body_len]
    offset += body_len
    (crc,) = struct.unpack_from("<I", data, offset)
    offset += 4
    if zlib.crc32(body) & 0xFFFFFFFF != crc:
        raise ValueError("crc")
    rtype = RecordType(body[0])
    payload = body[1:]
    if rtype == RecordType.UPDATE:
        txn_id, address, image_len = struct.unpack_from("<QqI", payload, 0)
        (raw,) = struct.unpack_from("<Q", payload, 20)
        image = bytes(payload[28 : 28 + image_len])
        return UpdateRecord(txn_id, address, image, None if raw == _OPT_NONE else raw), offset
    if rtype == RecordType.TXN_BEGIN:
        txn_id, is_recovery = struct.unpack_from("<QB", payload, 0)
        return TxnBeginRecord(txn_id, bool(is_recovery)), offset
    txn_id = struct.unpack_from("<Q", payload, 0)[0]
    return TxnCommitRecord(txn_id), offset


class SeedLog:
    """The pre-batching SystemLog, inlined as the lifecycle baseline."""

    def __init__(self, path: str, meter: Meter) -> None:
        self.path = path
        self.meter = meter
        self.latch = Latch("seed_log")
        self.tail = []
        self.next_lsn = 0
        self.end_of_stable_lsn = 0
        self._file = open(path, "ab")

    def extend(self, records) -> None:
        for record in records:
            lsn = self.next_lsn
            self.next_lsn += 1
            self.tail.append((lsn, record))
            self.meter.charge("log_record")
            self.meter.charge("log_byte", record.approx_size())

    def flush(self) -> int:
        with self.latch.exclusive():
            self.meter.charge("latch_pair")
            if not self.tail:
                return self.end_of_stable_lsn
            self.meter.charge("flush_fixed")
            chunks = []
            byte_count = 0
            for lsn, record in self.tail:
                encoded = _LSN.pack(lsn) + _seed_encode(record)
                chunks.append(encoded)
                byte_count += len(encoded)
            self._file.write(b"".join(chunks))
            self._file.flush()
            self.meter.charge("flush_byte", byte_count)
            self.end_of_stable_lsn = self.tail[-1][0] + 1
            self.tail.clear()
            return self.end_of_stable_lsn

    def scan(self, from_lsn: int = 0):
        with open(self.path, "rb") as handle:
            data = handle.read()
        offset = 0
        while offset < len(data):
            (lsn,) = _LSN.unpack_from(data, offset)
            record, offset = _seed_decode(data, offset + 8)
            if lsn >= from_lsn:
                yield lsn, record

    def truncate_before(self, lsn: int) -> int:
        kept = []
        removed = 0
        for record_lsn, record in self.scan(0):
            if record_lsn < lsn:
                removed += 1
            else:
                kept.append(_LSN.pack(record_lsn) + _seed_encode(record))
        if removed == 0:
            return 0
        self._file.close()
        with open(self.path, "wb") as handle:
            handle.write(b"".join(kept))
        self._file = open(self.path, "ab")
        return removed

    @property
    def stable_record_count(self) -> int:
        return sum(1 for _ in self.scan())

    def close(self) -> None:
        self._file.close()


class SeedReleaseLockManager(LockManager):
    """The pre-index release, inlined as the lock-table baseline.

    Acquire/conflict logic is inherited; only the release paths revert
    to the original full-table scan with per-key list rebuilds.  The
    reverse index is kept consistent so inherited invariants hold, but
    the scans below never consult it -- exactly the seed cost model.
    """

    def release_operation(self, txn_id: int, op_id: int) -> None:
        with self._mutex:
            for key in list(self._table):
                grants = self._table[key]
                grants[:] = [
                    g
                    for g in grants
                    if not (
                        g.txn_id == txn_id and g.duration == "op" and g.op_id == op_id
                    )
                ]
                if not grants:
                    del self._table[key]
                    self._txn_keys.get(txn_id, set()).discard(key)

    def release_all(self, txn_id: int) -> None:
        with self._mutex:
            for key in list(self._table):
                grants = self._table[key]
                grants[:] = [g for g in grants if g.txn_id != txn_id]
                if not grants:
                    del self._table[key]
            self._txn_keys.pop(txn_id, None)


# --------------------------------------------------------------------------
# Workload
# --------------------------------------------------------------------------


def _txn_records(txn_id: int):
    image = (txn_id % 251).to_bytes(1, "little") * 32
    records = [TxnBeginRecord(txn_id)]
    for i in range(UPDATES_PER_TXN):
        records.append(UpdateRecord(txn_id, 4096 * i + (txn_id % 64) * 32, image))
    records.append(TxnCommitRecord(txn_id))
    return records


def _run_lifecycle(log) -> int:
    """Drive one full stable-log lifecycle; returns records seen by the
    final recovery-style scan (identical for both implementations)."""
    txn_id = 0
    for round_no in range(ROUNDS):
        batch = []
        for _ in range(TXNS_PER_ROUND):
            batch.extend(_txn_records(txn_id))
            txn_id += 1
        log.extend(batch)
        log.flush()
        if round_no % RECLAIM_EVERY == RECLAIM_EVERY - 1:
            _ = log.stable_record_count  # monitoring probe, O(file) in seed
            log.truncate_before(log.next_lsn // 2)  # checkpoint reclamation
    return sum(1 for _ in log.scan())


def _best_of(callable_, repeats: int):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = callable_()
        best = min(best, time.perf_counter() - start)
    return best, result


def _make_meter() -> Meter:
    return Meter(VirtualClock(), DEFAULT_COSTS)


def _make_db(tmp_path, name, **config_kwargs) -> Database:
    db = Database(DBConfig(dir=str(tmp_path / name), **config_kwargs))
    db.create_table("acct", ACCT_SCHEMA, 256, key_field="id")
    db.start()
    txn = db.begin()
    table = db.table("acct")
    for i in range(64):
        table.insert(txn, {"id": i, "balance": 100, "name": f"a{i}"})
    db.commit(txn)
    return db


# --------------------------------------------------------------------------
# Benchmark fixtures
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def lifecycle_results(tmp_path_factory) -> dict:
    base = tmp_path_factory.mktemp("txnbench")

    def seed_run():
        log = SeedLog(str(base / "seed.log"), _make_meter())
        try:
            return _run_lifecycle(log)
        finally:
            log.close()
            os.remove(log.path)

    def batched_run():
        log = SystemLog(str(base / "batched.log"), _make_meter())
        try:
            return _run_lifecycle(log)
        finally:
            log.close()
            os.remove(log.path)

    # Best of three, the two sides alternated so a spell of contention on
    # a shared box slows both rather than one.
    seed_s = batched_s = float("inf")
    for _ in range(3):
        seed_once, seed_count = _best_of(seed_run, 1)
        batched_once, batched_count = _best_of(batched_run, 1)
        seed_s, batched_s = min(seed_s, seed_once), min(batched_s, batched_once)
    assert seed_count == batched_count  # same surviving suffix either way
    records = ROUNDS * TXNS_PER_ROUND * (UPDATES_PER_TXN + 2)
    return {
        "rounds": ROUNDS,
        "records_appended": records,
        "reclaim_every": RECLAIM_EVERY,
        "seed_s": seed_s,
        "batched_s": batched_s,
        "speedup": seed_s / batched_s,
        "final_scan_records": batched_count,
    }


@pytest.fixture(scope="module")
def codec_results() -> dict:
    records = []
    for txn_id in range(2000 if QUICK else 8000):
        records.extend(_txn_records(txn_id))

    def seed_encode_all():
        return b"".join(_seed_encode(r) for r in records)

    def batched_encode_all():
        buf = bytearray()
        for lsn, record in enumerate(records):
            pack_record(record, buf, lsn)
        return buf

    repeats = 5 if QUICK else 9
    encode_seed_s, blob = _best_of(seed_encode_all, repeats)
    encode_new_s, buf = _best_of(batched_encode_all, repeats)
    # Byte-identical framing; the new side also writes each LSN slot.
    assert bytes(buf) == b"".join(
        _LSN.pack(lsn) + _seed_encode(record) for lsn, record in enumerate(records)
    )

    def seed_decode_all():
        out = []
        offset = 0
        while offset < len(blob):
            record, offset = _seed_decode(blob, offset)
            out.append(record)
        return out

    def batched_decode_all():
        view = memoryview(buf)
        return [
            decode_payload(code, view, pos, end)
            for _lsn, code, pos, end in walk_frames(view)
        ]

    decode_seed_s, seed_records = _best_of(seed_decode_all, repeats)
    decode_new_s, new_records = _best_of(batched_decode_all, repeats)
    assert seed_records == new_records
    return {
        "records": len(records),
        "bytes": len(blob),
        "encode": {
            "seed_s": encode_seed_s,
            "batched_s": encode_new_s,
            "speedup": encode_seed_s / encode_new_s,
        },
        "decode": {
            "seed_s": decode_seed_s,
            "batched_s": decode_new_s,
            "speedup": decode_seed_s / decode_new_s,
        },
    }


@pytest.fixture(scope="module")
def commit_results(tmp_path_factory) -> dict:
    base = tmp_path_factory.mktemp("commitbench")
    entries = {}
    for window in (1, 8):
        db = _make_db(base, f"gc{window}", scheme="baseline", group_commit_size=window)
        table = db.table("acct")
        db.manager.flush_commits()
        flush_before = db.meter.counts["flush_fixed"]

        start = time.perf_counter()
        for i in range(COMMIT_TXNS):
            txn = db.begin()
            table.update(txn, i % 64, {"balance": 100 + i})
            db.commit(txn)
        db.manager.flush_commits()
        wall_s = time.perf_counter() - start

        entries[f"group_commit_{window}"] = {
            "txns": COMMIT_TXNS,
            "wall_s": wall_s,
            "commits_per_sec": COMMIT_TXNS / wall_s,
            "flush_fixed": db.meter.counts["flush_fixed"] - flush_before,
        }
        db.close()
    return entries


LOCK_BG_SESSIONS = 16 if QUICK else 64
LOCK_KEYS_PER_SESSION = 4
LOCK_HOT_KEYS = 4
LOCK_CYCLES = 200 if QUICK else 1000
REQUIRED_LOCK_RELEASE_SPEEDUP = 1.2 if QUICK else 2.0
LONG_TXN_OPS = (10, 500)  # operations per transaction, short vs long
LONG_TXN_TOTAL_OPS = 1000 if QUICK else 5000
LONG_TXN_LOCKS_PER_OP = 3
MAX_LONG_TXN_RELEASE_RATIO = 2.0


def _release_operation_us_per_op(ops_per_txn: int) -> float:
    """Mean time inside ``release_operation`` over ``LONG_TXN_TOTAL_OPS``
    operations, each taking ``LONG_TXN_LOCKS_PER_OP`` txn-duration row
    locks and one op-duration lock (the TPC-B operation's shape)."""
    locks = LockManager()
    spent = 0.0
    op_id = 0
    for txn_id in range(1, LONG_TXN_TOTAL_OPS // ops_per_txn + 1):
        for _ in range(ops_per_txn):
            op_id += 1
            for k in range(LONG_TXN_LOCKS_PER_OP):
                locks.acquire(txn_id, f"row:{op_id}:{k}", LockMode.EXCLUSIVE, op_id=op_id)
            locks.acquire(
                txn_id, "allocator", LockMode.EXCLUSIVE, duration="op", op_id=op_id
            )
            start = time.perf_counter()
            locks.release_operation(txn_id, op_id)
            spent += time.perf_counter() - start
        assert len(locks.locks_held(txn_id)) == ops_per_txn * LONG_TXN_LOCKS_PER_OP
        locks.release_all(txn_id)
    return spent / op_id * 1e6


@pytest.fixture(scope="module")
def lock_release_results() -> dict:
    """Time the hot transaction's release cycle against a populated table.

    ``LOCK_BG_SESSIONS`` resident sessions each hold
    ``LOCK_KEYS_PER_SESSION`` private txn-duration grants -- the steady
    state of the concurrent serving front-end.  The hot transaction then
    runs acquire/release cycles; the seed baseline pays O(table) per
    release, the indexed path O(locks held).
    """

    def populate(locks) -> None:
        for session in range(LOCK_BG_SESSIONS):
            txn_id = 1000 + session
            for k in range(LOCK_KEYS_PER_SESSION):
                locks.acquire(txn_id, f"bg:{session}:{k}", LockMode.EXCLUSIVE)

    def cycle(locks) -> None:
        hot = 7
        for i in range(LOCK_CYCLES):
            for k in range(LOCK_HOT_KEYS):
                locks.acquire(hot, f"hot:{k}", LockMode.EXCLUSIVE)
            locks.acquire(hot, "hot:op", LockMode.EXCLUSIVE, duration="op", op_id=i)
            locks.release_operation(hot, i)
            locks.release_all(hot)

    entries = {}
    for label, factory in (("seed", SeedReleaseLockManager), ("indexed", LockManager)):
        locks = factory()
        populate(locks)
        wall_s, _ = _best_of(lambda locks=locks: cycle(locks), 3)
        # The baseline must not have shed the resident grants; otherwise
        # it timed an empty table.
        assert len(locks._table) == LOCK_BG_SESSIONS * LOCK_KEYS_PER_SESSION
        entries[label] = wall_s
    short_us, long_us = (
        min(_release_operation_us_per_op(ops) for _ in range(3))
        for ops in LONG_TXN_OPS
    )
    return {
        "background_sessions": LOCK_BG_SESSIONS,
        "resident_grants": LOCK_BG_SESSIONS * LOCK_KEYS_PER_SESSION,
        "hot_keys": LOCK_HOT_KEYS,
        "cycles": LOCK_CYCLES,
        "seed_s": entries["seed"],
        "indexed_s": entries["indexed"],
        "speedup": entries["seed"] / entries["indexed"],
        "long_transaction": {
            "locks_per_op": LONG_TXN_LOCKS_PER_OP,
            "total_ops": LONG_TXN_TOTAL_OPS,
            "ops_per_txn": list(LONG_TXN_OPS),
            "release_operation_us_per_op": [short_us, long_us],
            "ratio": long_us / short_us,
        },
    }


REPLAY_TXNS = 22 if QUICK else 220
REPLAY_OPS_PER_TXN = 50
REPLAY_UPDATES_PER_OP = 7  # a TPC-B operation logs 6-7 update records
#: Fast-path records/s over tracked records/s must stay at least this far
#: apart.  Ten full runs on a contended 2-core box read 2.4-3.5 (fast
#: 350-530 k records/s, tracked 110-170 k; best of three each); five quick
#: runs, 2.2-2.9.  The verified frame walk is in both and bounds the ratio.
REQUIRED_REPLAY_RATIO = 1.5 if QUICK else 2.0
#: Python calls per replayed record under ``cProfile`` (the census's
#: measure; the log is generated, so the count does not depend on the
#: machine), measured on Python 3.11 on the full-size logs and gated at
#: ``CENSUS_SLACK`` over; the quick logs read 6.2 / 22.1.  Before tracked
#: frames went to the handler table (a record decoded, then dispatched
#: through an ``isinstance`` chain), tracked replay read 32.0.
REPLAY_CENSUS_MEASURED = {"fast": 6.0, "tracked": 22.0}


def _replay_records(txn_id: int, addresses: list[int], commit: bool):
    """One transaction of ``REPLAY_OPS_PER_TXN`` operations in the paper
    workload's shape: operation begin, 32-byte updates, operation commit
    carrying a logical undo."""
    image = (txn_id % 251).to_bytes(1, "little") * 32
    undo = LogicalUndo("write_fields", ("acct", 0, image))
    records = [TxnBeginRecord(txn_id)]
    for op in range(REPLAY_OPS_PER_TXN):
        op_id = txn_id * REPLAY_OPS_PER_TXN + op
        records.append(OpBeginRecord(txn_id, op_id, 1, "acct:0"))
        for i in range(REPLAY_UPDATES_PER_OP):
            address = addresses[(op_id + i) % len(addresses)]
            records.append(UpdateRecord(txn_id, address, image))
        records.append(OpCommitRecord(txn_id, op_id, 1, "acct:0", undo))
    if commit:
        records.append(TxnCommitRecord(txn_id))
    return records


def _replay_records_per_s(
    base, name: str, commit: bool
) -> tuple[float, int, int, float]:
    """Crash a database whose stable log holds ``REPLAY_TXNS`` generated
    transactions, then time ``replay()`` alone on fresh shells; returns
    the best records/s of three, the record count, the fast frames and
    the Python calls per record of one more replay under ``cProfile``."""
    db = _make_db(base, name, scheme="data_cw")
    db.checkpoint()  # replay starts at the generated transactions
    config = db.config
    table = db.table("acct")
    addresses = [table.record_address(slot) for slot in range(64)]
    first = db.manager._next_txn_id
    for txn_id in range(first, first + REPLAY_TXNS):
        db.system_log.extend(_replay_records(txn_id, addresses, commit))
        db.system_log.flush()
    db.crash()
    best = float("inf")
    for _ in range(3):
        shell = Database._open_shell(config)
        recovery = RestartRecovery(shell, None)
        ck_end = recovery._load_checkpoint()
        start = time.perf_counter()
        recovery.replay(ck_end)
        best = min(best, time.perf_counter() - start)
        phases = recovery.report.phase_seconds
        shell.crash()
    records = REPLAY_TXNS * len(_replay_records(0, addresses, commit))
    assert recovery.report.redo_applied == (
        REPLAY_TXNS * REPLAY_OPS_PER_TXN * REPLAY_UPDATES_PER_OP
    )
    shell = Database._open_shell(config)
    recovery = RestartRecovery(shell, None)
    ck_end = recovery._load_checkpoint()
    profile = cProfile.Profile()
    profile.enable()
    try:
        recovery.replay(ck_end)
    finally:
        profile.disable()
        shell.crash()
    calls = pstats.Stats(profile).total_calls / records
    return records / best, records, int(phases["fast_frames"]), calls


@pytest.fixture(scope="module")
def replay_results(tmp_path_factory) -> dict:
    base = tmp_path_factory.mktemp("replaybench")
    fast, records, fast_frames, fast_calls = _replay_records_per_s(
        base, "finished", True
    )
    tracked, tracked_records, none_fast, tracked_calls = _replay_records_per_s(
        base, "open", False
    )
    assert fast_frames == records and none_fast == 0
    return {
        "transactions": REPLAY_TXNS,
        "records": records,
        "fast_records_per_s": fast,
        "tracked_records": tracked_records,
        "tracked_records_per_s": tracked,
        "ratio": fast / tracked,
        "calls_per_record": {
            "fast": round(fast_calls, 1),
            "tracked": round(tracked_calls, 1),
        },
        "calls_gate": {
            name: round(CENSUS_SLACK * count, 1)
            for name, count in REPLAY_CENSUS_MEASURED.items()
        },
    }


@pytest.fixture(scope="module")
def audit_results(tmp_path_factory) -> dict:
    db = _make_db(
        tmp_path_factory.mktemp("auditbench"),
        "adb",
        scheme="data_cw",
        scheme_params={"region_size": 256},
        full_sweep_every=10**6,
    )
    maintainer = db.pipeline.maintainer
    table = db.pipeline.codeword_table

    def timed_audit(dirty_count):
        maintainer.clear_dirty()
        maintainer.dirty_regions.update(range(dirty_count))
        db.auditor._dirty_audits_since_sweep = 0
        virtual_before = db.meter.clock.now_ns

        def run():
            maintainer.dirty_regions.update(range(dirty_count))
            return db.audit()

        wall_s, report = _best_of(run, 3)
        assert report.clean
        return {
            "dirty_regions": dirty_count,
            "regions_checked": report.regions_checked,
            "wall_s": wall_s,
            "virtual_ns": db.meter.clock.now_ns - virtual_before,
        }

    dirty_entries = [timed_audit(n) for n in (1, 8, 64) if n <= table.region_count]

    virtual_before = db.meter.clock.now_ns
    full_wall_s, full_report = _best_of(lambda: db.auditor.run(), 3)
    results = {
        "region_count": table.region_count,
        "dirty": dirty_entries,
        "full_sweep": {
            "regions_checked": full_report.regions_checked,
            "wall_s": full_wall_s,
            "virtual_ns": db.meter.clock.now_ns - virtual_before,
        },
    }
    db.close()
    return results


REPAIR_UPDATES = 2000 if QUICK else 20000
REPAIR_UPDATES_PER_TXN = 10
REPAIR_ACCOUNTS = 1024  # 32-byte records: 128 regions of 256 bytes
REPAIR_REGION_COUNTS = (1, 8, 64)
#: ``SystemLog.read_stable`` calls per ``repair_regions`` call.
REPAIR_READS_GATE = 1


def _repair_results(base) -> dict:
    """Time ``repair_regions`` over k wild-written regions, best of three
    at each k, counting the stable-log reads each call makes."""
    db = Database(
        DBConfig(
            dir=str(base / "repair"),
            scheme="data_cw",
            scheme_params={"region_size": 256},
            full_sweep_every=10**6,
        )
    )
    db.create_table("acct", ACCT_SCHEMA, REPAIR_ACCOUNTS, key_field="id")
    db.start()
    table = db.table("acct")
    txn = db.begin()
    slots = [
        table.insert(txn, {"id": i, "balance": 100, "name": f"a{i}"})
        for i in range(REPAIR_ACCOUNTS)
    ]
    db.commit(txn)
    db.checkpoint()
    for first in range(0, REPAIR_UPDATES, REPAIR_UPDATES_PER_TXN):
        txn = db.begin()
        for n in range(first, first + REPAIR_UPDATES_PER_TXN):
            table.update(txn, slots[n * 7 % REPAIR_ACCOUNTS], {"balance": n})
        db.commit(txn)
    codewords = db.pipeline.codeword_table
    low = codewords.region_of(table.record_address(slots[0]))
    high = codewords.region_of(table.record_address(slots[-1]))
    log = db.system_log
    stable_bytes = len(log.read_stable())
    read_stable = log.read_stable
    reads = [0]

    def counting_read_stable():
        reads[0] += 1
        return read_stable()

    log.read_stable = counting_read_stable
    arms = []
    for k in REPAIR_REGION_COUNTS:
        regions = [low + i * (high - low) // k for i in range(k)]
        clean = {r: db.memory.read(*codewords.region_bounds(r)) for r in regions}
        best, calls = float("inf"), set()
        for _ in range(3):
            for region in regions:
                start = codewords.region_bounds(region)[0]
                db.memory.poke(start, bytes(b ^ 0xFF for b in clean[region][:4]))
            reads[0] = 0
            began = time.perf_counter()
            repaired = repair_regions(db, regions)
            best = min(best, time.perf_counter() - began)
            calls.add(reads[0])
            assert repaired == k
            assert all(
                db.memory.read(*codewords.region_bounds(r)) == clean[r] for r in regions
            )
        arms.append(
            {"regions": k, "read_stable_calls": max(calls), "repair_s": best}
        )
    db.close()
    return {
        "updates": REPAIR_UPDATES,
        "stable_log_bytes": stable_bytes,
        "region_size": 256,
        "arms": arms,
        "read_stable_gate": REPAIR_READS_GATE,
    }


@pytest.fixture(scope="module")
def repair_results(tmp_path_factory) -> dict:
    return _repair_results(tmp_path_factory.mktemp("repairbench"))


ROUND_TRIPS = 200 if QUICK else 300
ROUND_TRIP_PAIRS = 11 if QUICK else 21
#: Median over alternated pairs of Connection-echo time over channel-echo
#: time.  On a contended 2-vCPU box six quick runs read 1.44-1.50, while
#: ratios of single best-of-N samples spread from 1.0 to 2.4.
REQUIRED_ROUND_TRIP_SPEEDUP = 1.2 if QUICK else 1.3
#: A routed data op, as ``ShardRouter`` sends it.
ECHO_COMMAND = ("apply", 17, "add", "account", 4242, {"balance": -30})


def _connection_echo(conn) -> None:
    """The replaced transport: ``Connection.send`` / ``recv``."""
    while (cmd := conn.recv()) is not None:
        conn.send(("ok", cmd))
    conn.close()


def _channel_echo(conn) -> None:
    channel = Channel(conn)
    while (cmd := channel.recv()) is not None:
        channel.send(("ok", cmd))
    channel.close()


class _EchoWorker:
    """A worker process echoing commands back over one pipe end."""

    def __init__(self, target, framed: bool) -> None:
        ctx = _mp_context()
        parent, child = ctx.Pipe()
        self._proc = ctx.Process(target=target, args=(child,), daemon=True)
        self._proc.start()
        child.close()
        self.end = Channel(parent) if framed else parent

    def round_trips_us(self, count: int) -> float:
        end = self.end
        start = time.perf_counter()
        for _ in range(count):
            end.send(ECHO_COMMAND)
            reply = end.recv()
        elapsed = time.perf_counter() - start
        assert reply == ("ok", ECHO_COMMAND)
        return elapsed / count * 1e6

    def close(self) -> None:
        self.end.send(None)
        self._proc.join(timeout=10)
        self.end.close()


@pytest.fixture(scope="module")
def round_trip_results() -> dict:
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})  # the workers inherit the pin
    try:
        connection = _EchoWorker(_connection_echo, framed=False)
        channel = _EchoWorker(_channel_echo, framed=True)
        try:
            pairs = []
            for n in range(ROUND_TRIP_PAIRS):
                sides = (connection, channel) if n % 2 else (channel, connection)
                timed = {side: side.round_trips_us(ROUND_TRIPS) for side in sides}
                pairs.append((timed[connection], timed[channel]))
        finally:
            connection.close()
            channel.close()
    finally:
        os.sched_setaffinity(0, cpus)
    ratios = sorted(c / f for c, f in pairs)
    return {
        "round_trips": ROUND_TRIPS,
        "pairs": ROUND_TRIP_PAIRS,
        "connection_us_best": min(c for c, _ in pairs),
        "channel_us_best": min(f for _, f in pairs),
        "speedup": ratios[len(ratios) // 2],
    }


# --------------------------------------------------------------------------
# census: deterministic Python calls per op
# --------------------------------------------------------------------------

CENSUS_SHAPES = {
    "paper": "embedded_paper_datacw",
    "readmix": "embedded_readmix_strict",
    "served": "served_short_datacw",
}
CENSUS_WARMUP_OPS = 1000
CENSUS_OPS = 1000
CENSUS_SEED = 1
#: Calls per op measured on Python 3.11.7; a count may grow 10 % past it
#: before the gate fails.  Before log records were packed as frames where
#: they are made, the counts were 1 737 / 2 008 / 2 374; before an update
#: window ran in one manager call, 1 236 / 1 280 / 1 770; before the
#: codeword table kept one delta loop, 1 086 / 1 195 / 1 612; before a
#: precheck of a region nobody holds folded under the latch table's
#: mutex instead of an acquire / release pair, 1 051 / 1 169 / 1 560.
CENSUS_MEASURED = {"paper": 1051, "readmix": 1059, "served": 1541}
CENSUS_SLACK = 1.10


def _seeded_shape(tmp_path, workload_name: str):
    """The census drive: the workload's shape created and loaded, its
    seeded warm-up + measured ops, and a function that runs a chunk of
    them through the shape's client, ``ops_per_txn`` to a transaction."""
    spec = workload(workload_name)
    ops = loadgen.generate(spec, CENSUS_SEED, CENSUS_WARMUP_OPS + CENSUS_OPS)
    shape = shapes.shape_class(spec).create(
        spec, str(tmp_path / workload_name), len(ops) + loadgen.MIX_BLOCK
    )
    client = shape.client()

    def drive(chunk) -> None:
        for start in range(0, len(chunk), spec.ops_per_txn):
            client.begin()
            for op in chunk[start : start + spec.ops_per_txn]:
                client.apply(op)
            client.commit()

    return shape, ops, drive


def _census_calls_per_op(tmp_path, workload_name: str) -> float:
    shape, ops, drive = _seeded_shape(tmp_path, workload_name)
    try:
        drive(ops[:CENSUS_WARMUP_OPS])
        profile = cProfile.Profile()
        profile.enable()
        try:
            drive(ops[CENSUS_WARMUP_OPS:])
        finally:
            profile.disable()
    finally:
        shape.close()
    return pstats.Stats(profile).total_calls / CENSUS_OPS


@pytest.fixture(scope="module")
def census_results(tmp_path_factory) -> dict:
    base = tmp_path_factory.mktemp("census")
    calls = {
        name: round(_census_calls_per_op(base, workload_name), 1)
        for name, workload_name in CENSUS_SHAPES.items()
    }
    return {
        "warmup_ops": CENSUS_WARMUP_OPS,
        "ops": CENSUS_OPS,
        "seed": CENSUS_SEED,
        "python": platform.python_version(),
        "calls_per_op": calls,
        "gate": {
            name: round(CENSUS_SLACK * count) for name, count in CENSUS_MEASURED.items()
        },
    }


# --------------------------------------------------------------------------
# opcodes: deterministic bytecodes and C calls per op
# --------------------------------------------------------------------------

OPCODE_OPS = 200
#: Bytecodes and C calls per op of each census shape, keyed by Python
#: minor version (the bytecode differs between minors); each may grow
#: ``CENSUS_SLACK`` past its count before the gate fails.  A version with
#: no entry reports its counts without a gate.  ``per_call`` holds the
#: bytecodes of one ``Table.insert`` and of one lookup + ``Table.update``
#: of the paper shape after the warm-up.  Python 3.11.7; before the meter
#: kept only counts (its clock advanced on every charge) the bytecodes
#: read 22 380 / 28 981 / 31 930, and before an update window ran in one
#: manager call 21 504 / 27 333 / 30 858 (C calls 663 / 690 / 930; per
#: call 9 119 / 4 046), and before the codeword table kept one delta loop
#: 19 231 / 25 880 / 28 405 (C calls 609 / 660 / 867; per call 7 734 /
#: 3 750), and before hot sites charged through compiled meter counters
#: and a precheck of a free region folded under the latch table's mutex
#: 19 140 / 25 711 / 28 074 (C calls 597 / 650 / 848; per call 7 607 /
#: 3 762).
OPCODES_MEASURED = {
    "3.11": {
        "paper": {"bytecodes": 18203, "c_calls": 597},
        "readmix": {"bytecodes": 21738, "c_calls": 564},
        "served": {"bytecodes": 26941, "c_calls": 829},
        "per_call": {"insert": 7373, "lookup_update": 3528},
    },
}


def _code_name(code) -> str:
    """``file:qualname``: the file relative to ``src/`` or the repo root,
    or its bare name when it lies outside the repo (the standard library)."""
    path = os.path.relpath(code.co_filename, REPO_ROOT)
    if path.startswith(os.pardir):
        path = os.path.basename(path)
    elif path.startswith("src" + os.sep):
        path = path[len("src" + os.sep) :]
    return f"{path}:{getattr(code, 'co_qualname', code.co_name)}"


def _builtin_name(function) -> str:
    module = getattr(function, "__module__", None)
    qualname = getattr(function, "__qualname__", type(function).__qualname__)
    return f"{module}.{qualname}" if module else qualname


def _opcode_census(tmp_path, workload_name: str) -> dict:
    """Bytecodes per op by function (``sys.settrace`` with opcode events)
    and C calls per op by builtin (``sys.setprofile``) over ``OPCODE_OPS``
    seeded ops after the census warm-up, on the driving thread."""
    shape, ops, drive = _seeded_shape(tmp_path, workload_name)
    bytecodes: dict = defaultdict(int)
    c_calls: dict = defaultdict(int)

    def on_opcode(frame, event, _arg):
        if event == "opcode":
            bytecodes[frame.f_code] += 1
        return on_opcode

    def on_call(frame, _event, _arg):
        frame.f_trace_opcodes = True
        return on_opcode

    def on_profile(_frame, event, arg):
        if event == "c_call":
            c_calls[_builtin_name(arg)] += 1

    try:
        drive(ops[:CENSUS_WARMUP_OPS])
        measured = ops[CENSUS_WARMUP_OPS : CENSUS_WARMUP_OPS + OPCODE_OPS]
        sys.setprofile(on_profile)
        sys.settrace(on_call)
        try:
            drive(measured)
        finally:
            sys.settrace(None)
            sys.setprofile(None)
    finally:
        shape.close()
    by_function: dict[str, int] = defaultdict(int)
    for code, count in bytecodes.items():
        by_function[_code_name(code)] += count
    by_file: dict[str, int] = defaultdict(int)
    for name, count in by_function.items():
        by_file[name.split(":", 1)[0]] += count
    ranked = lambda table: dict(sorted(table.items(), key=lambda kv: (-kv[1], kv[0])))  # noqa: E731
    return {
        "bytecodes_per_op": sum(by_function.values()) / OPCODE_OPS,
        "c_calls_per_op": sum(c_calls.values()) / OPCODE_OPS,
        "bytecodes_by_file": ranked(by_file),
        "bytecodes_by_function": ranked(by_function),
        "c_calls_by_builtin": ranked(c_calls),
    }


def _bytecodes_of(call) -> tuple[int, object]:
    """Bytecodes one call runs (``sys.settrace`` opcode events), and its result."""
    count = 0

    def on_opcode(_frame, event, _arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return on_opcode

    def on_call(frame, _event, _arg):
        frame.f_trace_opcodes = True
        return on_opcode

    sys.settrace(on_call)
    try:
        result = call()
    finally:
        sys.settrace(None)
    return count, result


def _opcodes_per_call(tmp_path) -> dict:
    """Bytecodes of one ``Table.insert`` (the history row) and of one
    lookup + ``Table.update`` (the account balance) of the paper shape's
    first measured op, after the census warm-up."""
    shape, ops, drive = _seeded_shape(tmp_path, CENSUS_SHAPES["paper"])
    try:
        drive(ops[:CENSUS_WARMUP_OPS])
        op = ops[CENSUS_WARMUP_OPS]
        _kind, aid, _tid, _bid, delta, _hid = op
        client = shape.client()
        client.begin()
        txn, account, row = client.txn, client.tables[0], shapes._history_row(op)
        inserted, _slot = _bytecodes_of(partial(client.history.insert, txn, row))
        looked_up, slot = _bytecodes_of(partial(account.lookup, txn, aid))
        updated, _ = _bytecodes_of(
            partial(account.update, txn, slot, {"balance": lambda cur: cur + delta})
        )
        client.commit()
    finally:
        shape.close()
    return {"insert": inserted, "lookup_update": looked_up + updated}


@pytest.fixture(scope="module")
def opcode_results(tmp_path_factory) -> dict:
    base = tmp_path_factory.mktemp("opcodes")
    minor = "%d.%d" % sys.version_info[:2]
    measured = OPCODES_MEASURED.get(minor)
    return {
        "warmup_ops": CENSUS_WARMUP_OPS,
        "ops": OPCODE_OPS,
        "seed": CENSUS_SEED,
        "python": platform.python_version(),
        "shapes": {
            name: _opcode_census(base, workload_name)
            for name, workload_name in CENSUS_SHAPES.items()
        },
        "per_call": _opcodes_per_call(base / "per_call"),
        "gate": None
        if measured is None
        else {
            name: {kind: round(CENSUS_SLACK * count) for kind, count in counts.items()}
            for name, counts in measured.items()
        },
    }


# --------------------------------------------------------------------------
# latch_memory: what the latch tables keep after a drive
# --------------------------------------------------------------------------

#: Bytes ``repro/txn/latches.py`` may retain after a seeded drive: the
#: tables and the system log latch themselves, nothing per region.
LATCH_MEMORY_GATE = 4096
LATCH_PAIRS = 20_000 if QUICK else 100_000
LATCH_PAIR_ROUNDS = 5 if QUICK else 15


class SeedLatch:
    """The object-per-key latch the tables kept for every region ever
    latched, copied inline (grant, wait and release) as the pair-time
    reference."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._cond: threading.Condition | None = None
        self._waiters = 0
        self._shared_holders: dict[int, int] = {}  # thread id -> depth
        self._exclusive_owner: int | None = None
        self._exclusive_depth = 0
        self.acquire_count = 0

    def acquire(self, mode: str, timeout: float | None = 10.0) -> None:
        if mode != EXCLUSIVE and mode != SHARED:
            raise LatchError(f"bad latch mode {mode!r}")
        me = threading.get_ident()
        with self._lock:
            owner = self._exclusive_owner
            if owner == me:
                self._exclusive_depth += 1
            elif owner is None and not self._shared_holders:
                if mode == EXCLUSIVE:
                    self._exclusive_owner = me
                    self._exclusive_depth = 1
                else:
                    self._shared_holders[me] = 1
            else:
                self._acquire_slow(mode, me, timeout)
            self.acquire_count += 1

    def _acquire_slow(self, mode: str, me: int, timeout: float | None) -> None:
        if not self._grantable(mode, me):
            cond = self._cond
            if cond is None:
                cond = self._cond = threading.Condition(self._lock)
            deadline = None if timeout is None else (
                threading.TIMEOUT_MAX if timeout <= 0 else timeout
            )
            self._waiters += 1
            try:
                while not self._grantable(mode, me):
                    if not cond.wait(timeout=deadline):
                        raise LatchError(f"timeout acquiring latch {self.name!r}")
            finally:
                self._waiters -= 1
        self._grant(mode, me)

    def _grantable(self, mode: str, me: int) -> bool:
        if self._exclusive_owner is not None:
            return False
        if mode == SHARED or not self._shared_holders:
            return True
        return set(self._shared_holders) == {me}

    def _grant(self, mode: str, me: int) -> None:
        if mode == SHARED:
            self._shared_holders[me] = self._shared_holders.get(me, 0) + 1
            return
        upgraded_depth = self._shared_holders.pop(me, 0)
        self._exclusive_owner = me
        self._exclusive_depth = 1 + upgraded_depth

    def release(self) -> None:
        me = threading.get_ident()
        with self._lock:
            if self._exclusive_owner == me:
                depth = self._exclusive_depth - 1
                self._exclusive_depth = depth
                if depth == 0:
                    self._exclusive_owner = None
            elif me in self._shared_holders:
                depth = self._shared_holders[me] - 1
                if depth:
                    self._shared_holders[me] = depth
                else:
                    del self._shared_holders[me]
            else:
                raise LatchError(f"thread releasing latch {self.name!r} it does not hold")
            if self._waiters:
                self._cond.notify_all()


def _latch_bytes_retained(tmp_path, workload_name: str) -> dict:
    """Run the census drive (load included) under ``tracemalloc``; return
    what ``repro/txn/latches.py`` still holds before the shape closes."""
    only_latches = [tracemalloc.Filter(True, latches_module.__file__)]
    tracemalloc.start()
    try:
        shape, ops, drive = _seeded_shape(tmp_path, workload_name)
        try:
            drive(ops)
            # A full collection empties the interpreter's list and dict
            # free lists, whose parked blocks tracemalloc still counts
            # against the line that first allocated them.
            gc.collect()
            snapshot = tracemalloc.take_snapshot().filter_traces(only_latches)
        finally:
            shape.close()
    finally:
        tracemalloc.stop()
    stats = snapshot.statistics("filename")
    return {
        "bytes": sum(stat.size for stat in stats),
        "blocks": sum(stat.count for stat in stats),
    }


def _pair_ns(pair, mode: str) -> float:
    """Best-of-rounds time of one uncontended acquire/release pair."""
    best = float("inf")
    for _ in range(LATCH_PAIR_ROUNDS):
        start = time.perf_counter()
        for _ in range(LATCH_PAIRS):
            pair(mode)
        best = min(best, time.perf_counter() - start)
    return best / LATCH_PAIRS * 1e9


@pytest.fixture(scope="module")
def latch_memory_results(tmp_path_factory) -> dict:
    base = tmp_path_factory.mktemp("latchmem")
    retained = {
        name: _latch_bytes_retained(base, workload_name)
        for name, workload_name in CENSUS_SHAPES.items()
    }
    # The reference pair as the hot paths took it: the key's latch
    # object found in the table's dict, then acquired and released.
    seed_latches = {7: SeedLatch("protection[7]")}

    def seed_pair(mode: str) -> None:
        latch = seed_latches.get(7)
        latch.acquire(mode)
        latch.release()

    table = LatchTable("protection")
    acquire, release = table.acquire, table.release

    def table_pair(mode: str) -> None:
        acquire(7, mode)
        release(7)

    pair_ns = {}
    for mode in (EXCLUSIVE, SHARED):
        seed_ns = table_ns = float("inf")
        for _ in range(3):  # the sides alternated
            seed_ns = min(seed_ns, _pair_ns(seed_pair, mode))
            table_ns = min(table_ns, _pair_ns(table_pair, mode))
        pair_ns[mode] = {"seed_latch": seed_ns, "table": table_ns}
    return {
        "seed": CENSUS_SEED,
        "ops": CENSUS_WARMUP_OPS + CENSUS_OPS,
        "retained": retained,
        "gate_bytes": LATCH_MEMORY_GATE,
        "uncontended_pair_ns": pair_ns,
    }


# --------------------------------------------------------------------------
# Gates + emission
# --------------------------------------------------------------------------


class TestTxnPath:
    def test_lifecycle_speedup(self, lifecycle_results):
        assert lifecycle_results["speedup"] >= REQUIRED_LIFECYCLE_SPEEDUP, (
            f"stable-log lifecycle only "
            f"{lifecycle_results['speedup']:.1f}x faster than the seed "
            f"implementation (required {REQUIRED_LIFECYCLE_SPEEDUP}x)"
        )

    def test_codec_not_slower_than_seed(self, codec_results):
        for phase in ("encode", "decode"):
            assert codec_results[phase]["speedup"] > REQUIRED_CODEC_SPEEDUP, (
                f"batched {phase} slower than the seed codec: "
                f"{codec_results[phase]['speedup']:.2f}x"
            )

    def test_group_commit_amortizes_flushes(self, commit_results):
        assert (
            commit_results["group_commit_8"]["flush_fixed"]
            < commit_results["group_commit_1"]["flush_fixed"]
        )

    def test_lock_release_is_o_locks_held(self, lock_release_results):
        assert lock_release_results["speedup"] >= REQUIRED_LOCK_RELEASE_SPEEDUP, (
            f"indexed lock release only "
            f"{lock_release_results['speedup']:.2f}x faster than the "
            f"full-table-scan seed against "
            f"{lock_release_results['resident_grants']} resident grants "
            f"(required {REQUIRED_LOCK_RELEASE_SPEEDUP}x)"
        )

    def test_operation_release_independent_of_txn_length(self, lock_release_results):
        arm = lock_release_results["long_transaction"]
        assert arm["ratio"] <= MAX_LONG_TXN_RELEASE_RATIO, (
            f"release_operation costs {arm['release_operation_us_per_op']} us/op "
            f"at {arm['ops_per_txn']} ops per transaction: ratio "
            f"{arm['ratio']:.1f} (allowed {MAX_LONG_TXN_RELEASE_RATIO})"
        )

    def test_replay_of_finished_transactions_skips_the_undo_log(self, replay_results):
        assert replay_results["ratio"] >= REQUIRED_REPLAY_RATIO, (
            f"replay of finished transactions runs at "
            f"{replay_results['fast_records_per_s']:.0f} records/s against "
            f"{replay_results['tracked_records_per_s']:.0f} tracked: ratio "
            f"{replay_results['ratio']:.2f} (required {REQUIRED_REPLAY_RATIO})"
        )

    def test_replay_calls_per_record_census(self, replay_results):
        over = {
            name: (calls, replay_results["calls_gate"][name])
            for name, calls in replay_results["calls_per_record"].items()
            if calls > replay_results["calls_gate"][name]
        }
        assert not over, (
            f"Python calls per replayed record over the gate (measured, gate): {over}"
        )

    def test_repair_reads_the_stable_log_once(self, repair_results):
        over = {
            arm["regions"]: arm["read_stable_calls"]
            for arm in repair_results["arms"]
            if arm["read_stable_calls"] != REPAIR_READS_GATE
        }
        assert not over, (
            f"read_stable calls per repair_regions call by region count, "
            f"expected {REPAIR_READS_GATE} each: {over}"
        )

    def test_shard_round_trip_beats_connection(self, round_trip_results):
        assert round_trip_results["speedup"] >= REQUIRED_ROUND_TRIP_SPEEDUP, (
            f"a framed channel round trip takes "
            f"{round_trip_results['channel_us_best']:.1f} us against "
            f"{round_trip_results['connection_us_best']:.1f} us over "
            f"Connection (best of {round_trip_results['pairs']}); the median "
            f"pair reads {round_trip_results['speedup']:.2f}x "
            f"(required {REQUIRED_ROUND_TRIP_SPEEDUP}x)"
        )

    def test_calls_per_op_census(self, census_results):
        over = {
            name: (calls, census_results["gate"][name])
            for name, calls in census_results["calls_per_op"].items()
            if calls > census_results["gate"][name]
        }
        assert not over, (
            f"Python calls per op over the census gate (measured, gate): {over}"
        )

    def test_opcodes_per_op(self, opcode_results):
        for name, counts in opcode_results["shapes"].items():
            assert sum(counts["bytecodes_by_function"].values()) == round(
                counts["bytecodes_per_op"] * OPCODE_OPS
            )
        gate = opcode_results["gate"]
        if gate is None:
            return  # no counts recorded for this Python minor version
        over = {
            (name, kind): (counts[f"{kind}_per_op"], gate[name][kind])
            for name, counts in opcode_results["shapes"].items()
            for kind in ("bytecodes", "c_calls")
            if counts[f"{kind}_per_op"] > gate[name][kind]
        }
        over.update(
            (("per_call", call), (count, gate["per_call"][call]))
            for call, count in opcode_results["per_call"].items()
            if count > gate["per_call"][call]
        )
        assert not over, f"bytecodes / C calls per op over the gate (measured, gate): {over}"

    def test_latch_memory_is_per_hold(self, latch_memory_results):
        over = {
            name: entry["bytes"]
            for name, entry in latch_memory_results["retained"].items()
            if entry["bytes"] > LATCH_MEMORY_GATE
        }
        assert not over, (
            f"bytes repro/txn/latches.py retains after the seeded drive, over "
            f"the {LATCH_MEMORY_GATE} B gate: {over}"
        )

    def test_incremental_audit_scales_with_dirty_set(self, audit_results):
        costs = [e["virtual_ns"] for e in audit_results["dirty"]]
        assert costs == sorted(costs)  # audit cost grows with the dirty set
        assert costs[-1] < audit_results["full_sweep"]["virtual_ns"]

    def test_emit_bench_json(
        self,
        lifecycle_results,
        codec_results,
        commit_results,
        audit_results,
        lock_release_results,
        replay_results,
        repair_results,
        round_trip_results,
        census_results,
        opcode_results,
        latch_memory_results,
    ):
        payload = {
            "version": 1,
            "quick": QUICK,
            "log_lifecycle": lifecycle_results,
            "codec": codec_results,
            "commit_path": commit_results,
            "incremental_audit": audit_results,
            "lock_release": lock_release_results,
            "recovery": {"replay": replay_results, "repair": repair_results},
            "shard": {"round_trip": round_trip_results},
            "census": census_results,
            "opcodes": opcode_results,
            "latch_memory": latch_memory_results,
        }
        with open(BENCH_PATH, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        assert os.path.exists(BENCH_PATH)
