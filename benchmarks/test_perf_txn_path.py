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
  truncate and cached counter remove.  Required speedup: >= 5x.
* **codec** -- pure encode/decode subscores (no file I/O), gated only at
  parity (> 1x): frame building is cheap relative to CPython dataclass
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
  a finisher; their frames are applied without building a record)
  against the same records with the commit frames left off (nobody
  finishes: every record is decoded, tracked and given an undo entry,
  which is what redo did for every transaction before).  Records/s of
  both, gated on their ratio.

``TXN_BENCH_QUICK=1`` shrinks the workload and relaxes the lifecycle
gate for CI smoke runs.
"""

from __future__ import annotations

import json
import os
import struct
import time
import zlib

import pytest

from repro import Database, DBConfig, Field, FieldType, Schema
from repro.recovery.restart import RestartRecovery
from repro.sim.clock import Meter, VirtualClock
from repro.sim.costs import DEFAULT_COSTS
from repro.txn.latches import Latch
from repro.txn.locks import LockManager, LockMode
from repro.wal.records import (
    LogicalUndo,
    OpBeginRecord,
    OpCommitRecord,
    RecordType,
    TxnBeginRecord,
    TxnCommitRecord,
    UpdateRecord,
    encode_into,
    iter_records,
)
from repro.wal.system_log import SystemLog

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

    repeats = 1 if QUICK else 2
    seed_s, seed_count = _best_of(seed_run, repeats)
    batched_s, batched_count = _best_of(batched_run, repeats)
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
        for record in records:
            encode_into(record, buf)
        return buf

    repeats = 5 if QUICK else 9
    encode_seed_s, blob = _best_of(seed_encode_all, repeats)
    encode_new_s, buf = _best_of(batched_encode_all, repeats)
    assert bytes(buf) == blob  # byte-identical framing

    def seed_decode_all():
        out = []
        offset = 0
        while offset < len(blob):
            record, offset = _seed_decode(blob, offset)
            out.append(record)
        return out

    def batched_decode_all():
        return list(iter_records(buf))

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


def _replay_records_per_s(base, name: str, commit: bool) -> tuple[float, int, int]:
    """Crash a database whose stable log holds ``REPLAY_TXNS`` generated
    transactions, then time ``replay()`` alone on fresh shells; returns
    the best records/s of three, the record count and the fast frames."""
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
    return records / best, records, int(phases["fast_frames"])


@pytest.fixture(scope="module")
def replay_results(tmp_path_factory) -> dict:
    base = tmp_path_factory.mktemp("replaybench")
    fast, records, fast_frames = _replay_records_per_s(base, "finished", True)
    tracked, tracked_records, none_fast = _replay_records_per_s(base, "open", False)
    assert fast_frames == records and none_fast == 0
    return {
        "transactions": REPLAY_TXNS,
        "records": records,
        "fast_records_per_s": fast,
        "tracked_records": tracked_records,
        "tracked_records_per_s": tracked,
        "ratio": fast / tracked,
    }


@pytest.fixture(scope="module")
def audit_results(tmp_path_factory) -> dict:
    db = _make_db(
        tmp_path_factory.mktemp("auditbench"),
        "adb",
        scheme="data_cw",
        scheme_params={"region_size": 256},
        audit_mode="incremental",
        full_sweep_every=10**6,
    )
    maintainer = db.scheme.maintainer
    table = db.scheme.codeword_table

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
    ):
        payload = {
            "version": 1,
            "quick": QUICK,
            "log_lifecycle": lifecycle_results,
            "codec": codec_results,
            "commit_path": commit_results,
            "incremental_audit": audit_results,
            "lock_release": lock_release_results,
            "recovery": {"replay": replay_results},
        }
        with open(BENCH_PATH, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        assert os.path.exists(BENCH_PATH)
