"""Wall-clock benchmark of the batched write path, mmap checkpoints and
background sweeps.  Results land in ``BENCH_write.json`` at the repo root.

* **batched_updates** -- the tentpole gate.  A TPC-B-flavoured stream of
  in-place balance updates driven at the manager level through two
  arms: one-range windows (``update``) and multi-range windows
  (``begin_updates``).  Both runs must end byte-, meter- and
  codeword-identical (the window shape is an optimisation, not a
  semantics change); the multi-range arm must clear
  ``REQUIRED_SPEEDUP``.  Arms are interleaved over ``ROUNDS`` rounds and
  the best wall time per arm is kept, so a background scheduling hiccup
  cannot sink one arm alone.
* **background_sweep** -- full-sweep escalation latency.  The gate is
  deterministic: launching the off-thread fold must cost less wall time
  than running the same fold inline, since the launch only spawns the
  worker.  p50/p99 audit-call latencies for both modes are recorded.
* **mmap_checkpoint** -- checkpoint wall time with ``image_backing`` of
  heap vs mmap (file-to-file propagation), plus recovery wall time from
  the mmap image.

``WRITE_BENCH_QUICK=1`` shrinks the workload and relaxes the tentpole
gate for CI smoke runs.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro import Database, DBConfig, Field, FieldType, Schema
from repro.wal.records import LogicalUndo

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_PATH = os.path.join(REPO_ROOT, "BENCH_write.json")

QUICK = os.environ.get("WRITE_BENCH_QUICK") == "1"
ACCOUNTS = 256
UPDATES = 2_560 if QUICK else 12_800
WINDOW_RANGES = 64
ROUNDS = 2 if QUICK else 3
REGION_SIZE = 512  # Section 5.3 mid-point: 0.78% space overhead
# Full size reads 3.1-3.2x on a calm 2-core VM (11 runs at PR 20: median
# 3.06, range 2.55-3.78; 2.51-3.25 at its parent).  The margin is thin: a
# host-noise episode that hits one arm reads 2.5-2.7x, so re-run before
# believing a failure.
REQUIRED_SPEEDUP = 1.5 if QUICK else 3.0
SWEEP_CAPACITY = 32_768 if QUICK else 262_144  # 1 MiB / 8 MiB data segment
AUDIT_EVERY = 64
CKPT_CAPACITY = 8_192 if QUICK else 65_536

ACCT_SCHEMA = Schema(
    [
        Field("id", FieldType.INT64),
        Field("balance", FieldType.INT64),
        Field("name", FieldType.CHAR, 16),
    ]
)


def _make_db(tmp_path, name, capacity=256, accounts=ACCOUNTS, **config_kwargs):
    db = Database(
        DBConfig(
            dir=str(tmp_path / name),
            scheme=config_kwargs.pop("scheme", "data_cw"),
            scheme_params=config_kwargs.pop("scheme_params", {"region_size": 64}),
            **config_kwargs,
        )
    )
    db.create_table("acct", ACCT_SCHEMA, capacity, key_field="id")
    db.start()
    txn = db.begin()
    table = db.table("acct")
    for i in range(accounts):
        table.insert(txn, {"id": i, "balance": 100, "name": f"a{i}"})
    db.commit(txn)
    return db


def _best_of(callable_, repeats: int):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = callable_()
        best = min(best, time.perf_counter() - start)
    return best, result


def _percentile(samples, q: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(q * len(ordered)))
    return ordered[index]


def _tpcb_update_mix(count: int):
    """Deterministic TPC-B-ish update stream: per transaction, a stride-37
    walk over the account array (37 is coprime with ACCOUNTS, so the
    slots inside one window are pairwise distinct -- a requirement for
    explicit ``begin_updates`` windows) with the walk's base advancing
    between transactions.  Yields ``(start_index, [slot, ...])`` windows.
    """
    windows = []
    base = 0
    i = 0
    while i < count:
        windows.append(
            (i, [(base + k * 37) % ACCOUNTS for k in range(WINDOW_RANGES)])
        )
        base = (base + 11) % ACCOUNTS
        i += WINDOW_RANGES
    return windows


def _flat_update_mix(count: int):
    """The same update stream flattened to ``(slot, value)`` pairs, for
    workloads that do not care about window boundaries."""
    for i, slots in _tpcb_update_mix(count):
        for j, slot in enumerate(slots):
            yield slot, 100 + i + j


def _drive_updates(db: Database, count: int, *, windows: bool) -> float:
    """Run the update mix at the manager level, one operation per
    WINDOW_RANGES updates; returns wall seconds.

    ``windows=True`` opens one multi-range window per transaction;
    otherwise each update goes through ``mgr.update`` (a one-range
    window each).
    """
    mgr = db.manager
    table = db.table("acct")
    addresses = [table.record_address(slot) + 8 for slot in range(ACCOUNTS)]
    mix = _tpcb_update_mix(count)
    start = time.perf_counter()
    for i, slots in mix:
        txn = db.begin()
        mgr.begin_operation(txn, "acct:mix")
        if windows:
            mgr.begin_updates(txn, [(addresses[s], 8) for s in slots])
            for j, slot in enumerate(slots):
                mgr.write(txn, addresses[slot], (100 + i + j).to_bytes(8, "little"))
            mgr.end_update(txn)
        else:
            for j, slot in enumerate(slots):
                mgr.update(txn, addresses[slot], (100 + i + j).to_bytes(8, "little"))
        mgr.commit_operation(txn, LogicalUndo("noop"))
        db.commit(txn)
    return time.perf_counter() - start


# --------------------------------------------------------------------------
# Benchmark fixtures
# --------------------------------------------------------------------------


_ARMS = (
    # (label, one multi-range window per transaction?)
    ("scalar", False),
    ("batched", True),
)


@pytest.fixture(scope="module")
def batched_results(tmp_path_factory) -> dict:
    base = tmp_path_factory.mktemp("writebench")
    entries = {}
    states = {}
    walls = {label: float("inf") for label, _windows in _ARMS}
    for round_no in range(ROUNDS):
        for label, windows in _ARMS:
            db = _make_db(
                base,
                f"{label}{round_no}",
                scheme_params={"region_size": REGION_SIZE},
            )
            wall_s = _drive_updates(db, UPDATES, windows=windows)
            walls[label] = min(walls[label], wall_s)
            if round_no == 0:
                report = db.audit()
                assert report.clean
                states[label] = (
                    db.memory.snapshot_segments(),
                    db.scheme.codeword_table.stored_words.tolist(),
                    dict(db.meter.counts),
                    db.meter.clock.now_ns,
                )
            db.close()
    # The window shape is an optimisation, not a semantics change.
    assert states["batched"] == states["scalar"]
    for label, windows in _ARMS:
        entries[label] = {
            "updates": UPDATES,
            "explicit_windows": windows,
            "wall_s": walls[label],
            "updates_per_sec": UPDATES / walls[label],
        }
    entries["speedup"] = walls["scalar"] / walls["batched"]
    return entries


@pytest.fixture(scope="module")
def sweep_results(tmp_path_factory) -> dict:
    base = tmp_path_factory.mktemp("sweepbench")
    entries = {}
    for mode, background in (("inline", False), ("background", True)):
        db = _make_db(
            base,
            mode,
            capacity=SWEEP_CAPACITY,
            full_sweep_every=4,
            background_sweeps=background,
        )
        # p50/p99 of db.audit() calls over an update mix with the
        # configured escalation cadence.
        mgr = db.manager
        table = db.table("acct")
        addresses = [table.record_address(slot) + 8 for slot in range(ACCOUNTS)]
        latencies = []
        for i, (slot, value) in enumerate(_flat_update_mix(UPDATES // 8)):
            txn = db.begin()
            mgr.begin_operation(txn, "acct:mix")
            mgr.update(txn, addresses[slot], value.to_bytes(8, "little"))
            mgr.commit_operation(txn, LogicalUndo("noop"))
            db.commit(txn)
            if i % AUDIT_EVERY == AUDIT_EVERY - 1:
                start = time.perf_counter()
                report = db.audit()
                latencies.append(time.perf_counter() - start)
                assert report.clean
        db.auditor.abandon_background_sweep()

        # Deterministic escalation comparison on the quiescent image.
        if background:
            start = time.perf_counter()
            assert db.auditor.start_background_sweep()
            escalation_s = time.perf_counter() - start
            join_s, report = _best_of(db.auditor.join_background_sweep, 1)
        else:
            escalation_s, report = _best_of(db.auditor.run, 3)
            join_s = 0.0
        assert report.clean
        entries[mode] = {
            "image_bytes": db.memory.size,
            "regions": db.scheme.codeword_table.region_count,
            "audit_calls": len(latencies),
            "audit_p50_s": _percentile(latencies, 0.50),
            "audit_p99_s": _percentile(latencies, 0.99),
            "escalation_call_s": escalation_s,
            "join_s": join_s,
        }
        db.close()
    return entries


@pytest.fixture(scope="module")
def mmap_results(tmp_path_factory) -> dict:
    base = tmp_path_factory.mktemp("ckptbench")
    entries = {}
    for backing in ("heap", "mmap"):
        db = _make_db(base, backing, capacity=CKPT_CAPACITY, image_backing=backing)
        mgr = db.manager
        table = db.table("acct")
        addresses = [table.record_address(slot) + 8 for slot in range(ACCOUNTS)]
        for slot, value in _flat_update_mix(512):
            txn = db.begin()
            mgr.begin_operation(txn, "acct:mix")
            mgr.update(txn, addresses[slot], value.to_bytes(8, "little"))
            mgr.commit_operation(txn, LogicalUndo("noop"))
            db.commit(txn)
        ckpt_s, result = _best_of(db.checkpoint, 2 if QUICK else 3)
        assert result.certified
        db.crash()
        start = time.perf_counter()
        db2, _report = Database.recover(db.config)
        recover_s = time.perf_counter() - start
        assert db2.audit().clean
        db2.close()
        entries[backing] = {
            "image_bytes": CKPT_CAPACITY * ACCT_SCHEMA.record_size,
            "pages_written": result.pages_written,
            "checkpoint_s": ckpt_s,
            "recover_s": recover_s,
        }
    return entries


# --------------------------------------------------------------------------
# Gates + emission
# --------------------------------------------------------------------------


class TestWritePath:
    def test_batched_updates_speedup(self, batched_results):
        assert batched_results["speedup"] >= REQUIRED_SPEEDUP, (
            f"batched update windows only {batched_results['speedup']:.2f}x "
            f"faster than scalar windows (required {REQUIRED_SPEEDUP}x)"
        )

    def test_background_escalation_cheaper_than_inline_sweep(self, sweep_results):
        # Launching the off-thread fold must be cheaper than folding the
        # whole image inline -- the launch only spawns the worker and
        # serves a dirty pass.
        assert (
            sweep_results["background"]["escalation_call_s"]
            < sweep_results["inline"]["escalation_call_s"]
        )

    def test_mmap_checkpoint_completes(self, mmap_results):
        for backing, entry in mmap_results.items():
            assert entry["checkpoint_s"] > 0.0, backing
            assert entry["pages_written"] >= 0, backing

    def test_emit_bench_json(self, batched_results, sweep_results, mmap_results):
        payload = {
            "version": 1,
            "quick": QUICK,
            "batched_updates": batched_results,
            "background_sweep": sweep_results,
            "mmap_checkpoint": mmap_results,
        }
        with open(BENCH_PATH, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        assert os.path.exists(BENCH_PATH)
