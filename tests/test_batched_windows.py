"""Batched update windows: identity against the scalar window path.

The tentpole claim of the batched write path is that it is a pure
wall-clock optimisation: ``begin_updates`` (one multi-range window) must
leave memory bytes, codewords, log contents and every meter count exactly
where N one-range windows would have left them.  ``Meter.charge`` is
linear and XOR folding is associative, so the bulk charges and the one
delta fold per window cannot move any Table 2 number -- these tests make
that claim load-bearing.
"""

from __future__ import annotations

import shutil
import tempfile
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Database, DBConfig, Field, FieldType, Schema
from repro.core.regions import CodewordTable
from repro.errors import TransactionError
from repro.mem.memory import MemoryImage
from repro.wal.records import LogicalUndo, UpdateRecord

ACCT_SCHEMA = Schema(
    [
        Field("id", FieldType.INT64),
        Field("balance", FieldType.INT64),
        Field("name", FieldType.CHAR, 16),
    ]
)


def _make_db(dirname: str, **config_kwargs) -> Database:
    config = DBConfig(
        dir=dirname,
        scheme=config_kwargs.pop("scheme", "data_cw"),
        scheme_params=config_kwargs.pop("scheme_params", {"region_size": 64}),
        **config_kwargs,
    )
    db = Database(config)
    db.create_table("acct", ACCT_SCHEMA, 64, key_field="id")
    db.start()
    txn = db.begin()
    table = db.table("acct")
    for i in range(32):
        table.insert(txn, {"id": i, "balance": 1000 + i, "name": f"a{i}"})
    db.commit(txn)
    return db


def _record_addr(db: Database, slot: int) -> int:
    return db.table("acct").record_address(slot)


def _run_updates(db: Database, updates, batched_api: bool) -> None:
    """Apply (slot, value) updates inside one operation per chunk.

    ``batched_api=False``: one scalar begin/write/end window per update.
    ``batched_api=True``: one ``begin_updates`` window per chunk of
    disjoint slots, then per-range writes, then one ``end_update``.
    """
    mgr = db.manager
    txn = db.begin()
    mgr.begin_operation(txn, "acct:bench")
    if batched_api:
        # Dedup slots (explicit windows need disjoint ranges) keeping the
        # *last* value per slot -- byte-identical to replaying in order.
        final = {}
        for slot, value in updates:
            final[slot] = value
        regions = [(_record_addr(db, slot) + 8, 8) for slot in final]
        mgr.begin_updates(txn, regions)
        for (slot, value), (address, length) in zip(final.items(), regions):
            mgr.write(txn, address, value.to_bytes(8, "little"))
        mgr.end_update(txn)
    else:
        for slot, value in updates:
            address = _record_addr(db, slot) + 8
            mgr.begin_update(txn, address, 8)
            mgr.write(txn, address, value.to_bytes(8, "little"))
            mgr.end_update(txn)
    mgr.commit_operation(txn, LogicalUndo("noop"))
    db.commit(txn)


def _state(db: Database) -> tuple:
    codewords = db.pipeline.codeword_table.stored_words
    return (
        db.memory.snapshot_segments(),
        codewords.tolist(),
        dict(db.meter.counts),
        db.meter.clock.now_ns,
    )


# --------------------------------------------------------------------------
# Kernel-level fold identity: fold_updates against the image itself
# --------------------------------------------------------------------------


@st.composite
def _image_writes(draw):
    """(region_size, segment sizes, [(address, new)], deferred): writes
    that may be unaligned, empty, longer than a region, straddle regions
    and segments, and reach the image's (often ragged) last region."""
    region_size = draw(st.sampled_from([8, 16, 64, 256, 65536]))
    pages = st.integers(min_value=1, max_value=128).map(lambda k: 8 * k)
    sizes = draw(st.lists(pages, min_size=1, max_size=3))
    image_size = sum(sizes)
    writes = []
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        length = draw(st.integers(min_value=0, max_value=96) | st.integers(1000, 1100))
        length = min(length, image_size - 1)
        address = draw(st.integers(min_value=0, max_value=image_size - 1 - length))
        writes.append((address, draw(st.binary(min_size=length, max_size=length))))
    return region_size, sizes, writes, draw(st.booleans())


def _words_and_chunks(region_size: int, writes) -> tuple[int, int]:
    """Words folded (old + new images) and region chunks, from the ranges
    alone: every 32-bit word each region chunk of a write overlaps."""
    words = chunks = 0
    for address, new in writes:
        if not new:
            continue  # an empty write folds nothing
        end = address + len(new)
        for region_id in range(address // region_size, -(-end // region_size)):
            lo = max(address, region_id * region_size)
            hi = min(end, (region_id + 1) * region_size)
            words += 2 * ((hi - 1) // 4 - lo // 4 + 1)
            chunks += 1
    return words, chunks


def _fold_writes(sizes, region_size: int, writes, deferred: bool) -> tuple[int, int]:
    """Apply ``writes`` to a filled image and fold them with one
    ``fold_updates`` call -- into the stored words, or into a pending
    mapping flushed afterwards -- then require the stored words to equal
    a fresh fold of the image.  Returns what the call returned."""
    memory = MemoryImage(page_size=8)
    for index, size in enumerate(sizes):
        memory.add_segment(f"s{index}", size)
    memory.restore(0, bytes((i * 37 + 11) % 256 for i in range(memory.size)))
    table = CodewordTable(memory, region_size)
    table.rebuild_all()
    before = table.stored_words
    items = []
    for address, new in writes:
        items.append((address, memory.read(address, len(new)), new))
        memory.poke(address, new)
    pending = defaultdict(int) if deferred else None
    folded = table.fold_updates(items, pending)
    if deferred:
        assert np.array_equal(table.stored_words, before)
        for region_id, delta in pending.items():
            table.codewords[region_id] ^= delta
    assert np.array_equal(table.stored_words, table.fold_all())
    return folded


class TestKernelFoldIdentity:
    @given(_image_writes())
    @settings(max_examples=150, deadline=None)
    def test_fold_updates_matches_image_fold(self, case):
        region_size, sizes, writes, deferred = case
        assert _fold_writes(sizes, region_size, writes, deferred) == _words_and_chunks(
            region_size, writes
        )

    def test_one_and_many_region_batches(self):
        """A two-byte write straddling a word boundary, and twenty 40-byte
        writes inside their own 64-byte regions, on both targets."""
        small = [(3, b"cd")]
        big = [(i * 64 + 1, bytes(range(40, 80))) for i in range(20)]
        for deferred in (False, True):
            assert _fold_writes([4096], 64, small, deferred) == (4, 1)
            assert _fold_writes([4096], 64, big, deferred) == (20 * 2 * 11, 20)


# --------------------------------------------------------------------------
# Full-path identity: scalar windows vs begin_updates
# --------------------------------------------------------------------------


@st.composite
def _workloads(draw):
    count = draw(st.integers(min_value=1, max_value=14))
    updates = [
        (
            draw(st.integers(min_value=0, max_value=31)),
            draw(st.integers(min_value=0, max_value=2**62)),
        )
        for _ in range(count)
    ]
    return updates


class TestFullPathIdentity:
    @given(_workloads())
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_begin_updates_is_meter_and_byte_identical(self, updates):
        """Explicit begin_updates vs N scalar windows over disjoint slots."""
        # Disjoint ranges: keep the last value per slot (same final bytes).
        final = {}
        for slot, value in updates:
            final[slot] = value
        deduped = list(final.items())
        base = tempfile.mkdtemp(prefix="batchwin-")
        try:
            scalar_db = _make_db(f"{base}/scalar")
            batched_db = _make_db(f"{base}/batched")
            _run_updates(scalar_db, deduped, batched_api=False)
            _run_updates(batched_db, deduped, batched_api=True)
            s_mem, s_cw, s_counts, s_ns = _state(scalar_db)
            b_mem, b_cw, b_counts, b_ns = _state(batched_db)
            assert b_mem == s_mem
            assert b_cw == s_cw
            assert b_counts == s_counts
            assert b_ns == s_ns
            scalar_db.close()
            batched_db.close()
        finally:
            shutil.rmtree(base, ignore_errors=True)


# --------------------------------------------------------------------------
# Window semantics
# --------------------------------------------------------------------------


class TestBatchWindowSemantics:
    def setup_method(self):
        self.base = tempfile.mkdtemp(prefix="batchsem-")

    def teardown_method(self):
        shutil.rmtree(self.base, ignore_errors=True)

    def _db(self, **kwargs) -> Database:
        self._count = getattr(self, "_count", 0) + 1
        return _make_db(f"{self.base}/db{self._count}", **kwargs)

    def test_begin_updates_multi_region_window(self):
        db = self._db()
        mgr = db.manager
        a0, a1 = _record_addr(db, 0) + 8, _record_addr(db, 5) + 8
        txn = db.begin()
        mgr.begin_operation(txn, "op")
        mgr.begin_updates(txn, [(a0, 8), (a1, 8)])
        mgr.write(txn, a0, (111).to_bytes(8, "little"))
        mgr.write(txn, a1, (222).to_bytes(8, "little"))
        mgr.end_update(txn)
        mgr.commit_operation(txn, LogicalUndo("noop"))
        db.commit(txn)
        assert int.from_bytes(db.memory.read(a0, 8), "little") == 111
        assert int.from_bytes(db.memory.read(a1, 8), "little") == 222
        assert db.audit().clean
        db.close()

    def test_write_outside_batch_window_rejected(self):
        db = self._db()
        mgr = db.manager
        a0 = _record_addr(db, 0) + 8
        stray = _record_addr(db, 20) + 8
        txn = db.begin()
        mgr.begin_operation(txn, "op")
        mgr.begin_updates(txn, [(a0, 8)])
        with pytest.raises(TransactionError, match="outside the"):
            mgr.write(txn, stray, b"\x00" * 8)
        mgr.end_update(txn)
        mgr.commit_operation(txn, LogicalUndo("noop"))
        db.abort(txn)
        db.close()

    def test_overlapping_explicit_ranges_rejected(self):
        db = self._db()
        mgr = db.manager
        a0 = _record_addr(db, 0)
        txn = db.begin()
        mgr.begin_operation(txn, "op")
        with pytest.raises(TransactionError, match="disjoint"):
            mgr.begin_updates(txn, [(a0, 16), (a0 + 8, 16)])
        with pytest.raises(TransactionError, match="at least one region"):
            mgr.begin_updates(txn, [])
        db.abort(txn)
        db.close()

    def test_second_window_while_open_rejected(self):
        db = self._db()
        mgr = db.manager
        a0 = _record_addr(db, 0) + 8
        txn = db.begin()
        mgr.begin_operation(txn, "op")
        mgr.begin_updates(txn, [(a0, 8)])
        with pytest.raises(TransactionError, match="already has an open"):
            mgr.begin_updates(txn, [(a0, 8)])
        mgr.end_update(txn)
        mgr.commit_operation(txn, LogicalUndo("noop"))
        db.commit(txn)
        db.close()

    def test_abort_mid_window_restores_bytes_and_codewords(self):
        db = self._db()
        mgr = db.manager
        addresses = [_record_addr(db, s) + 8 for s in (1, 2, 3)]
        before = db.memory.snapshot_segments()
        codewords = db.pipeline.codeword_table.stored_words
        txn = db.begin()
        mgr.begin_operation(txn, "op")
        mgr.begin_updates(txn, [(address, 8) for address in addresses])
        for i, address in enumerate(addresses):
            mgr.write(txn, address, (7000 + i).to_bytes(8, "little"))
        # The three-range window is still open: abort rolls every range
        # back without ever folding a codeword delta.
        assert len(txn.pending_update.regions) == 3
        db.abort(txn)
        assert txn.pending_update is None
        assert db.memory.snapshot_segments() == before
        assert np.array_equal(db.pipeline.codeword_table.stored_words, codewords)
        assert not db.pipeline.protection_latches.any_held()
        assert db.audit().clean
        db.close()


# --------------------------------------------------------------------------
# Satellite: end_update logs tracked bytes, not a re-read of the window
# --------------------------------------------------------------------------


class TestRedoImageIdentity:
    def test_partial_write_redo_image_matches_memory(self):
        """A window wider than its writes logs undo-seeded redo bytes --
        byte-identical to re-reading the window from memory."""
        base = tempfile.mkdtemp(prefix="redoimg-")
        try:
            db = _make_db(f"{base}/db")
            mgr = db.manager
            address = _record_addr(db, 4)  # whole 32-byte record window
            txn = db.begin()
            mgr.begin_operation(txn, "op")
            mgr.begin_update(txn, address, 32)
            mgr.write(txn, address + 8, (555).to_bytes(8, "little"))
            mgr.end_update(txn)
            records = [
                r for r in txn.redo_log.records if isinstance(r, UpdateRecord)
            ]
            assert len(records) == 1
            assert records[0].image == db.memory.read(address, 32)
            mgr.commit_operation(txn, LogicalUndo("noop"))
            db.commit(txn)
            db.close()
        finally:
            shutil.rmtree(base, ignore_errors=True)

    def test_batch_window_redo_images_match_memory(self):
        base = tempfile.mkdtemp(prefix="redoimg-")
        try:
            db = _make_db(f"{base}/db")
            mgr = db.manager
            regions = [(_record_addr(db, s), 32) for s in (2, 11, 17)]
            txn = db.begin()
            mgr.begin_operation(txn, "op")
            mgr.begin_updates(txn, regions)
            for address, _length in regions:
                mgr.write(txn, address + 8, (999).to_bytes(8, "little"))
            mgr.end_update(txn)
            records = [
                r for r in txn.redo_log.records if isinstance(r, UpdateRecord)
            ]
            assert [(r.address, r.image) for r in records] == [
                (address, db.memory.read(address, length))
                for address, length in regions
            ]
            mgr.commit_operation(txn, LogicalUndo("noop"))
            db.commit(txn)
            assert db.audit().clean
            db.close()
        finally:
            shutil.rmtree(base, ignore_errors=True)
