"""The one-call update window against the explicit one, and its failures.

``TransactionManager.apply_writes`` runs a whole update window in one
call -- the write-combining accessor's flush; ``begin_updates`` /
``write`` / ``end_update`` hold the same window open across calls.  Both
are built from the same open, close and abandon steps, so the property
below drives random queues of disjoint writes through each and requires
everything a window leaves behind to be equal: image bytes, codewords
(and deferred deltas), the stable log, meter counts, undo entries, both
checkpoint images' dirty page sets, the dirty-region and sweep-touched
sets -- with no latch left held.

The failure cases hold the one-call window to its rollback promise: a
window that dies part-way -- an unmapped range, a store that fails after
earlier ranges were stored, a latch that cannot be taken -- leaves the
image, codewords and undo log as they were, no window open and no latch
held but the ones held before.
"""

from __future__ import annotations

import shutil
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Database, DBConfig
from repro.errors import LatchError, MemoryError_
from repro.mem.memory import MemoryImage
from repro.storage.table import TxnAccessor
from repro.txn.latches import SHARED, LatchTable
from repro.wal.records import LogicalUndo
from tests.conftest import ACCT_SCHEMA
from tests.test_write_combining import SCHEMES

PAGE = 256
#: No codeword member: region size means nothing to these stacks.
NO_REGIONS = {"baseline", "hardware"}
#: Every stack of the write-combining identity tests, plus deferred
#: maintenance with a background sweep armed (its tracked touches).
STACKS = [(name, params, False) for name, params in SCHEMES] + [("deferred", {}, True)]
STACK_IDS = [name + ("+sweep" if sweep else "") for name, _params, sweep in STACKS]


def _build(dirname: str, scheme: str, params: dict, sweep: bool) -> Database:
    extra = (
        {"full_sweep_every": 2, "background_sweeps": True, "scheduler_mode": "deterministic"}
        if sweep
        else {}
    )
    db = Database(
        DBConfig(
            dir=dirname, scheme=scheme, scheme_params=dict(params), page_size=PAGE, **extra
        )
    )
    db.create_table("acct", ACCT_SCHEMA, 32, key_field="id")
    db.start()
    if sweep:
        assert db.auditor.start_background_sweep()
    return db


@st.composite
def _queues(draw, size: int):
    """1-8 pairwise-disjoint ``(address, bytes)`` writes inside a
    ``size``-byte image, in a drawn order, straddling region, page and
    segment boundaries at random."""
    count = draw(st.integers(min_value=1, max_value=8))
    writes = []
    position = draw(st.integers(min_value=0, max_value=size // 2))
    for _ in range(count):
        start = position + draw(st.integers(min_value=0, max_value=size // 8))
        length = draw(st.integers(min_value=1, max_value=48))
        if start + length > size:
            break
        writes.append((start, draw(st.binary(min_size=length, max_size=length))))
        position = start + length
    if not writes:
        writes.append((0, draw(st.binary(min_size=1, max_size=16))))
    return draw(st.permutations(writes))


def _one_call(db: Database, txn, writes) -> None:
    db.manager.apply_writes(txn, list(writes))


def _explicit(db: Database, txn, writes) -> None:
    mgr = db.manager
    mgr.begin_updates(txn, [(address, len(data)) for address, data in writes])
    for address, data in writes:
        mgr.write(txn, address, data)
    mgr.end_update(txn)


def _run(db: Database, writes, window) -> dict:
    maintainer = db.pipeline.maintainer
    txn = db.begin()
    db.manager.begin_operation(txn, "test:window")
    before = dict(db.meter.counts)
    window(db, txn, writes)
    state = {
        "charged": {
            event: count - before.get(event, 0)
            for event, count in db.meter.counts.items()
            if count != before.get(event, 0)
        },
        "undo": [
            (e.seq, e.address, e.image, e.codeword_applied) for e in txn.undo_log.entries
        ],
        "pending": txn.pending_update,
        "segments": db.memory.snapshot_segments(),
        "dirty_pages": [db.memory.dirty_pages.pending_for(image) for image in "AB"],
    }
    if maintainer is not None:
        assert len(maintainer.protection_latches) == 0
        assert len(maintainer.codeword_latches) == 0
        state["codewords"] = maintainer.table.stored_words.tolist()
        state["deltas"] = dict(maintainer._pending)
        state["dirty_regions"] = set(maintainer.dirty_regions)
        state["sweep_touched"] = maintainer._sweep_touched
    db.manager.commit_operation(txn, LogicalUndo("noop"))
    db.commit(txn)
    state["meter"] = dict(db.meter.counts)
    state["stable_log"] = bytes(db.system_log.read_stable())
    return state


@pytest.mark.parametrize("scheme,params,sweep", STACKS, ids=STACK_IDS)
@given(data=st.data())
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_one_call_window_equals_explicit_window(scheme, params, sweep, data):
    params = dict(params)
    if scheme not in NO_REGIONS and data.draw(st.booleans(), label="64-byte regions"):
        params["region_size"] = 64
    base = tempfile.mkdtemp(prefix="onecall-")
    try:
        one_call = _build(f"{base}/one_call", scheme, params, sweep)
        explicit = _build(f"{base}/explicit", scheme, params, sweep)
        writes = data.draw(_queues(one_call.memory.size), label="writes")
        got = _run(one_call, writes, _one_call)
        want = _run(explicit, writes, _explicit)
        assert got["pending"] is None and want["pending"] is None
        assert got == want
        _check_window(one_call, writes, got)
        one_call.close()
        explicit.close()
    finally:
        shutil.rmtree(base, ignore_errors=True)


def _check_window(db: Database, writes, state: dict) -> None:
    """What one window over ``writes`` must charge and mark, worked out
    here from the ranges alone (the two paths above share their steps)."""
    count = len(writes)
    total = sum(len(data) for _address, data in writes)
    charged = state["charged"]
    assert charged["begin_update"] == charged["end_update"] == count
    assert charged["log_record"] == 2 * count
    assert charged["log_byte"] == 2 * total
    pages = {
        page
        for address, data in writes
        for page in range(address // PAGE, (address + len(data) - 1) // PAGE + 1)
    }
    assert all(pages <= dirty for dirty in state["dirty_pages"])
    maintainer = db.pipeline.maintainer
    if maintainer is None:
        return
    size = maintainer.region_size
    spans = [
        range(address // size, (address + len(data) - 1) // size + 1)
        for address, data in writes
    ]
    pairs = sum(len(span) for span in spans)
    regions = set().union(*spans)
    # One pair at open; one more at close where the codeword latch is
    # charged (taken, or covered by exclusive protection latches).
    assert charged["latch_pair"] == pairs * (1 + maintainer.uses_codeword_latch)
    if maintainer.deferred:
        assert charged["deferred_update"] == pairs
    else:
        assert charged["cw_maint_fixed"] == count
    assert regions <= state["dirty_regions"]
    if state["sweep_touched"] is not None:
        assert state["sweep_touched"] == regions


# --------------------------------------------------------------------------
# Failure mid-window
# --------------------------------------------------------------------------


def _observe(db: Database, txn) -> dict:
    maintainer = db.pipeline.maintainer
    state = {
        "segments": db.memory.snapshot_segments(),
        "undo": list(txn.undo_log.entries),
    }
    if maintainer is not None:
        state["codewords"] = maintainer.table.stored_words.tolist()
        state["deltas"] = dict(maintainer._pending)
    return state


def _held(db: Database) -> tuple[set, set]:
    maintainer = db.pipeline.maintainer
    if maintainer is None:
        return set(), set()
    return (
        set(maintainer.protection_latches._held),
        set(maintainer.codeword_latches._held),
    )


def _queue(db: Database, txn, writes) -> TxnAccessor:
    ctx = TxnAccessor(db, txn)
    for address, data in writes:
        ctx.update(address, data)
    return ctx


def _fail_and_recover(db: Database, txn, writes, error) -> None:
    """Flush ``writes`` expecting ``error``; the window must leave no trace
    and the operation must then abort to a clean audit."""
    before, held = _observe(db, txn), _held(db)
    ctx = _queue(db, txn, writes)
    with pytest.raises(error):
        ctx.flush()
    assert _observe(db, txn) == before
    assert txn.pending_update is None
    assert _held(db) == held
    db.manager.abort_operation(txn)
    assert db.audit().clean


@pytest.mark.parametrize("scheme,params,sweep", STACKS, ids=STACK_IDS)
def test_unmapped_last_range_leaves_nothing(tmp_path, scheme, params, sweep):
    db = _build(str(tmp_path / "db"), scheme, params, sweep)
    txn = db.begin()
    db.manager.begin_operation(txn, "test:window")
    size = db.memory.size
    writes = [(8, b"\x11" * 8), (300, b"\x22" * 40), (size + 16, b"\x33" * 8)]
    _fail_and_recover(db, txn, writes, MemoryError_)
    db.commit(txn)
    db.close()


@pytest.mark.parametrize("scheme,params,sweep", STACKS, ids=STACK_IDS)
def test_store_failing_after_earlier_stores_is_undone(
    tmp_path, monkeypatch, scheme, params, sweep
):
    """The last range straddles a segment boundary (the span walk stores
    it); that store fails after the first two were stored."""
    db = _build(str(tmp_path / "db"), scheme, params, sweep)
    txn = db.begin()
    db.manager.begin_operation(txn, "test:window")
    boundary = db.memory.segments[1].base
    writes = [(8, b"\x11" * 8), (300, b"\x22" * 40), (boundary - 4, b"\x33" * 8)]
    real = MemoryImage._store_spans
    failures = []

    def store_spans(self, address, source, start, length):
        if address == boundary - 4 and not failures:
            failures.append(address)
            raise MemoryError_("injected store failure")
        return real(self, address, source, start, length)

    monkeypatch.setattr(MemoryImage, "_store_spans", store_spans)
    _fail_and_recover(db, txn, writes, MemoryError_)
    assert failures == [boundary - 4]
    db.commit(txn)
    db.close()


#: Three ranges in three distinct 64-byte regions: three protection
#: latches at open, and three codeword latches at close where the stack
#: takes them.
LATCH_WRITES = [(8, b"\x11" * 8), (136, b"\x22" * 16), (264, b"\x33" * 4)]
CODEWORD_STACKS = [(n, p, s) for n, p, s in STACKS if n not in NO_REGIONS]


@pytest.mark.parametrize(
    "scheme,params,sweep",
    CODEWORD_STACKS,
    ids=[name for name in STACK_IDS if name not in NO_REGIONS],
)
def test_failed_latch_acquire_releases_what_it_took(
    tmp_path, monkeypatch, scheme, params, sweep
):
    """The k-th latch acquire of the window fails, for every k it makes:
    nothing is stored, and exactly the latches the window took are
    released -- one held before it (by this thread) stays held."""
    params = {**params, "region_size": 64}
    acquires = []
    real = LatchTable.acquire

    def counting(self, key, mode, timeout=10.0):
        acquires.append(key)
        return real(self, key, mode, timeout)

    probe = _build(str(tmp_path / "probe"), scheme, params, sweep)
    txn = probe.begin()
    probe.manager.begin_operation(txn, "test:window")
    monkeypatch.setattr(LatchTable, "acquire", counting)
    _queue(probe, txn, LATCH_WRITES).flush()
    monkeypatch.setattr(LatchTable, "acquire", real)
    count = len(acquires)
    assert count >= 3
    probe.close()

    for k in range(1, count + 1):
        db = _build(str(tmp_path / f"db{k}"), scheme, params, sweep)
        txn = db.begin()
        db.manager.begin_operation(txn, "test:window")
        # A latch this thread holds on a region the window does not touch.
        db.pipeline.maintainer.protection_latches.acquire(20, SHARED)
        calls = [0]

        def failing(self, key, mode, timeout=10.0, k=k):
            calls[0] += 1
            if calls[0] == k:
                raise LatchError(f"injected failure of acquire {k}")
            return real(self, key, mode, timeout)

        monkeypatch.setattr(LatchTable, "acquire", failing)
        _fail_and_recover(db, txn, LATCH_WRITES, LatchError)
        monkeypatch.setattr(LatchTable, "acquire", real)
        assert _held(db) == ({20}, set())
        db.pipeline.maintainer.protection_latches.release(20)
        db.commit(txn)
        db.close()
