"""Cache-recovery model: in-place repair of directly corrupted regions."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Database, DBConfig, FaultInjector
from repro.errors import RecoveryError
from repro.recovery.cache_recovery import repair_regions
from repro.wal.records import LogicalUndo

from tests.conftest import ACCT_SCHEMA, insert_accounts

ACCOUNTS = 24


def _quarantine_db(path, region_size: int) -> Database:
    """A data_cw database whose every routine audit is a full sweep, so a
    wild write below the dirty tracking is quarantined by the next audit."""
    db = Database(
        DBConfig(
            dir=str(path),
            scheme="data_cw",
            scheme_params={"region_size": region_size},
            quarantine=True,
            full_sweep_every=1,
        )
    )
    db.create_table("acct", ACCT_SCHEMA, ACCOUNTS, key_field="id")
    db.start()
    return db


def _flip_word(db, address: int) -> None:
    """A wild write of one inverted word (an odd word count: never
    self-cancelling under the XOR fold)."""
    db.memory.poke(address, bytes(b ^ 0xFF for b in db.memory.read(address, 4)))


def _table_regions(db) -> list[int]:
    table = db.table("acct")
    start = table.record_address(0)
    size = ACCOUNTS * table.schema.record_size
    return list(db.pipeline.codeword_table.regions_spanning(start, size))


@pytest.fixture
def cdb(db_factory):
    db = db_factory(scheme="data_cw", region_size=4096)
    return db


class TestRepair:
    def test_repair_restores_checkpointed_data(self, cdb):
        slots = insert_accounts(cdb, 5)
        cdb.checkpoint()
        table = cdb.table("acct")
        injector = FaultInjector(cdb, seed=1)
        injector.wild_write(table.record_address(slots[2]) + 8, 8)
        report = cdb.audit()
        assert not report.clean
        repaired = repair_regions(cdb, list(report.corrupt_regions))
        assert repaired == len(report.corrupt_regions)
        assert cdb.audit().clean
        txn = cdb.begin()
        assert table.read(txn, slots[2])["balance"] == 100
        cdb.commit(txn)

    def test_repair_replays_post_checkpoint_commits(self, cdb):
        slots = insert_accounts(cdb, 3)
        cdb.checkpoint()
        table = cdb.table("acct")
        txn = cdb.begin()
        table.update(txn, slots[0], {"balance": 424})
        cdb.commit(txn)
        injector = FaultInjector(cdb, seed=2)
        injector.wild_write(table.record_address(slots[0]) + 16, 4)
        report = cdb.audit()
        repair_regions(cdb, list(report.corrupt_regions))
        txn = cdb.begin()
        assert table.read(txn, slots[0])["balance"] == 424
        cdb.commit(txn)

    def test_repair_builds_only_update_records(self, cdb, request):
        """A repair replays the update frames it needs from the frame
        bytes: no record object at all is built."""
        slots = insert_accounts(cdb, 3)
        cdb.checkpoint()
        table = cdb.table("acct")
        txn = cdb.begin()
        table.update(txn, slots[0], {"balance": 424})
        cdb.commit(txn)
        FaultInjector(cdb, seed=2).wild_write(table.record_address(slots[0]) + 16, 4)
        report = cdb.audit()
        built = request.getfixturevalue("built_record_codes")  # spy from here on
        repair_regions(cdb, list(report.corrupt_regions))
        assert built == []
        txn = cdb.begin()
        assert table.read(txn, slots[0])["balance"] == 424  # the update replayed
        cdb.commit(txn)

    def test_repair_replays_unflushed_tail(self, cdb):
        slots = insert_accounts(cdb, 3)
        cdb.checkpoint()
        table = cdb.table("acct")
        txn = cdb.begin()
        table.update(txn, slots[1], {"balance": 77})
        # op committed -> record is in the (unflushed) system log tail
        injector = FaultInjector(cdb, seed=3)
        injector.wild_write(table.record_address(slots[1]) + 16, 4)
        report = cdb.audit()
        repair_regions(cdb, list(report.corrupt_regions))
        assert table.read(txn, slots[1])["balance"] == 77
        cdb.commit(txn)

    def test_repair_replays_open_operation_local_records(self, cdb):
        """Updates of an open operation live only in the local redo log."""
        slots = insert_accounts(cdb, 3)
        cdb.checkpoint()
        table = cdb.table("acct")
        address = table.record_address(slots[1])
        txn = cdb.begin()
        cdb.manager.begin_operation(txn, "w")
        offset, _ = table.schema.field_range("balance")
        cdb.manager.update(txn, address + offset, (999).to_bytes(8, "little"))
        injector = FaultInjector(cdb, seed=4)
        injector.wild_write(address + 16, 4)
        report = cdb.audit()
        repair_regions(cdb, list(report.corrupt_regions))
        cdb.manager.commit_operation(txn, LogicalUndo("noop"))
        cdb.commit(txn)
        txn = cdb.begin()
        assert table.read(txn, slots[1])["balance"] == 999
        cdb.commit(txn)

    def test_precheck_failure_then_online_repair(self, db_factory):
        """The Read Prechecking + cache recovery flow: no crash needed."""
        from repro.errors import CorruptionDetected

        db = db_factory(scheme="precheck", region_size=64)
        slots = insert_accounts(db, 5)
        db.checkpoint()
        table = db.table("acct")
        db.memory.poke(table.record_address(slots[3]), b"\x66" * 8)
        txn = db.begin()
        with pytest.raises(CorruptionDetected) as exc:
            table.read(txn, slots[3])
        repair_regions(db, exc.value.region_ids)
        assert table.read(txn, slots[3])["balance"] == 100
        db.commit(txn)

    def test_repair_needs_codewords(self, db):
        insert_accounts(db, 1)
        db.checkpoint()
        with pytest.raises(RecoveryError):
            repair_regions(db, [0])


class TestOnePass:
    @pytest.mark.parametrize("count", [1, 8])
    def test_one_stable_log_read_per_repair(self, tmp_path, monkeypatch, count):
        """The live log is walked once per repair, however many regions
        the repair covers."""
        db = _quarantine_db(tmp_path / "census", 64)
        try:
            slots = insert_accounts(db, ACCOUNTS)
            db.checkpoint()
            table = db.table("acct")
            for acct in range(ACCOUNTS):
                txn = db.begin()
                table.update(txn, slots[acct], {"balance": 500 + acct})
                db.commit(txn)
            regions = _table_regions(db)[:count]
            assert len(regions) == count
            cw = db.pipeline.codeword_table
            clean = {r: db.memory.read(*cw.region_bounds(r)) for r in regions}
            for region in regions:
                _flip_word(db, cw.region_bounds(region)[0])
            reads = []
            read_stable = db.system_log.read_stable
            monkeypatch.setattr(
                db.system_log, "read_stable", lambda: reads.append(1) or read_stable()
            )
            assert repair_regions(db, regions) == count
            assert reads == [1]
            assert {r: db.memory.read(*cw.region_bounds(r)) for r in regions} == clean
        finally:
            db.close()

    def test_one_repair_covers_two_quarantined_regions(self, tmp_path):
        """A committed update straddling two regions' boundary and an
        update only an open operation's local redo log holds are both
        replayed by the one repair of both regions."""
        db = _quarantine_db(tmp_path / "straddle", 64)
        try:
            insert_accounts(db, ACCOUNTS)
            db.checkpoint()
            low, high = _table_regions(db)[2:4]
            boundary = high * 64
            mgr = db.manager
            txn = db.begin()
            mgr.begin_operation(txn, "straddle")
            mgr.update(txn, boundary - 4, b"\x11" * 8)
            mgr.commit_operation(txn, LogicalUndo("noop"))
            db.commit(txn)
            open_txn = db.begin()
            mgr.begin_operation(open_txn, "open")
            mgr.update(open_txn, boundary + 8, b"\x22" * 4)
            clean = db.memory.read(low * 64, 128)
            _flip_word(db, low * 64 + 8)
            _flip_word(db, boundary + 8)
            assert not db.audit().clean
            assert db.quarantined_regions() == (low, high)
            assert db.repair_quarantined() == 2
            assert db.quarantined_regions() == ()
            assert db.memory.read(low * 64, 128) == clean
            mgr.commit_operation(open_txn, LogicalUndo("noop"))
            db.commit(open_txn)
            assert db.audit().clean
        finally:
            db.close()

    def test_repair_writes_only_inside_its_regions(self, tmp_path):
        """An update straddling a repaired and an unrepaired region is
        clipped: the unrepaired side keeps its (here wild) bytes."""
        db = _quarantine_db(tmp_path / "clip", 64)
        try:
            insert_accounts(db, ACCOUNTS)
            db.checkpoint()
            low, high = _table_regions(db)[2:4]
            boundary = high * 64
            mgr = db.manager
            txn = db.begin()
            mgr.begin_operation(txn, "straddle")
            mgr.update(txn, boundary - 4, b"\x11" * 8)
            mgr.commit_operation(txn, LogicalUndo("noop"))
            db.commit(txn)
            clean = db.memory.read(low * 64, 64)
            _flip_word(db, low * 64 + 8)
            _flip_word(db, boundary)
            bystander = db.memory.read(boundary, 64)
            assert repair_regions(db, [low]) == 1
            assert db.memory.read(low * 64, 64) == clean
            assert db.memory.read(boundary, 64) == bystander
        finally:
            db.close()


_STEP = st.one_of(
    st.tuples(
        st.sampled_from(["commit", "abort"]),
        st.integers(0, ACCOUNTS - 1),
        st.integers(0, 10**6),
    ),
    st.just(("checkpoint", 0, 0)),
)


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(
    region_size=st.sampled_from([64, 256]),
    steps=st.lists(_STEP, max_size=12),
    tail=st.booleans(),
    open_op=st.booleans(),
    damaged=st.sets(st.integers(0, 63), min_size=1, max_size=6),
)
def test_repair_restores_every_damaged_region(
    tmp_path_factory, region_size, steps, tail, open_op, damaged
):
    """Histories of commits, aborts and checkpoints, ending with an
    unflushed tail and/or an open operation: one repair of any damaged
    region set restores each region's bytes from before the wild write."""
    db = _quarantine_db(tmp_path_factory.mktemp("matrix"), region_size)
    try:
        slots = insert_accounts(db, ACCOUNTS)
        db.checkpoint()
        table = db.table("acct")
        for kind, acct, balance in steps:
            if kind == "checkpoint":
                assert db.checkpoint().certified
                continue
            txn = db.begin()
            table.update(txn, slots[acct], {"balance": balance})
            db.commit(txn) if kind == "commit" else db.abort(txn)
        open_txn = db.begin() if tail or open_op else None
        if tail:  # a committed operation: its records wait in the tail
            table.update(open_txn, slots[1], {"balance": 4242})
        if open_op:  # an open operation: its record is only local
            db.manager.begin_operation(open_txn, "open")
            db.manager.update(open_txn, table.record_address(slots[2]) + 8, b"\x33" * 8)
        cw = db.pipeline.codeword_table
        table_regions = _table_regions(db)
        regions = sorted({table_regions[i % len(table_regions)] for i in damaged})
        clean = {r: db.memory.read(*cw.region_bounds(r)) for r in regions}
        for region in regions:
            start, length = cw.region_bounds(region)
            _flip_word(db, start + length - 4)
        assert not db.audit().clean
        assert db.quarantined_regions() == tuple(regions)
        assert db.repair_quarantined() == len(regions)
        assert {r: db.memory.read(*cw.region_bounds(r)) for r in regions} == clean
        assert db.audit().clean
        if open_op:
            db.manager.commit_operation(open_txn, LogicalUndo("noop"))
        if open_txn is not None:
            db.commit(open_txn)
    finally:
        db.close()
