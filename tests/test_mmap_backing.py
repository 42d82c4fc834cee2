"""mmap-backed memory images: identity with heap backing, wild-write
visibility, and crash-safety of checkpoint propagation.

``DBConfig(image_backing="mmap")`` swaps the MemoryImage's segment
buffers for file-backed mmaps under ``{dir}/image/`` without changing a
single call site above the Segment API.  These tests pin the contract:

* a workload run over mmap is byte- and meter-identical to heap;
* wild writes (``memory.poke``) land in the backing file's bytes and are
  still caught by the codeword audit -- the backing is transparent to
  the protection schemes;
* checkpoint images written by file-to-file propagation are identical to
  the heap writer's, and a crash at *any* checkpoint or recovery step
  leaves the previous anchor usable and recovery byte-identical to a
  heap twin crashed at the same point.
"""

from __future__ import annotations

import os

import pytest

from repro import CrashPointRegistry, Database, DBConfig, Field, FieldType, Schema
from repro.errors import SimulatedCrash
from repro.faults.campaign import CampaignSpec, run_campaign
from repro.faults.crashpoints import RECOVERY_CRASH_POINTS
from repro.wal.records import LogicalUndo

ACCT_SCHEMA = Schema(
    [
        Field("id", FieldType.INT64),
        Field("balance", FieldType.INT64),
        Field("name", FieldType.CHAR, 16),
    ]
)

CHECKPOINT_CRASH_POINTS = (
    "checkpoint.pre_image",
    "checkpoint.after_image",
    "checkpoint.after_meta",
    "checkpoint.pre_anchor",
    "checkpoint.after_anchor",
)


def _make_db(dirname: str, **config_kwargs) -> Database:
    config = DBConfig(
        dir=dirname,
        scheme="data_cw",
        scheme_params={"region_size": 64},
        **config_kwargs,
    )
    db = Database(config)
    db.create_table("acct", ACCT_SCHEMA, 64, key_field="id")
    db.start()
    return db


def _seed_accounts(db: Database, count: int = 24) -> dict[int, int]:
    table = db.table("acct")
    txn = db.begin()
    slots = {
        i: table.insert(txn, {"id": i, "balance": 1000 + i, "name": f"a{i}"})
        for i in range(count)
    }
    db.commit(txn)
    return slots


def _apply_updates(db: Database, slots: dict[int, int], spread: int) -> None:
    table = db.table("acct")
    txn = db.begin()
    for i, slot in slots.items():
        table.update(txn, slot, {"balance": 5000 + spread * i})
    db.commit(txn)


def _balances(db: Database, slots: dict[int, int]) -> dict[int, int]:
    table = db.table("acct")
    txn = db.begin()
    out = {i: table.read(txn, slot)["balance"] for i, slot in slots.items()}
    db.commit(txn)
    return out


class TestBackingIdentity:
    def test_workload_is_byte_and_meter_identical(self, tmp_path):
        dbs = {
            backing: _make_db(str(tmp_path / backing), image_backing=backing)
            for backing in ("heap", "mmap")
        }
        states = {}
        for backing, db in dbs.items():
            slots = _seed_accounts(db)
            _apply_updates(db, slots, spread=3)
            db.checkpoint()
            _apply_updates(db, slots, spread=7)
            report = db.audit()
            assert report.clean
            states[backing] = (
                db.memory.snapshot_segments(),
                dict(db.meter.counts),
                db.meter.clock.now_ns,
                _balances(db, slots),
            )
        assert states["mmap"] == states["heap"]
        for db in dbs.values():
            db.close()

    def test_segment_files_exist_and_match_memory(self, tmp_path):
        db = _make_db(str(tmp_path / "db"), image_backing="mmap")
        slots = _seed_accounts(db)
        _apply_updates(db, slots, spread=2)
        db.memory.flush_backing()
        image_dir = os.path.join(db.config.dir, "image")
        for name, snapshot in db.memory.snapshot_segments().items():
            path = os.path.join(image_dir, f"{name}.seg")
            assert os.path.exists(path), path
            with open(path, "rb") as fh:
                assert fh.read() == snapshot, name
        db.close()

    def test_custom_image_path(self, tmp_path):
        backing_dir = str(tmp_path / "elsewhere")
        db = _make_db(
            str(tmp_path / "db"), image_backing="mmap", image_path=backing_dir
        )
        _seed_accounts(db)
        db.memory.flush_backing()
        assert os.path.exists(os.path.join(backing_dir, "acct.data.seg"))
        db.close()


class TestBackingRelease:
    @pytest.mark.parametrize("end", ["close", "crash"])
    def test_close_and_crash_release_mappings_and_files(self, tmp_path, end):
        db = _make_db(str(tmp_path / end), image_backing="mmap")
        _seed_accounts(db)
        segments = db.memory.segments
        handles = [db.memory.backing_range(seg.base, 1)[0] for seg in segments]
        getattr(db, end)()
        assert all(handle.closed for handle in handles)
        assert all(seg.data.closed for seg in segments)
        db.close()  # idempotent after either ending

    def test_heap_image_survives_crash(self, tmp_path):
        db = _make_db(str(tmp_path / "heap"))
        _seed_accounts(db)
        before = db.memory.snapshot_segments()
        db.crash()
        assert db.memory.snapshot_segments() == before


class TestWildWritesInMmap:
    def test_poke_lands_in_backing_file_and_audit_catches_it(self, tmp_path):
        db = _make_db(str(tmp_path / "db"), image_backing="mmap")
        slots = _seed_accounts(db)
        address = db.table("acct").record_address(slots[3]) + 8
        db.memory.poke(address, b"\xde\xad\xbe\xef\xde\xad\xbe\xef")
        db.memory.flush_backing()
        # The wild write went through the mmap: the file holds the garbage.
        seg = db.memory.segment_for(address)
        with open(
            os.path.join(db.config.dir, "image", f"{seg.name}.seg"), "rb"
        ) as fh:
            raw = fh.read()
        offset = address - seg.base
        assert raw[offset : offset + 8] == b"\xde\xad\xbe\xef\xde\xad\xbe\xef"
        # ... and the codeword audit convicts the region all the same.
        report = db.audit()
        assert not report.clean
        assert any(
            start <= address < start + length
            for start, length in report.corrupt_ranges
        )
        db.close()


class TestCheckpointPropagation:
    def test_checkpoint_image_identical_heap_vs_mmap(self, tmp_path):
        images = {}
        for backing in ("heap", "mmap"):
            db = _make_db(str(tmp_path / backing), image_backing=backing)
            slots = _seed_accounts(db)
            _apply_updates(db, slots, spread=5)
            result = db.checkpoint()
            assert result.certified
            with open(
                os.path.join(db.config.dir, f"ckpt_{result.image}.img"), "rb"
            ) as fh:
                images[backing] = (result.image, fh.read())
            db.close()
        assert images["mmap"] == images["heap"]

    @pytest.mark.parametrize("point", CHECKPOINT_CRASH_POINTS)
    def test_crash_during_checkpoint_keeps_usable_anchor(self, tmp_path, point):
        recovered = {}
        for backing in ("heap", "mmap"):
            db = _make_db(str(tmp_path / f"{backing}-{point}"), image_backing=backing)
            slots = _seed_accounts(db)
            _apply_updates(db, slots, spread=3)
            db.checkpoint()
            anchor_before = db.checkpointer.read_anchor()
            _apply_updates(db, slots, spread=9)
            db.crashpoints.arm(point)
            with pytest.raises(SimulatedCrash):
                db.checkpoint()
            anchor_after = db.checkpointer.read_anchor()
            if point == "checkpoint.after_anchor":
                # The new anchor was fully written before the crash.
                assert anchor_after["image"] != anchor_before["image"]
            else:
                # The previous anchor is untouched and still authoritative.
                assert anchor_after == anchor_before
            db.crash()
            db2, _report = Database.recover(db.config)
            recovered[backing] = (
                db2.memory.snapshot_segments(),
                _balances(db2, slots),
            )
            assert db2.audit().clean
            db2.close()
        # mmap recovery converges to the byte-identical heap state.
        assert recovered["mmap"] == recovered["heap"]

    @pytest.mark.parametrize("point", RECOVERY_CRASH_POINTS)
    def test_crash_mid_recovery_with_mmap_converges(self, tmp_path, point):
        recovered = {}
        for backing in ("heap", "mmap"):
            db = _make_db(str(tmp_path / f"{backing}-{point}"), image_backing=backing)
            slots = _seed_accounts(db)
            _apply_updates(db, slots, spread=3)
            db.checkpoint()
            _apply_updates(db, slots, spread=9)
            # Leave a transaction in flight so undo has real work to do.
            txn = db.begin()
            mgr = db.manager
            mgr.begin_operation(txn, "acct:open")
            address = db.table("acct").record_address(slots[0]) + 8
            mgr.update(txn, address, (31337).to_bytes(8, "little"))
            mgr.commit_operation(txn, LogicalUndo("noop"))
            db.checkpoint()
            db.crash()
            # First recovery attempt dies at ``point``; the re-run must
            # converge from the (possibly half-recovered) mmap files.
            registry = CrashPointRegistry().arm(point)
            with pytest.raises(SimulatedCrash):
                Database.recover(db.config, crashpoints=registry)
            db2, _report = Database.recover(db.config)
            recovered[backing] = (
                db2.memory.snapshot_segments(),
                _balances(db2, slots),
            )
            assert db2.audit().clean
            db2.close()
        assert recovered["mmap"] == recovered["heap"]


class TestMmapFaultCampaign:
    def test_small_campaign_zero_false_negatives(self, tmp_path):
        spec = CampaignSpec(
            seeds=(1,),
            schemes=("data_codeword",),
            schedules_per_config=6,
            ops_per_schedule=16,
            image_backing="mmap",
        )
        result = run_campaign(spec, str(tmp_path / "campaign"))
        assert result.errors == []
        assert result.false_negatives == []
        assert result.garbage_served == []
