"""Composable protection pipelines: folding, stacking, combined recovery.

Covers the §4.2/§4.3 scheme combinations made configurable by
``ProtectionPipeline``: capability folding and shared-maintainer policy,
``make_scheme`` stack parsing and its error messages, abandoned update
windows and physical-undo replay under multi-scheme stacks, and the
end-to-end acceptance scenario -- a stacked config surviving a wild
write with recovery driven by both audit and checksum evidence.
"""

import json

import pytest

from repro import Database, FaultInjector
from repro.bench.harness import RunResult, SchemeSpec, STACKED_ROWS, run_scheme
from repro.bench.reporting import bench_json_payload, run_result_to_dict
from repro.bench.tpcb import TPCBConfig
from repro.core import (
    CodewordSchemeBase,
    ProtectionPipeline,
    SCHEME_NAMES,
    make_scheme,
)
from repro.errors import ConfigError
from repro.txn.latches import EXCLUSIVE

from tests.conftest import insert_accounts


# ------------------------------------------------------- make_scheme errors


class TestMakeSchemeErrors:
    def test_unknown_scheme_names_itself_and_lists_valid(self):
        with pytest.raises(ConfigError) as exc:
            make_scheme("bogus")
        message = str(exc.value)
        assert "'bogus'" in message
        for name in SCHEME_NAMES:
            assert name in message

    def test_unknown_stack_member_rejected(self):
        with pytest.raises(ConfigError) as exc:
            make_scheme("data_cw+bogus")
        assert "'bogus'" in str(exc.value)

    def test_empty_stack_member_rejected(self):
        with pytest.raises(ConfigError):
            make_scheme("data_cw+")

    def test_duplicate_member_rejected_through_alias(self):
        # "codeword" is an alias of data_cw; the stack resolves both to
        # the same canonical scheme.
        with pytest.raises(ConfigError):
            make_scheme("data_cw+codeword")

    def test_alias_resolves_to_canonical_scheme(self):
        assert make_scheme("data_codeword").name == "data_cw"

    def test_param_no_member_accepts_rejected(self):
        with pytest.raises(ConfigError):
            make_scheme("data_cw+read_logging", bogus_param=1)

    def test_deferred_cannot_stack_with_precheck(self):
        with pytest.raises(ConfigError) as exc:
            make_scheme("deferred+precheck")
        assert "stale" in str(exc.value)


# -------------------------------------------------------- capability folding


class TestPipelineFolding:
    def test_stack_builds_pipeline_with_folded_capabilities(self):
        pipeline = make_scheme("data_cw+read_logging")
        assert isinstance(pipeline, ProtectionPipeline)
        assert pipeline.name == "data_cw+read_logging"
        assert pipeline.uses_codewords
        assert pipeline.logs_reads
        assert not pipeline.logs_read_checksums
        assert not pipeline.combines_evidence
        assert pipeline.direct_protection == "detect"
        assert pipeline.indirect_protection == "detect+correct"

    def test_checksum_plus_audit_member_combines_evidence(self):
        pipeline = make_scheme("data_cw+cw_read_logging")
        assert pipeline.logs_read_checksums
        assert pipeline.combines_evidence

    def test_checksums_alone_do_not_combine(self):
        # A single-member pipeline over cw_read_logging has no
        # audit-only codeword member; recovery stays view-consistent.
        pipeline = ProtectionPipeline([make_scheme("cw_read_logging")])
        assert pipeline.logs_read_checksums
        assert not pipeline.combines_evidence

    def test_codeword_members_share_one_maintainer(self):
        pipeline = make_scheme("data_cw+cw_read_logging")
        members = [m for m in pipeline.members if isinstance(m, CodewordSchemeBase)]
        assert len(members) == 2
        assert members[0].maintainer is members[1].maintainer
        assert members[0].maintainer is pipeline.maintainer

    def test_shared_maintainer_takes_smallest_region(self):
        pipeline = ProtectionPipeline(
            [
                make_scheme("data_cw", region_size=128),
                make_scheme("read_logging", region_size=32),
            ]
        )
        assert pipeline.maintainer.region_size == 32
        assert pipeline.region_size == 32

    def test_shared_maintainer_takes_strictest_latch_mode(self):
        pipeline = make_scheme("precheck+read_logging", region_size=64)
        assert pipeline.maintainer.update_latch_mode == EXCLUSIVE

    def test_prevention_member_makes_indirect_unneeded(self):
        pipeline = make_scheme("hardware+read_logging")
        assert pipeline.direct_protection == "prevent"
        assert pipeline.indirect_protection == "unneeded"
        assert pipeline.member("hardware").guards_pages

    def test_single_scheme_config_is_a_one_member_pipeline(self, db_factory):
        db = db_factory(scheme="data_cw")
        assert isinstance(db.pipeline, ProtectionPipeline)
        assert [m.name for m in db.pipeline.members] == ["data_cw"]
        assert db.pipeline.member("data_cw").maintainer is db.pipeline.maintainer

    def test_stacked_config_exposes_pipeline(self, db_factory):
        db = db_factory(scheme="data_cw+read_logging")
        report = db.report()
        assert report["scheme"]["members"] == ["data_cw", "read_logging"]


# ----------------------------------------- windows and undo under a stack


class TestStackedWindowsAndUndo:
    def _open_window_then_abort(self, db, poke=b"\xff" * 8):
        """Open an update window, scribble, abort before end_update."""
        table = db.table("acct")
        slots = insert_accounts(db, 4)
        address = table.record_address(slots[3]) + 8  # balance field
        txn = db.begin()
        db.manager.begin_operation(txn, "acct:abandon")
        db.manager.begin_update(txn, address, 8)
        db.manager.write(txn, address, poke)
        db.abort(txn)
        return slots

    def test_abandoned_window_rolls_back_cleanly(self, db_factory):
        """Abort inside an open window: close_update_window_batch + undo with
        codeword_applied=False must leave codewords and latches intact."""
        db = db_factory(scheme="data_cw+cw_read_logging")
        slots = self._open_window_then_abort(db)
        # The undo ran with codeword_applied=False: the stored codeword
        # still matched the old content, so the restore left it alone.
        # Double-maintaining it would make this audit fail.
        assert db.audit().clean
        assert not db.pipeline.protection_latches.any_held()
        txn = db.begin()
        assert db.table("acct").read(txn, slots[3])["balance"] == 100
        db.commit(txn)

    def test_abandoned_window_under_hardware_stack(self, db_factory):
        """Page-guarded stack: rollback writes go through expose/cover."""
        db = db_factory(scheme="hardware+data_cw")
        slots = self._open_window_then_abort(db)
        assert db.audit().clean
        txn = db.begin()
        assert db.table("acct").read(txn, slots[3])["balance"] == 100
        # The pages are covered again: a fresh prescribed update works.
        db.table("acct").update(txn, slots[2], {"balance": 222})
        db.commit(txn)

    def test_completed_update_undo_fixes_codeword(self, db_factory):
        """Operation abort after end_update replays a PhysicalUndo with
        codeword_applied=True: the shared maintainer must fold the
        restore back into the one shared table."""
        db = db_factory(scheme="data_cw+read_logging")
        table = db.table("acct")
        slots = insert_accounts(db, 4)
        address = table.record_address(slots[1]) + 8
        txn = db.begin()
        db.manager.begin_operation(txn, "acct:undone")
        db.manager.update(txn, address, (999).to_bytes(8, "little"))
        entry = txn.undo_log.entries[-1]
        assert entry.codeword_applied
        db.manager.abort_operation(txn)
        db.commit(txn)
        assert db.audit().clean
        txn = db.begin()
        assert table.read(txn, slots[1])["balance"] == 100
        db.commit(txn)


# ------------------------------------------------ end-to-end stacked recovery


def corrupted_stacked_db(db_factory, scheme, **params):
    db = db_factory(scheme=scheme, **params)
    slots = insert_accounts(db, 12)
    db.checkpoint()
    return db, slots


def crash_and_recover(db):
    report = db.audit()
    assert not report.clean
    db.crash_with_corruption(report)
    return Database.recover(db.config)


class TestStackedRecovery:
    def test_acceptance_stack_runs_and_recovers(self, db_factory):
        """The ISSUE acceptance config: data_codeword+read_logging runs
        the workload and survives a wild write with delete-transaction
        recovery (audit evidence drives the CorruptDataTable)."""
        db, slots = corrupted_stacked_db(
            db_factory, "data_codeword+read_logging", region_size=64
        )
        table = db.table("acct")
        injector = FaultInjector(db, seed=7)
        injector.wild_write(table.record_address(slots[1]) + 8, 8)
        txn = db.begin()
        bad = table.read(txn, slots[1])["balance"]
        table.update(txn, slots[2], {"balance": bad})
        db.commit(txn)
        carrier = txn.txn_id
        txn = db.begin()
        table.update(txn, slots[5], {"balance": 555})
        db.commit(txn)
        clean = txn.txn_id
        db2, report = crash_and_recover(db)
        assert report.mode == "delete-transaction"
        assert carrier in report.deleted_set
        assert clean not in report.deleted_set
        txn = db2.begin()
        t2 = db2.table("acct")
        assert t2.read(txn, slots[1])["balance"] == 100
        assert t2.read(txn, slots[2])["balance"] == 100
        assert t2.read(txn, slots[5])["balance"] == 555
        db2.commit(txn)
        assert db2.audit().clean

    def test_combined_evidence_recovery(self, db_factory):
        """data_cw+cw_read_logging: recovery unions both evidence kinds.

        The carrier is recruited by its read checksum; a blind writer
        into the corrupt region has matching checksums everywhere (the
        wild write never touched the bytes it read and wrote) and can
        only be recruited through the audit-populated CorruptDataTable.
        """
        db, slots = corrupted_stacked_db(
            db_factory, "data_cw+cw_read_logging", region_size=64
        )
        table = db.table("acct")
        injector = FaultInjector(db, seed=7)
        injector.wild_write(table.record_address(slots[1]) + 8, 8)
        # Carrier: reads the corrupt balance, spreads it.
        txn = db.begin()
        bad = table.read(txn, slots[1])["balance"]
        table.update(txn, slots[2], {"balance": bad})
        db.commit(txn)
        carrier = txn.txn_id
        # Blind writer into the corrupt 64-byte region (slot 0 shares it
        # with slot 1): checksums cannot implicate it.
        txn = db.begin()
        table.update(txn, slots[0], {"balance": 77})
        db.commit(txn)
        blind_writer = txn.txn_id
        # Clean bystander in an uncorrupted region.
        txn = db.begin()
        table.update(txn, slots[5], {"balance": 555})
        db.commit(txn)
        clean = txn.txn_id

        db2, report = crash_and_recover(db)
        assert report.mode == "delete-transaction-combined"
        assert report.recruited[carrier] == "read checksum mismatch"
        assert blind_writer in report.deleted_set
        assert "marked corrupt" in report.recruited[blind_writer]
        assert clean not in report.deleted_set
        assert report.corrupt_range_count > 0  # audit evidence was live

        txn = db2.begin()
        t2 = db2.table("acct")
        assert t2.read(txn, slots[0])["balance"] == 100
        assert t2.read(txn, slots[1])["balance"] == 100
        assert t2.read(txn, slots[2])["balance"] == 100
        assert t2.read(txn, slots[5])["balance"] == 555
        db2.commit(txn)
        assert db2.audit().clean

    def test_view_mode_misses_the_blind_writer(self, db_factory):
        """Control for the combined test: pure checksum evidence does not
        recruit the blind writer -- the gap the combination closes."""
        db, slots = corrupted_stacked_db(db_factory, "cw_read_logging", region_size=64)
        table = db.table("acct")
        injector = FaultInjector(db, seed=7)
        injector.wild_write(table.record_address(slots[1]) + 8, 8)
        txn = db.begin()
        table.update(txn, slots[0], {"balance": 77})
        db.commit(txn)
        blind_writer = txn.txn_id
        db2, report = crash_and_recover(db)
        assert report.mode == "delete-transaction-view"
        assert blind_writer not in report.deleted_set


# ------------------------------------------------------------ bench surface


class TestStackedBench:
    def test_stacked_rows_have_no_paper_counterparts(self):
        assert all("+" in spec.scheme for spec in STACKED_ROWS)
        assert all(spec.paper_ops_per_sec is None for spec in STACKED_ROWS)

    def test_harness_runs_a_stacked_config(self, tmp_path):
        spec = SchemeSpec("Stack", "data_cw+read_logging", {})
        result = run_scheme(spec, TPCBConfig().scaled(0.001), str(tmp_path / "run"))
        assert result.operations > 0
        assert result.ops_per_sec > 0
        assert result.space_overhead_pct > 0

    def test_json_report_records_scheme_params(self):
        result = RunResult(
            label="Data CW w/Precheck, 64 byte",
            scheme="precheck",
            operations=10,
            elapsed_virtual_s=1.0,
            ops_per_sec=10.0,
            slowdown_pct=None,
            paper_ops_per_sec=None,
            paper_slowdown_pct=None,
            space_overhead_pct=0.1,
            events={},
            scheme_params={"region_size": 64, "costs": object()},
        )
        payload = run_result_to_dict(result)
        assert payload["scheme_params"]["region_size"] == 64
        # Non-primitive params are stringified, keeping the payload
        # JSON-serializable.
        assert isinstance(payload["scheme_params"]["costs"], str)
        json.dumps(bench_json_payload(table2=[result]))
