"""Protection scheme framework: factory, metadata, shared maintenance."""

import pytest

from repro.core import ProtectionPipeline, make_scheme, SCHEME_NAMES
from repro.core.data_codeword import DataCodewordScheme
from repro.core.deferred import DeferredMaintenanceScheme
from repro.core.hardware import HardwareProtectionScheme
from repro.core.precheck import ReadPrecheckScheme
from repro.core.read_logging import ReadLoggingScheme
from repro.core.schemes import BaselineScheme, understood_params
from repro.errors import ConfigError

from tests.conftest import insert_accounts


def sole_member(name, **params):
    """Build ``name`` and return the one member of its pipeline."""
    pipeline = make_scheme(name, **params)
    assert isinstance(pipeline, ProtectionPipeline)
    (member,) = pipeline.members
    return member


class TestFactory:
    def test_all_names_construct(self):
        for name in SCHEME_NAMES:
            assert sole_member(name).name == name

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError):
            make_scheme("magic")

    def test_baseline(self):
        scheme = sole_member("baseline")
        assert isinstance(scheme, BaselineScheme)
        assert scheme.direct_protection == "none"

    def test_precheck_region_size(self):
        scheme = sole_member("precheck", region_size=512)
        assert isinstance(scheme, ReadPrecheckScheme)
        assert scheme.region_size == 512
        assert make_scheme("precheck", region_size=512).region_size == 512

    def test_data_cw_defaults_to_large_regions(self):
        scheme = sole_member("data_cw")
        assert isinstance(scheme, DataCodewordScheme)
        assert scheme.region_size == 65536

    def test_read_logging_variants(self):
        plain = sole_member("read_logging")
        checksummed = sole_member("cw_read_logging")
        assert isinstance(plain, ReadLoggingScheme)
        assert not plain.logs_read_checksums
        assert checksummed.logs_read_checksums
        assert checksummed.name == "cw_read_logging"

    def test_hardware(self):
        assert isinstance(sole_member("hardware"), HardwareProtectionScheme)

    def test_deferred(self):
        assert isinstance(sole_member("deferred"), DeferredMaintenanceScheme)


class TestParams:
    """A single name is a one-member stack: a parameter its member does
    not understand is the same named ConfigError a stack raises."""

    @pytest.mark.parametrize(
        "name, params, key",
        [
            ("data_cw", {"bogus": 1}, "bogus"),
            ("hardware", {"region_size": 64}, "region_size"),
            ("baseline", {"region_size": 64}, "region_size"),
        ],
    )
    def test_foreign_parameter_names_itself(self, name, params, key):
        with pytest.raises(ConfigError, match=f"'{key}'"):
            make_scheme(name, **params)

    @pytest.mark.parametrize(
        "name, kept",
        [
            ("baseline", {}),
            ("hardware", {}),
            ("data_cw", {"region_size": 64}),
            ("hardware+data_cw", {"region_size": 64}),
        ],
    )
    def test_understood_params_keeps_what_a_member_takes(self, name, kept):
        """What a harness that runs any scheme with one parameter set
        hands ``make_scheme``: the keys some member understands."""
        params = understood_params(name, {"region_size": 64})
        assert params == kept
        make_scheme(name, **params)


class TestCapabilityMetadata:
    """The Direct/Indirect columns of Table 2."""

    def test_table2_capability_matrix(self):
        expectations = {
            "baseline": ("none", "none"),
            "data_cw": ("detect", "none"),
            "precheck": ("detect", "prevent"),
            "read_logging": ("detect", "detect+correct"),
            "hardware": ("prevent", "unneeded"),
        }
        for name, (direct, indirect) in expectations.items():
            scheme = make_scheme(name)
            assert scheme.direct_protection == direct, name
            assert scheme.indirect_protection == indirect, name


class TestSpaceOverhead:
    def test_overhead_tracks_region_size(self):
        assert make_scheme("precheck", region_size=64).space_overhead == 4 / 64
        assert make_scheme("precheck", region_size=512).space_overhead == 4 / 512
        assert make_scheme("baseline").space_overhead == 0.0

    def test_paper_64_byte_overhead_is_about_6_percent(self):
        assert make_scheme("precheck", region_size=64).space_overhead == pytest.approx(
            0.0625
        )


@pytest.mark.parametrize(
    "scheme,params",
    [
        ("data_cw", {}),
        ("precheck", {"region_size": 64}),
        ("precheck", {"region_size": 512}),
        ("read_logging", {}),
        ("cw_read_logging", {}),
        ("deferred", {}),
    ],
)
class TestMaintenanceConsistency:
    """Under every codeword scheme, prescribed activity keeps audits clean."""

    def test_workload_then_clean_audit(self, db_factory, scheme, params):
        db = db_factory(scheme=scheme, **params)
        table = db.table("acct")
        slots = insert_accounts(db, 20)
        txn = db.begin()
        for i in range(10):
            table.update(txn, slots[i], {"balance": i * 11})
        table.delete(txn, slots[19])
        db.commit(txn)
        txn = db.begin()
        db.abort(txn)
        assert db.audit().clean

    def test_txn_abort_keeps_codewords_consistent(self, db_factory, scheme, params):
        db = db_factory(scheme=scheme, **params)
        table = db.table("acct")
        slots = insert_accounts(db, 5)
        txn = db.begin()
        table.update(txn, slots[0], {"balance": 999})
        table.insert(txn, {"id": 100, "balance": 1})
        table.delete(txn, slots[1])
        db.abort(txn)
        assert db.audit().clean

    def test_wild_write_detected_by_audit(self, db_factory, scheme, params):
        db = db_factory(scheme=scheme, **params)
        insert_accounts(db, 5)
        db.memory.poke(db.table("acct").record_address(2), b"\xde\xad")
        report = db.audit()
        assert not report.clean
        assert len(report.corrupt_regions) == 1
