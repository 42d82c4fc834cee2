"""Read prechecking's one-pass fold against the per-region loop it replaced.

``CodewordMaintainer.precheck`` checks every region a read spans in one
call: it skips regions already checked in the operation, refuses a
quarantined region, folds the rest straight from their segment under the
protection latch and charges the check events once per read.  That must
change the *cost* of a read only.  :class:`PerRegionMaintainer` is the
reference: the region-at-a-time loop, one latch context and three meter
charges per region.  Each case runs the same reads on two identical
``precheck+read_logging`` banks -- one as shipped, one whose maintainer
is the reference -- and requires the same exception class and region
list, ``precheck_count`` / ``precheck_failures``, meter snapshot (counts
and virtual ns), ``checked_regions`` contents and quarantine set.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database, DBConfig
from repro.core.codeword import word_count
from repro.core.maintainer import CodewordMaintainer
from repro.errors import CorruptionDetected, QuarantinedRegionError
from tests.conftest import ACCT_SCHEMA, insert_accounts

REGION = 64


class PerRegionMaintainer(CodewordMaintainer):
    """The reference: one latch, three charges and one fold per region."""

    def precheck(self, checked, address, length):
        table = self.table
        for region_id in table.regions_spanning(address, length):
            if region_id in checked:
                continue
            checked.add(region_id)
            if region_id in self.quarantined:
                raise QuarantinedRegionError([region_id])
            self.precheck_count += 1
            with self.protection_latches.latch(region_id).exclusive():
                self.meter.charge("latch_pair")
                _start, region_len = table.region_bounds(region_id)
                self.meter.charge("cw_check_fixed")
                self.meter.charge("cw_check_word", word_count(region_len))
                matches = table.matches(region_id)
            if not matches:
                self.precheck_failures += 1
                if self.quarantine_on_detect:
                    self.quarantine([region_id])
                    raise QuarantinedRegionError([region_id])
                raise CorruptionDetected([region_id], context="read precheck")


def _bank(path, reference: bool, quarantine_on_detect: bool) -> Database:
    db = Database(
        DBConfig(
            dir=str(path),
            scheme="precheck+read_logging",
            scheme_params={"region_size": REGION},
        )
    )
    db.create_table("acct", ACCT_SCHEMA, 64, key_field="id")
    db.start()
    insert_accounts(db, 48)
    maintainer = db.pipeline.maintainer
    if reference:
        maintainer.__class__ = PerRegionMaintainer
    maintainer.quarantine_on_detect = quarantine_on_detect
    return db


def _corrupt(db: Database, region_id: int) -> None:
    """Flip one word of a region (an odd word count never self-cancels)."""
    address = region_id * REGION + 4
    word = db.memory.read(address, 4)
    db.memory.poke(address, bytes(b ^ 0x5A for b in word))


def _run(db: Database, reads, corrupt=(), quarantined=()) -> dict:
    """Apply the faults, then run ``reads`` inside one operation."""
    for region_id in corrupt:
        _corrupt(db, region_id)
    db.pipeline.maintainer.quarantine(quarantined)
    precheck = db.pipeline.member("precheck")
    counts_before = (precheck.precheck_count, precheck.precheck_failures)
    db.meter.reset()
    txn = db.begin()
    db.manager.begin_operation(txn, "probe")
    outcomes = []
    for address, length in reads:
        try:
            db.manager.read(txn, address, length)
            outcomes.append(None)
        except (CorruptionDetected, QuarantinedRegionError) as exc:
            outcomes.append((type(exc), list(exc.region_ids)))
    return {
        "outcomes": outcomes,
        "precheck_count": precheck.precheck_count - counts_before[0],
        "precheck_failures": precheck.precheck_failures - counts_before[1],
        "meter": db.meter.snapshot(),
        "checked": sorted(txn.scheme_state.get("checked_regions", ())),
        "quarantined": sorted(db.pipeline.maintainer.quarantined),
    }


def _both(tmp_path, reads, quarantine_on_detect=False, **faults):
    observed = []
    for name, reference in (("fused", False), ("reference", True)):
        db = _bank(tmp_path / name, reference, quarantine_on_detect)
        try:
            observed.append(_run(db, reads, **faults))
        finally:
            db.close()
    return observed


# A read starting 8 bytes into region 10: two regions (10-11) or three
# (10-12), so the faulty region can be the first, middle or last.
FIRST = 10
SPANS = {2: (FIRST * REGION + 8, REGION), 3: (FIRST * REGION + 8, 2 * REGION)}
POSITIONS = [(2, 0), (2, 1), (3, 0), (3, 1), (3, 2)]


@pytest.mark.parametrize("quarantine_on_detect", [False, True])
@pytest.mark.parametrize("kind", ["corrupt", "quarantined"])
@pytest.mark.parametrize("span,position", POSITIONS)
def test_fault_anywhere_in_span_matches_reference(
    tmp_path, span, position, kind, quarantine_on_detect
):
    faulty = FIRST + position
    # The same read twice: the second meets the regions the first reached
    # already in ``checked_regions``.
    reads = [SPANS[span], SPANS[span]]
    fused, reference = _both(
        tmp_path, reads, quarantine_on_detect, **{kind: [faulty]}
    )
    assert fused == reference
    failed, again = fused["outcomes"]
    assert failed is not None and failed[1] == [faulty]
    # The faulty region joined ``checked_regions`` when the first read
    # reached it, so the repeat read skips it and checks the rest.
    assert again is None
    assert fused["checked"] == list(range(FIRST, FIRST + span))


def test_clean_multi_region_read_matches_reference(tmp_path):
    reads = [SPANS[3], (FIRST * REGION, 4), SPANS[2], (0, 7 * REGION + 3)]
    fused, reference = _both(tmp_path, reads)
    assert fused == reference
    assert fused["outcomes"] == [None] * len(reads)
    assert fused["meter"]["cw_check_fixed"][0] == fused["precheck_count"] == 11


@settings(max_examples=40, deadline=None)
@given(
    reads=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=40 * REGION),
            st.integers(min_value=0, max_value=3 * REGION),
        ),
        min_size=1,
        max_size=8,
    ),
    corrupt=st.sets(st.integers(min_value=0, max_value=44), max_size=3),
    quarantined=st.sets(st.integers(min_value=0, max_value=44), max_size=2),
    quarantine_on_detect=st.booleans(),
)
def test_random_read_spans_match_reference(
    tmp_path_factory, reads, corrupt, quarantined, quarantine_on_detect
):
    tmp_path = tmp_path_factory.mktemp("fused")
    fused, reference = _both(
        tmp_path,
        reads,
        quarantine_on_detect,
        corrupt=sorted(corrupt),
        quarantined=sorted(quarantined),
    )
    assert fused == reference
