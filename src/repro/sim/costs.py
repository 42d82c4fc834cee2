"""Calibrated unit costs for the virtual-time performance model.

The reproduction separates *mechanics* from *calibration*:

* Mechanics -- how many words a scheme folds, how many regions a read
  spans, how many pages an operation updates, how many log bytes a commit
  flushes -- are measured from the real implementation as it runs.
* Calibration -- how many nanoseconds one such event costs on the paper's
  2x200 MHz UltraSPARC -- lives *only* in this module.

The constants below were fitted once against Table 2 of the paper (see
EXPERIMENTS.md for the paper-vs-measured comparison).  Nothing else in the
code base contains timing magic numbers.

Calibration rationale
---------------------
* ``base_operation`` anchors the baseline row of Table 2 (417 ops/sec =
  2.398 ms per TPC-B operation).  It stands for the part of Dali's code
  path this reproduction models functionally but not at instruction
  granularity (buffer arithmetic, function-call overhead, cache misses of
  the C implementation).
* ``cw_maint_fixed``/``cw_maint_word`` reproduce the Data Codeword row:
  maintenance cost is dominated by per-update processing of the undo and
  redo images, plus a per-word XOR fold.
* ``cw_check_fixed``/``cw_check_word`` reproduce the Read Prechecking rows:
  checking is a sequential fold of the whole region, so its cost scales
  with region size -- the time/space tradeoff of Section 5.3.
* ``readlog_record``/``readlog_byte`` reproduce the Read Logging row, and
  ``checksum_word`` the additional cost of logging checksums of the bytes
  read (CW ReadLog row).
* ``mprotect`` costs come from Table 1 (see ``repro.bench.platforms``):
  a per-syscall fixed cost plus a per-page PTE cost.  Inside a running
  workload each call additionally pays ``mprotect_workload_penalty`` for
  the TLB/cache refill it forces on the working set -- a tight
  protect/unprotect microbenchmark touches no data and therefore never
  pays it, which is why the in-DBMS cost per call exceeds the Table 1
  microbenchmark cost (Section 5.3 observes 38% slowdown; Table 1 alone
  would predict ~11%).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


def _default_unit_costs() -> dict[str, int]:
    return {
        # -------------------------------------------------- baseline path
        "base_operation": 2_191_000,  # fixed per TPC-B operation
        "op_begin": 3_000,
        "op_commit": 8_000,           # migrate local redo to system log
        "txn_begin": 10_000,
        "txn_commit": 60_000,         # commit record + flush initiation
        "txn_prepare": 60_000,        # 2PC vote: prepare record + forced flush
        "lock_acquire": 2_000,
        "lock_release": 1_000,
        "latch_pair": 1_000,          # shared or exclusive acquire+release
        "index_probe": 4_000,
        "index_update": 6_000,
        "record_read": 3_000,         # copy + field decode, per record
        "record_write": 3_000,
        "begin_update": 2_000,        # undo image capture
        "end_update": 4_000,          # redo image + local log append
        "log_record": 1_500,          # fixed per log record appended
        "log_byte": 15,               # per byte appended to any log
        "flush_byte": 8,              # per byte moved to the stable log
        "flush_fixed": 40_000,        # per flush (system log latch + I/O setup)
        "alloc_slot": 2_500,
        "free_slot": 2_500,
        # -------------------------------------------- codeword maintenance
        "cw_maint_fixed": 15_000,     # per physical update (image processing)
        "cw_maint_word": 600,         # per 32-bit word folded (old + new)
        "deferred_update": 3_000,     # per update under deferred maintenance
        # ---------------------------------------------- codeword checking
        "cw_check_fixed": 1_500,      # per region checked
        "cw_check_word": 230,         # per 32-bit word folded sequentially
        # -------------------------------------------------- read logging
        "readlog_record": 14_500,     # per read log record built + appended
        "readlog_byte": 15,           # per byte of read log record
        "checksum_word": 1_200,       # per word checksummed for CW read log
        # --------------------------------------------- hardware protection
        # per-call syscall cost comes from the platform profile; this is
        # the additional working-set TLB/cache refill paid inside the DBMS
        "mprotect_workload_penalty": 70_500,
        # ------------------------------------------------------ recovery
        "redo_apply": 2_000,          # per physical redo applied at restart
        "undo_apply": 2_500,
        # ------------------------------------------------------- audits
        "audit_region": 0,            # accounted via cw_check_* events
    }


@dataclass(frozen=True)
class CostModel:
    """Immutable table of per-event unit costs in nanoseconds.

    Instances are cheap to derive: ``costs.override(cw_check_word=500)``
    returns a new model, which is how ablation benchmarks explore the
    sensitivity of the Table 2 shape to individual constants.
    """

    unit_costs: dict[str, int] = field(default_factory=_default_unit_costs)

    def __post_init__(self) -> None:
        negative = {event: ns for event, ns in self.unit_costs.items() if ns < 0}
        if negative:
            raise ValueError(f"negative unit costs would run the clock backwards: {negative}")

    def unit_ns(self, event: str) -> int:
        try:
            return self.unit_costs[event]
        except KeyError:
            raise KeyError(
                f"unknown cost event {event!r}; add it to CostModel before "
                "charging it"
            ) from None

    def override(self, **events_ns: int) -> "CostModel":
        """Return a copy with the given event costs replaced."""
        merged = dict(self.unit_costs)
        for event, ns in events_ns.items():
            if event not in merged:
                raise KeyError(f"unknown cost event {event!r}")
            merged[event] = ns
        return replace(self, unit_costs=merged)

    @classmethod
    def free(cls) -> "CostModel":
        """A model where every event costs zero.

        Used by functional tests that exercise the storage manager without
        caring about virtual time.
        """
        return cls(unit_costs={event: 0 for event in _default_unit_costs()})


DEFAULT_COSTS = CostModel()
