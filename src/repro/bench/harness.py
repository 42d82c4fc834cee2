"""The Table 2 harness: run the TPC-B workload under each scheme.

Measurement protocol (Section 5.2/5.3, adapted to virtual time):

* build + load the database, take the initial checkpoint -- none of this
  is timed;
* snapshot the virtual clock, run the configured number of operations
  (committing every ``ops_per_txn``), snapshot again;
* ops/sec = operations / elapsed virtual seconds.

The checkpointer runs off the measured path, as on the paper's two-CPU
machine, but logging and commit-time flushes are on it.  Each run reports
its full event breakdown so a slowdown is always decomposable into
"N events of kind K".
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass, field

from repro.bench.tpcb import TPCBConfig, TPCBWorkload, build_tpcb_database, load_tpcb
from repro.sim.costs import CostModel, DEFAULT_COSTS
from repro.storage.database import Database, DBConfig


@dataclass(frozen=True)
class SchemeSpec:
    """One row of Table 2: a label plus a scheme configuration."""

    label: str
    scheme: str
    params: dict = field(default_factory=dict)
    paper_ops_per_sec: float | None = None
    paper_slowdown_pct: float | None = None

    def scheme_dir(self) -> str:
        """A filesystem-safe per-run directory name."""
        scheme = self.scheme.replace("+", "-")
        suffix = "_".join(f"{k}{v}" for k, v in sorted(self.params.items()))
        return f"{scheme}_{suffix}" if suffix else scheme


#: The rows of Table 2 in the paper's order.
TABLE2_ROWS: tuple[SchemeSpec, ...] = (
    SchemeSpec("Baseline", "baseline", {}, 417, 0.0),
    SchemeSpec("Data CW", "data_cw", {}, 380, 8.5),
    SchemeSpec(
        "Data CW w/Precheck, 64 byte", "precheck", {"region_size": 64}, 366, 12.2
    ),
    SchemeSpec("Data CW w/ReadLog", "read_logging", {}, 345, 17.1),
    SchemeSpec("Data CW w/CW ReadLog", "cw_read_logging", {}, 323, 22.4),
    SchemeSpec(
        "Data CW w/Precheck, 512 byte", "precheck", {"region_size": 512}, 311, 25.4
    ),
    SchemeSpec("Memory Protection", "hardware", {}, 257, 38.2),
    SchemeSpec(
        "Data CW w/Precheck, 8K byte", "precheck", {"region_size": 8192}, 115, 72.4
    ),
)

#: Stacked-pipeline rows (no paper counterparts -- the paper measured the
#: levels one at a time; §4.2/§4.3 discuss exactly these combinations).
#: Run with ``python -m repro.bench --table 2 --stacked``.
STACKED_ROWS: tuple[SchemeSpec, ...] = (
    SchemeSpec("Stack: Data CW + ReadLog", "data_cw+read_logging", {}),
    SchemeSpec("Stack: Data CW + CW ReadLog", "data_cw+cw_read_logging", {}),
    SchemeSpec(
        "Stack: Precheck 64 + ReadLog",
        "precheck+read_logging",
        {"region_size": 64},
    ),
)


@dataclass
class RunResult:
    """Outcome of one scheme's workload run."""

    label: str
    scheme: str
    operations: int
    elapsed_virtual_s: float
    ops_per_sec: float
    slowdown_pct: float | None  # vs the baseline of the same batch
    paper_ops_per_sec: float | None
    paper_slowdown_pct: float | None
    space_overhead_pct: float
    events: dict[str, tuple[int, int]]
    #: the scheme_params the run was configured with (e.g. precheck
    #: region size) -- reported so a captured row is reproducible.
    scheme_params: dict = field(default_factory=dict)

    def events_per_op(self, event: str) -> float:
        count, _ns = self.events.get(event, (0, 0))
        return count / self.operations if self.operations else 0.0


def run_scheme(
    spec: SchemeSpec,
    workload_config: TPCBConfig,
    workdir: str,
    costs: CostModel = DEFAULT_COSTS,
    keep_db: bool = False,
) -> RunResult | tuple[RunResult, Database]:
    """Run the TPC-B workload once under ``spec``; returns its result.

    ``workdir`` is created (and wiped) per run.  With ``keep_db`` the live
    database is returned too (for benchmarks that continue using it).
    """
    if os.path.exists(workdir):
        shutil.rmtree(workdir)
    db_config = DBConfig(
        dir=workdir, scheme=spec.scheme, scheme_params=dict(spec.params), costs=costs
    )
    db = build_tpcb_database(db_config, workload_config)
    load_tpcb(db, workload_config)
    db.checkpoint()

    start_ns = db.clock.now_ns
    db.meter.reset()  # exact: no other thread is charging yet
    runner = TPCBWorkload(db, workload_config)
    operations = runner.run()
    elapsed_s = (db.clock.now_ns - start_ns) / 1e9

    result = RunResult(
        label=spec.label,
        scheme=spec.scheme,
        operations=operations,
        elapsed_virtual_s=elapsed_s,
        ops_per_sec=operations / elapsed_s if elapsed_s else float("inf"),
        slowdown_pct=None,
        paper_ops_per_sec=spec.paper_ops_per_sec,
        paper_slowdown_pct=spec.paper_slowdown_pct,
        space_overhead_pct=db.pipeline.space_overhead * 100.0,
        events=db.meter.snapshot(),
        scheme_params=dict(spec.params),
    )
    if keep_db:
        return result, db
    db.close()
    return result


def run_table2(
    workload_config: TPCBConfig,
    workdir: str,
    rows: tuple[SchemeSpec, ...] = TABLE2_ROWS,
    costs: CostModel = DEFAULT_COSTS,
) -> list[RunResult]:
    """Run every row of Table 2; slowdowns are relative to the first row."""
    results: list[RunResult] = []
    baseline_ops: float | None = None
    for spec in rows:
        result = run_scheme(
            spec, workload_config, os.path.join(workdir, spec.scheme_dir()), costs
        )
        if baseline_ops is None:
            baseline_ops = result.ops_per_sec
            result.slowdown_pct = 0.0
        else:
            result.slowdown_pct = 100.0 * (1.0 - result.ops_per_sec / baseline_ops)
        results.append(result)
    return results
