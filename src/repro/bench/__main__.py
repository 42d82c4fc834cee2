"""Command-line entry point: regenerate the paper's tables.

Usage::

    python -m repro.bench                 # Table 1 + Table 2 at scale 0.02
    python -m repro.bench --table 2 --scale 0.1
    python -m repro.bench --table 1
    python -m repro.bench --sweep         # region-size ablation series
    python -m repro.bench --json BENCH_tables.json   # machine-readable copy
    python -m repro.bench --profile       # cProfile the TPC-B update loop
    python -m repro.bench --faults --faults-backing mmap
    python -m repro.bench --serving       # interleaved sessions + cold wild writes
    python -m repro.bench --replication   # hot-standby detection/failover gate
    python -m repro.bench --sharded       # shard-per-core scale-up curves
    python -m repro.bench --chaos         # supervised worker-kill/hang soak
    python -m repro.bench --serving --quick   # any fault harness, CI smoke size

Each suite registers its flags, selection predicate and runner as a
:class:`repro.bench.suites.Suite`; this module only assembles the
registry, so a new suite is one import plus one tuple entry.
"""

from __future__ import annotations

from repro.bench.chaos import CHAOS_SUITE
from repro.bench.replication import REPLICATION_SUITE
from repro.bench.serving import SERVING_SUITE
from repro.bench.sharded import SHARDED_SUITE
from repro.bench.suites import dispatch
from repro.bench.tables import PROFILE_SUITE, TABLES_SUITE

#: Argument-registration order (= --help order); TABLES_SUITE is the
#: default and runs when no other suite's flag is present.
SUITES = (
    TABLES_SUITE,
    SERVING_SUITE,
    REPLICATION_SUITE,
    SHARDED_SUITE,
    CHAOS_SUITE,
    PROFILE_SUITE,
)


def main(argv: list[str] | None = None) -> int:
    return dispatch(SUITES, argv)


if __name__ == "__main__":
    raise SystemExit(main())
