"""Per-suite registration for the ``python -m repro.bench`` CLI.

Each benchmark suite (the paper tables, the serving matrix, the
replication campaign, the sharded scale-up, ...) registers itself as a
:class:`Suite`: a bundle of argparse flags, a selection predicate, and a
runner.  ``__main__`` just assembles the registered suites and calls
:func:`dispatch` -- adding a new suite is a registration, not another
``elif`` arm in a 400-line main.

The fault harnesses (``--serving``, ``--sharded``, ``--chaos``,
``--replication``) share one gate driver, :func:`run_gated`, and one
``--quick`` flag that shrinks each of them to its CI smoke size.
"""

from __future__ import annotations

import argparse
import shutil
import tempfile
from dataclasses import dataclass
from typing import Callable

from repro.bench.reporting import write_bench_json


@dataclass(frozen=True)
class Suite:
    """One selectable benchmark suite of the CLI.

    ``add_arguments`` contributes the suite's flags to the shared parser.
    ``selected`` decides (from the parsed namespace) whether this suite
    runs; the single suite registered with ``selected=None`` is the
    default, picked when no other suite claims the invocation.  ``run``
    returns the process exit code.
    """

    name: str
    add_arguments: Callable[[argparse.ArgumentParser], None]
    run: Callable[[argparse.Namespace], int]
    selected: Callable[[argparse.Namespace], bool] | None = None


def build_parser(suites: tuple[Suite, ...]) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the tables of the ICDE 1999 codeword paper.",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="shrink a --serving/--sharded/--chaos/--replication run to its "
        "CI smoke size",
    )
    for suite in suites:
        suite.add_arguments(parser)
    return parser


def dispatch(suites: tuple[Suite, ...], argv: list[str] | None = None) -> int:
    """Parse ``argv`` and run the first selected suite (or the default)."""
    args = build_parser(suites).parse_args(argv)
    default: Suite | None = None
    for suite in suites:
        if suite.selected is None:
            if default is not None:
                raise ValueError(
                    f"two default suites: {default.name!r} and {suite.name!r}"
                )
            default = suite
            continue
        if suite.selected(args):
            return suite.run(args)
    if default is None:
        raise ValueError("no suite selected and no default registered")
    return default.run(args)


def report_gates(failures: list[str]) -> int:
    """Print one ``GATE:`` line per breach; the process exit code."""
    if not failures:
        return 0
    print()
    for failure in failures:
        print(f"GATE: {failure}")
    return 1


def run_gated(
    name: str,
    json_path: str | None,
    run: Callable[[str], tuple[dict, list[str]]],
) -> int:
    """The gate driver every fault harness runs through.

    ``run(workdir)`` drives the harness in a fresh temporary directory,
    prints its report and returns ``(payload, failures)``: the JSON
    artifact for ``json_path`` and every gate breach as one line.
    """
    workdir = tempfile.mkdtemp(prefix=f"repro-{name}-")
    try:
        payload, failures = run(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if json_path:
        write_bench_json(json_path, payload)
        print(f"\nwrote {json_path}")
    return report_gates(failures)
