"""Per-suite registration for the ``python -m repro.bench`` CLI.

Each benchmark suite (the paper tables, the serving matrix, the
replication campaign, the sharded scale-up, ...) registers itself as a
:class:`Suite`: a bundle of argparse flags, a selection predicate, and a
runner.  ``__main__`` just assembles the registered suites and calls
:func:`dispatch` -- adding a new suite is a registration, not another
``elif`` arm in a 400-line main.

The fault harnesses (``--serving``, ``--sharded``, ``--chaos``,
``--replication``) register through one helper, :func:`harness_suite`
(a ``--NAME`` flag and a ``--NAME-json`` path), share one gate driver,
:func:`run_gated`, and one ``--quick`` flag that shrinks each of them to
its CI smoke size.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import tempfile
from dataclasses import asdict, dataclass
from typing import Callable

from repro.bench.reporting import render_table, write_bench_json
from repro.faults.campaign import gate_lines, spec_payload

#: Layout version of the serving, sharded and chaos JSON artifacts.
HARNESS_JSON_VERSION = 2


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


def harness_suite(
    name: str,
    help: str,
    run: Callable[[argparse.Namespace, str], tuple[dict, list[str]]],
) -> Suite:
    """A fault harness's registration: ``--NAME`` selects it,
    ``--NAME-json`` names its artifact (``BENCH_NAME.json``), and
    ``run(args, workdir)`` goes through :func:`run_gated`."""

    def add_arguments(parser: argparse.ArgumentParser) -> None:
        parser.add_argument(f"--{name}", action="store_true", help=help)
        parser.add_argument(
            f"--{name}-json",
            metavar="PATH",
            default=f"BENCH_{name}.json",
            help=f"where --{name} writes its JSON artifact "
            f"(default: BENCH_{name}.json)",
        )

    return Suite(
        name=name,
        add_arguments=add_arguments,
        run=lambda args: run_gated(
            name, getattr(args, f"{name}_json"),
            lambda workdir: run(args, workdir),
        ),
        selected=lambda args: getattr(args, name),
    )


def env_stamp() -> dict:
    """Where an artifact was measured: core count and source revision
    (``-dirty`` when the tree had uncommitted changes)."""
    try:
        commit = subprocess.run(
            ["git", "describe", "--always", "--dirty"], capture_output=True,
            text=True, cwd=os.path.dirname(os.path.abspath(__file__)),
        ).stdout.strip() or None
    except OSError:
        commit = None
    return {"nproc": os.cpu_count(), "commit": commit}


def harness_payload(spec, outcomes: list, quick: bool, **extra) -> dict:
    """The JSON artifact of a schedule-kind harness: its spec, every
    schedule's outcome, and whatever the harness adds."""
    return {
        "version": HARNESS_JSON_VERSION,
        "quick": quick,
        "env": env_stamp(),
        "spec": spec_payload(spec),
        "schedules": [asdict(o) for o in outcomes],
        "breaches": gate_lines(outcomes),
        **extra,
    }


def _cell(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    return "-" if value is None else str(value)


def render_schedules(title: str, outcomes: list, *columns: str) -> str:
    """One row per schedule: where it ran, then the named outcome fields."""
    return render_table(
        ["Schedule", *columns, "Error"],
        [
            [o.where, *(_cell(getattr(o, c)) for c in columns), _cell(o.error)]
            for o in outcomes
        ],
        title=title,
    )
