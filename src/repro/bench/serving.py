"""Serving harness: interleaved sessions over one protected image, with
wild writes into cold records scored on ground truth.

Each schedule opens ``sessions`` sessions on one
:class:`~repro.serve.Server` over a default (no background threads)
``data_codeword`` database.  Session ``s`` runs begin/query/update/commit
transactions on account ``s``; the schedule's rng picks whose request
runs next, one at a time, so many sessions hold open transactions while
others commit.  At seeded request indices a wild write lands on a cold
account no session touches.  The final audit must convict every injected
byte (zero false negatives); the convicted regions are quarantined,
repaired and re-audited, and every account must read back through a
session exactly the value the :class:`~repro.faults.campaign.Ledger`
committed.  That is the paper's claim under interleaved sessions: codeword
maintenance of hot regions must not erase or mask corruption in cold ones.

The schedule keys are group-commit windows.  The served shape's wall
clock is the e2e benchmark's ``served_short_datacw`` workload.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace

from repro.bench.suites import harness_payload, harness_suite, render_schedules
from repro.faults.campaign import (
    HarnessOutcome,
    close_quietly,
    gate_lines,
    open_bank,
    run_schedules,
    score_injections,
)
from repro.faults.injector import FaultInjector
from repro.serve import Request, Server
from repro.storage.database import DBConfig

#: Small enough that a hot and a cold account never share a region.
REGION_SIZE = 64


@dataclass(frozen=True)
class ServingSpec:
    """Shape of one ``--serving`` run (everything needed to reproduce it)."""

    seeds: tuple[int, ...] = (97, 98, 99)
    sessions: int = 64
    txns_per_session: int = 40
    group_commit_sizes: tuple[int, ...] = (1, 8)
    fault_injections: int = 6

    def quick(self) -> "ServingSpec":
        """CI smoke variant: same code paths, fewer sessions."""
        return replace(
            self, seeds=(97,), sessions=8, txns_per_session=8,
            group_commit_sizes=(1, 4), fault_injections=3,
        )

    @property
    def keys(self) -> dict[str, int]:
        """Schedule key -> the group-commit window it runs under."""
        return {f"group_commit_{n}": n for n in self.group_commit_sizes}


@dataclass(kw_only=True)
class ServingOutcome(HarnessOutcome):
    """One serving schedule's score."""

    requests: int = 0
    #: Most sessions holding an open transaction at once.
    max_open_txns: int = 0


def session_reader(server: Server):
    """``read(slot)`` of an ``acct`` balance through one server session."""
    session = server.open_session()

    def read(slot: int) -> int:
        server.submit(session, Request(op="begin"))
        response = server.submit(
            session, Request(op="read", table="acct", slot=slot)
        )
        if not response.ok:
            raise response.exc  # contained: the session already rolled back
        server.submit(session, Request(op="abort"))
        return response.value["balance"]

    return read


class ServingSchedule:
    """One serving schedule of the campaign kernel's loop."""

    def __init__(self, spec, key, seed, index, work_dir, rng) -> None:
        self.spec = spec
        self.work_dir = work_dir
        self.group_commit_size = spec.keys[key]
        self.rng = rng
        self.db = self.server = None
        self.outcome = ServingOutcome(key=key, seed=seed, index=index)

    def close(self) -> None:
        close_quietly(self.server, self.db)

    def run(self) -> ServingOutcome:
        spec, rng, out = self.spec, self.rng, self.outcome
        n = spec.sessions
        config = DBConfig(
            dir=self.work_dir,
            scheme="data_codeword",
            scheme_params={"region_size": REGION_SIZE},
            group_commit_size=self.group_commit_size,
            quarantine=True,
            quarantine_repair=True,
        )
        # Twice the accounts: session s owns account s, and the top
        # quarter is cold -- no request ever reads or writes it.
        db, ledger = open_bank(config, 2 * n, max(64, 4 * n))
        self.db = db
        self.server = Server(db, queue_depth=max(64, 2 * n))
        table = db.table("acct")
        scripts = {s: deque(self._script(s, ledger)) for s in range(n)}
        out.requests = sum(len(script) for script in scripts.values())
        # Distinct cold targets (``rng.sample`` refuses more injections
        # than cold accounts): a repeat would overwrite an earlier scribble.
        cold = range(n + n // 2, 2 * n)
        k = spec.fault_injections
        out.faults = [
            (op, "wild_write", 0, acct)
            for op, acct in zip(
                sorted(rng.sample(range(out.requests), k)), rng.sample(cold, k)
            )
        ]
        injector = FaultInjector(db, seed=rng.randrange(2**31))
        sessions = [self.server.open_session() for _ in range(n)]
        faults = deque(out.faults)
        busy = list(range(n))
        for op in range(out.requests):
            while faults and faults[0][0] == op:
                acct = faults.popleft()[3]
                injector.wild_write(table.record_address(ledger.slots[acct]), 8)
            s = rng.choice(busy)
            request, value = scripts[s].popleft()
            if not scripts[s]:
                busy.remove(s)
            response = self.server.submit(sessions[s], request)
            if not response.ok:
                out.traffic_errors += 1
            elif request.op == "commit":
                ledger.commit(s, value)
            out.max_open_txns = max(
                out.max_open_txns, sum(session.in_txn for session in sessions)
            )

        report = db.audit()
        out.score(
            score_injections(
                [event.address for event in injector.events],
                report.corrupt_byte_ranges,
                quarantined=len(db.quarantined_regions()),
                repair=db.repair_quarantined,
                audit_clean=lambda: db.audit().clean,
            ),
            out.requests,
        )
        unreadable, wrong = ledger.check(session_reader(self.server), exact=True)
        out.value_ok = not (unreadable or wrong)
        return out

    def _script(self, acct: int, ledger) -> list[tuple[Request, int | None]]:
        """Session ``acct``'s requests, each with the balance its commit
        makes durable."""
        script = []
        for _ in range(self.spec.txns_per_session):
            value = self.rng.randrange(1, 10**6)
            script += [
                (Request(op="begin"), None),
                (Request(op="query", table="acct", key=acct), None),
                (Request(op="update", table="acct", slot=ledger.slots[acct],
                         values={"balance": value}), None),
                (Request(op="commit"), value),
            ]
        return script


def _run(args, workdir: str) -> tuple[dict, list[str]]:
    spec = ServingSpec().quick() if args.quick else ServingSpec()
    outcomes = run_schedules(spec, spec.keys, 1, ServingSchedule, workdir)
    print(render_schedules(
        f"Interleaved serving: {spec.sessions} sessions x "
        f"{spec.txns_per_session} transactions, wild writes into cold "
        "regions mid-traffic",
        outcomes, "requests", "max_open_txns", "traffic_errors", "injected",
        "detected", "false_negatives", "repaired_regions",
        "post_repair_audit_clean", "value_ok",
    ))
    return harness_payload(spec, outcomes, args.quick), gate_lines(outcomes)


SERVING_SUITE = harness_suite(
    "serving",
    "run the serving fault harness (N interleaved sessions on one Server "
    "over a protected image, seeded wild writes into cold regions under "
    "that traffic): exit 1 on any false negative, traffic error or "
    "committed value read back wrong",
    _run,
)
