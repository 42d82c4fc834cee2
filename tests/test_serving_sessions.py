"""Session semantics over one image (``repro.serve``).

Every test in ``TestSessionSemantics`` runs in BOTH scheduler modes:
deterministic (one client thread, so the admission gate never has to
park anyone) and threaded (concurrent client threads behind the gate).
The protocol, per-session transactions and error containment must be
mode-invariant.

``TestAdmissionGate`` pins the gate's contract -- at most ``workers``
requests executing, at most ``queue_depth`` waiting in arrival order,
load shed beyond that -- through the public ``executing`` / ``waiting``
gauges, with the waits of ``tests/gate_probe.py``.
"""

from __future__ import annotations

import gc
import threading
import weakref
from types import SimpleNamespace

import pytest

from repro import Database, DBConfig
from repro.errors import BackpressureError, ServeError, SimulatedCrash
from repro.faults.crashpoints import CrashPointRegistry
from repro.faults.injector import FaultInjector
from repro.serve import Request, Server, ShardServer
from repro.shard import ShardedConfig, ShardedDatabase

from tests.conftest import ACCT_SCHEMA, insert_accounts
from tests.gate_probe import (
    TIMEOUT,
    InterruptedPark,
    InterruptedTurn,
    Probe,
    join_all,
    until,
)

MODES = ("deterministic", "threaded")


def make_db(base, name, **config_kwargs) -> Database:
    config_kwargs.setdefault("scheme", "baseline")
    config = DBConfig(dir=str(base / name), **config_kwargs)
    db = Database(config)
    db.create_table("acct", ACCT_SCHEMA, 256, key_field="id")
    db.start()
    return db


@pytest.fixture(params=MODES)
def served(request, tmp_path):
    db = make_db(tmp_path, f"served-{request.param}", scheduler_mode=request.param)
    insert_accounts(db, 8)
    server = Server(db, queue_depth=32, workers=4)
    yield db, server
    server.close()
    db.close()


def ok(server, session, **kwargs):
    response = server.submit(session, Request(**kwargs))
    assert response.ok, f"{response.op}: {response.error}: {response.detail}"
    return response.value


class TestSessionSemantics:
    def test_protocol_round_trip(self, served):
        db, server = served
        session = server.open_session()
        txn_id = ok(server, session, op="begin")
        assert isinstance(txn_id, int)
        slot = ok(
            server,
            session,
            op="insert",
            table="acct",
            values={"id": 99, "balance": 500, "name": "new"},
        )
        assert ok(server, session, op="lookup", table="acct", key=99) == slot
        row = ok(server, session, op="query", table="acct", key=99)
        assert row["balance"] == 500
        ok(server, session, op="update", table="acct", slot=slot, values={"balance": 501})
        assert ok(server, session, op="read", table="acct", slot=slot)["balance"] == 501
        ok(server, session, op="commit")
        assert not session.in_txn
        server.close_session(session)

    def test_conflicting_updates_serialize_via_locks(self, served):
        db, server = served
        a = server.open_session()
        b = server.open_session()
        ok(server, a, op="begin")
        ok(server, b, op="begin")
        ok(server, a, op="update", table="acct", slot=0, values={"balance": 111})
        # B hits A's txn-duration exclusive lock: fails alone, contained.
        denied = server.submit(
            b, Request(op="update", table="acct", slot=0, values={"balance": 222})
        )
        assert not denied.ok
        assert denied.error == "LockError"
        assert not b.in_txn  # B's transaction rolled back
        assert a.in_txn  # A is untouched
        ok(server, a, op="commit")
        # B retries after A's locks released and wins.
        ok(server, b, op="begin")
        ok(server, b, op="update", table="acct", slot=0, values={"balance": 222})
        ok(server, b, op="commit")
        check = server.open_session()
        ok(server, check, op="begin")
        assert ok(server, check, op="read", table="acct", slot=0)["balance"] == 222
        ok(server, check, op="commit")

    def test_session_abort_rolls_back_only_its_own_ops(self, served):
        db, server = served
        a = server.open_session()
        b = server.open_session()
        ok(server, a, op="begin")
        ok(server, b, op="begin")
        ok(server, a, op="update", table="acct", slot=0, values={"balance": 1000})
        ok(server, b, op="update", table="acct", slot=1, values={"balance": 2000})
        ok(server, a, op="abort")
        ok(server, b, op="commit")
        check = server.open_session()
        ok(server, check, op="begin")
        assert ok(server, check, op="read", table="acct", slot=0)["balance"] == 100
        assert ok(server, check, op="read", table="acct", slot=1)["balance"] == 2000
        ok(server, check, op="commit")

    def test_protocol_misuse_is_contained(self, served):
        db, server = served
        session = server.open_session()
        no_txn = server.submit(session, Request(op="commit"))
        assert not no_txn.ok and no_txn.error == "ServeError"
        unknown = server.submit(session, Request(op="frobnicate"))
        assert not unknown.ok and unknown.error == "ServeError"
        double = server.submit(session, Request(op="begin"))
        assert double.ok
        double2 = server.submit(session, Request(op="begin"))
        assert not double2.ok and double2.error == "ServeError"
        # The contained double-begin rolled the open transaction back;
        # the session keeps working.
        ok(server, session, op="begin")
        ok(server, session, op="commit")

    @pytest.mark.parametrize("end", ["commit", "abort"])
    def test_an_idle_session_holds_no_finished_transaction(self, served, end):
        db, server = served
        session = server.open_session()
        ok(server, session, op="begin")
        ok(server, session, op="update", table="acct", slot=0, values={"balance": 7})
        finished = weakref.ref(session.context.txn)
        ok(server, session, op=end)
        gc.collect()
        assert finished() is None

    def test_closed_session_refuses_requests(self, served):
        db, server = served
        session = server.open_session()
        ok(server, session, op="begin")
        server.close_session(session)
        assert not session.in_txn  # open transaction rolled back
        refused = server.submit(session, Request(op="begin"))
        assert not refused.ok and refused.error == "ServeError"


@pytest.fixture(params=("plain", "sharded"))
def front(request, tmp_path):
    """The same protocol on both serve fronts: ``Server(Database)`` and
    ``ShardServer(ShardedDatabase)``."""
    if request.param == "plain":
        db = make_db(tmp_path, "front")
        server = Server(db)
    else:
        config = ShardedConfig(
            dir=str(tmp_path / "front"), n_shards=2, branches=2,
            scheme="data_codeword",
        )
        db = ShardedDatabase.create(config, [("acct", ACCT_SCHEMA, 64, "id")])
        server = ShardServer(db)
    yield server
    server.close()
    db.close()


#: The argument column of the table in ``repro/serve/protocol.py``,
#: restated here so a field dropped from the code's table is caught.
REQUIRED_FIELDS = {
    "insert": ("table", "values"),
    "read": ("table", "slot"),
    "update": ("table", "slot", "values"),
    "delete": ("table", "slot"),
    "lookup": ("table", "key"),
    "query": ("table", "key"),
    "add": ("table", "key", "values"),
}


def _malformed_requests():
    """``(id, needs an open transaction, request)`` for every request the
    protocol must refuse."""
    full = {
        "table": "acct",
        "slot": 0,
        "key": 1,
        "values": {"id": 1, "balance": 1, "name": "x"},
    }
    for op, fields in REQUIRED_FIELDS.items():
        for missing in fields:
            kept = {name: full[name] for name in fields if name != missing}
            yield f"{op}-without-{missing}", True, Request(op, **kept)
    yield "unknown-op-idle", False, Request("frobnicate")
    yield "unknown-op-in-txn", True, Request("frobnicate")
    yield "unhashable-op-in-txn", True, Request(["insert"], table="acct", values={})
    yield "commit-without-begin", False, Request("commit")
    yield "abort-without-begin", False, Request("abort")
    yield "data-op-without-begin", False, Request("query", table="acct", key=1)
    yield "second-begin", True, Request("begin")


class TestMalformedRequests:
    @pytest.mark.parametrize(
        "in_txn, request_",
        [pytest.param(in_txn, req, id=name) for name, in_txn, req in _malformed_requests()],
    )
    def test_contained_as_serve_error_on_every_front(self, front, in_txn, request_):
        session = front.open_session()
        if in_txn:
            ok(front, session, op="begin")
        refused = front.submit(session, request_)  # nothing raised out of submit
        assert not refused.ok
        assert refused.error == "ServeError"
        assert not refused.retryable
        assert not session.in_txn
        # The session keeps working.
        ok(front, session, op="begin")
        ok(front, session, op="commit")


@pytest.fixture(params=("plain", "sharded"))
def crash_front(request, tmp_path):
    """Both fronts over one database (``ShardServer`` at N=1 inproc), and
    the crash-point registry that database reaches."""
    if request.param == "plain":
        db = make_db(tmp_path, "crash-front", scheme="data_codeword")
        crashpoints, server = db.crashpoints, Server(db)
    else:
        crashpoints = CrashPointRegistry()
        config = ShardedConfig(
            dir=str(tmp_path / "crash-front"), n_shards=1, branches=1,
            scheme="data_codeword",
        )
        db = ShardedDatabase.create(
            config, [("acct", ACCT_SCHEMA, 256, "id")], shard_crashpoints=[crashpoints]
        )
        server = ShardServer(db)
    yield server, crashpoints
    db.crash()


class TestCrashDuringRollback:
    """A crash point that fires while a session rolls back is process
    death on both fronts: it propagates out of ``submit`` instead of
    being answered as a contained error or a successful abort."""

    ROW = {"id": 1, "balance": 5, "name": "one"}

    def test_crash_in_containment_rollback_propagates(self, crash_front):
        server, crashpoints = crash_front
        session = server.open_session()
        ok(server, session, op="begin")
        ok(server, session, op="insert", table="acct", values=self.ROW)
        crashpoints.arm("wal.flush.pre")
        # Reading an unallocated slot is a contained ConfigError; its
        # rollback's abort flush is where the armed point fires.
        with pytest.raises(SimulatedCrash) as crash:
            server.submit(session, Request(op="read", table="acct", slot=200))
        assert crash.value.point == "wal.flush.pre"

    def test_crash_in_explicit_abort_propagates(self, crash_front):
        server, crashpoints = crash_front
        session = server.open_session()
        ok(server, session, op="begin")
        ok(server, session, op="insert", table="acct", values=self.ROW)
        crashpoints.arm("wal.flush.pre")
        with pytest.raises(SimulatedCrash) as crash:
            server.submit(session, Request(op="abort"))
        assert crash.value.point == "wal.flush.pre"


class TestQuarantineContainment:
    @pytest.mark.parametrize("mode", MODES)
    def test_quarantined_read_fails_one_session_only(self, mode, tmp_path):
        db = make_db(
            tmp_path,
            f"quarantine-{mode}",
            scheme="data_codeword",
            scheme_params={"region_size": 64},
            quarantine=True,
            scheduler_mode=mode,
        )
        slots = insert_accounts(db, 8)
        # Wild-write slot 0's record, then audit: the region quarantines
        # instead of crashing the system.
        address = db.table("acct").record_address(slots[0])
        FaultInjector(db, seed=7).wild_write(address, 8)
        report = db.audit()
        assert not report.clean
        assert db.quarantined_regions()
        server = Server(db, queue_depth=16, workers=2)
        poisoned = server.open_session()
        healthy = server.open_session()
        ok(server, poisoned, op="begin")
        ok(server, healthy, op="begin")
        denied = server.submit(poisoned, Request(op="read", table="acct", slot=slots[0]))
        assert not denied.ok
        assert denied.error == "QuarantinedRegionError"
        assert not poisoned.in_txn  # contained: only this session aborted
        # The healthy session reads a different region and commits.
        assert ok(server, healthy, op="read", table="acct", slot=slots[7])["balance"] == 100
        ok(server, healthy, op="commit")
        server.close()
        db.close()


@pytest.fixture
def threaded_db(tmp_path):
    db = make_db(tmp_path, "gate", scheduler_mode="threaded")
    insert_accounts(db, 4)
    yield db
    db.close()


class TestAdmissionGate:
    def test_never_more_than_workers_execute_at_once(
        self, threaded_db, aggressive_thread_switching
    ):
        server = Server(threaded_db, queue_depth=16, workers=2)
        probe = Probe()
        n_clients, n_txns = 16, 5
        failures: list[str] = []

        def client() -> None:
            session = probe.attach(server.open_session())
            for _ in range(n_txns):
                for op in ("begin", "commit"):
                    response = server.submit(session, Request(op=op))
                    if not response.ok:
                        failures.append(f"{response.error}: {response.detail}")

        threads = [threading.Thread(target=client) for _ in range(n_clients)]
        for thread in threads:
            thread.start()
        # Both slots fill and stay full while the probe holds them.
        probe.wait_entered(2)
        assert server.executing == 2
        assert probe.inside == 2
        probe.open()
        join_all(threads)
        assert failures == []
        assert probe.peak == 2
        assert server.requests_admitted == n_clients * n_txns * 2
        assert server.backpressure_rejections == 0
        assert (server.executing, server.waiting) == (0, 0)
        server.close()

    def test_waiters_are_released_in_arrival_order(self, threaded_db):
        server = Server(threaded_db, queue_depth=8, workers=1)
        probe = Probe()
        sessions = [probe.attach(server.open_session()) for _ in range(6)]
        threads = [
            threading.Thread(target=server.submit, args=(session, Request(op="begin")))
            for session in sessions
        ]
        threads[0].start()
        probe.wait_entered(1)
        for position, thread in enumerate(threads[1:], start=1):
            thread.start()
            until(lambda: server.waiting == position, f"waiter {position} to park")
        assert server.executing == 1
        probe.open()
        join_all(threads)
        assert probe.order == [session.session_id for session in sessions]
        assert probe.peak == 1
        assert (server.executing, server.waiting) == (0, 0)
        server.close()

    def test_crash_reaches_its_submitter_and_frees_the_slot(self, threaded_db):
        server = Server(threaded_db, queue_depth=4, workers=1)
        probe = Probe()
        doomed = server.open_session()
        ok(server, doomed, op="begin")
        ok(server, doomed, op="update", table="acct", slot=0, values={"balance": 7})
        probe.attach(doomed)
        bystanders = [server.open_session() for _ in range(2)]
        outcomes: dict[str, object] = {}

        def submit(name: str, session, op: str) -> None:
            try:
                outcomes[name] = server.submit(session, Request(op=op))
            except SimulatedCrash as crash:
                outcomes[name] = crash

        # The doomed commit dies at the flush, on whichever thread runs it.
        threaded_db.crashpoints.arm("wal.flush.pre")
        threads = [threading.Thread(target=submit, args=("doomed", doomed, "commit"))]
        threads[0].start()
        probe.wait_entered(1)
        for position, session in enumerate(bystanders, start=1):
            name = f"bystander-{position}"
            threads.append(
                threading.Thread(target=submit, args=(name, session, "begin"))
            )
            threads[-1].start()
            until(lambda: server.waiting == position, f"{name} to park")
        probe.open()
        join_all(threads)
        crash = outcomes["doomed"]
        assert isinstance(crash, SimulatedCrash) and crash.point == "wal.flush.pre"
        for position in (1, 2):
            assert outcomes[f"bystander-{position}"].ok
        assert (server.executing, server.waiting) == (0, 0)
        threaded_db.crash()

    def test_interrupted_park_gives_back_its_place(self, threaded_db, monkeypatch):
        """A waiter interrupted while parked must leave the queue: the
        next finishing request would otherwise hand its slot to the dead
        waiter, and with one worker every later submit parks forever."""
        server = Server(threaded_db, queue_depth=4, workers=1)
        probe = Probe()
        holder = probe.attach(server.open_session())
        first = threading.Thread(target=server.submit, args=(holder, Request(op="begin")))
        first.start()
        probe.wait_entered(1)
        interrupted = server.open_session()
        with monkeypatch.context() as patch:
            patch.setattr(
                "repro.serve.server.threading", SimpleNamespace(Lock=InterruptedTurn)
            )
            with pytest.raises(InterruptedPark):
                server.submit(interrupted, Request(op="begin"))
        probe.open()
        join_all([first])
        responses = []
        after = threading.Thread(
            target=lambda: responses.append(
                server.submit(server.open_session(), Request(op="begin"))
            ),
            daemon=True,
        )
        after.start()
        join_all([after])
        assert responses[0].ok
        assert (server.executing, server.waiting) == (0, 0)
        server.close()

    def test_every_submit_is_admitted_or_rejected(
        self, threaded_db, aggressive_thread_switching
    ):
        server = Server(threaded_db, queue_depth=2, workers=2)
        probe = Probe()
        n_clients, n_requests = 16, 20
        shed = threading.Event()
        responses: list[int] = []
        rejections: list[int] = []

        def client() -> None:
            session = probe.attach(server.open_session())
            served = 0
            for i in range(n_requests):
                try:
                    server.submit(session, Request(op="begin" if i % 2 == 0 else "abort"))
                    served += 1
                except BackpressureError:
                    shed.set()
            responses.append(served)
            rejections.append(n_requests - served)

        threads = [threading.Thread(target=client) for _ in range(n_clients)]
        for thread in threads:
            thread.start()
        # Nothing finishes while the probe holds, so the first shed
        # submit proves both slots and the waiting room were full.
        probe.wait_entered(2)
        assert shed.wait(TIMEOUT)
        assert (server.executing, server.waiting) == (2, 2)
        probe.open()
        join_all(threads)
        assert server.requests_admitted == sum(responses)
        assert server.backpressure_rejections == sum(rejections) >= 1
        assert (
            server.requests_admitted + server.backpressure_rejections
            == n_clients * n_requests
        )
        assert probe.peak == 2
        assert (server.executing, server.waiting) == (0, 0)
        server.close()

    def test_deterministic_mode_never_parks(self, tmp_path):
        db = make_db(tmp_path, "inline", scheduler_mode="deterministic")
        insert_accounts(db, 4)
        server = Server(db, queue_depth=1, workers=1)
        session = server.open_session()
        seen: list[tuple[int, int]] = []
        inner = session.execute

        def execute(request):
            seen.append((server.executing, server.waiting))
            return inner(request)

        session.execute = execute
        for _ in range(10):
            ok(server, session, op="begin")
            ok(server, session, op="read", table="acct", slot=0)
            ok(server, session, op="commit")
        assert set(seen) == {(1, 0)}
        assert server.requests_admitted == 30
        assert server.backpressure_rejections == 0
        assert (server.executing, server.waiting) == (0, 0)
        server.close()
        db.close()

    def test_close_drains_admitted_requests_and_refuses_new_ones(self, threaded_db):
        """A submit racing ``close()`` is either admitted (and runs) or
        refused; the queue-and-sentinel server could strand it forever."""
        server = Server(threaded_db, queue_depth=4, workers=1)
        blocked = server.open_session()
        other = server.open_session()
        closing = threading.Event()
        close_session = blocked.close

        def close_and_tell() -> None:
            closing.set()  # close() is past its closed flag when it gets here
            close_session()

        blocked.close = close_and_tell
        responses: dict[str, object] = {}

        def submit(name: str, session) -> None:
            responses[name] = server.submit(session, Request(op="begin"))

        executor = threading.Thread(target=submit, args=("executing", blocked))
        waiter = threading.Thread(target=submit, args=("waiting", other))
        closer = threading.Thread(target=server.close)
        blocked._serial.acquire()  # parks the first request inside execute()
        try:
            executor.start()
            until(lambda: server.executing == 1, "the first request to take the slot")
            waiter.start()
            until(lambda: server.waiting == 1, "the second request to park")
            closer.start()
            assert closing.wait(TIMEOUT)
            with pytest.raises(ServeError, match="server is closed"):
                server.submit(other, Request(op="begin"))
            # The admitted waiter was not thrown away by close().
            assert (server.executing, server.waiting) == (1, 1)
        finally:
            blocked._serial.release()
        join_all([executor, waiter, closer])
        assert set(responses) == {"executing", "waiting"}
        assert (server.executing, server.waiting) == (0, 0)
        assert server.requests_admitted == 2


class TestThreadedServing:
    def test_backpressure_sheds_load_at_admission(self, threaded_db):
        server = Server(threaded_db, queue_depth=1, workers=1)
        probe = Probe()
        blocked = probe.attach(server.open_session())
        outcomes: list[str] = []
        shed = threading.Event()

        def contend() -> None:
            try:
                server.submit(server.open_session(), Request(op="begin"))
                outcomes.append("served")
            except BackpressureError:
                outcomes.append("shed")
                shed.set()

        threads = [
            threading.Thread(target=server.submit, args=(blocked, Request(op="begin")))
        ]
        threads[0].start()
        probe.wait_entered(1)  # the single slot is taken ...
        assert (server.executing, server.waiting) == (1, 0)
        # ... so of two more submits one takes the depth-1 waiting room
        # and the other is shed, whichever arrives first.
        for _ in range(2):
            threads.append(threading.Thread(target=contend))
            threads[-1].start()
        assert shed.wait(TIMEOUT)
        assert (server.executing, server.waiting) == (1, 1)
        assert server.backpressure_rejections == 1
        with pytest.raises(BackpressureError):
            server.submit(server.open_session(), Request(op="begin"))
        assert server.backpressure_rejections == 2
        probe.open()
        join_all(threads)
        assert sorted(outcomes) == ["served", "shed"]
        assert server.requests_admitted == 2
        assert (server.executing, server.waiting) == (0, 0)
        server.close()

    def test_concurrent_sessions_commit_disjoint_updates(self, tmp_path):
        db = make_db(tmp_path, "fanout", scheme="data_codeword", scheduler_mode="threaded")
        slots = insert_accounts(db, 16)
        server = Server(db, queue_depth=64, workers=8)
        errors: list[str] = []
        n_clients, n_txns = 8, 10

        def client(client_id: int) -> None:
            session = server.open_session()
            slot = slots[client_id]
            for i in range(n_txns):
                for request in (
                    Request(op="begin"),
                    Request(
                        op="update",
                        table="acct",
                        slot=slot,
                        values={"balance": 1000 * client_id + i},
                    ),
                    Request(op="commit"),
                ):
                    response = server.submit(session, request)
                    if not response.ok:
                        errors.append(f"{client_id}/{i}: {response.error}")
                        return
            server.close_session(session)

        threads = [threading.Thread(target=client, args=(c,)) for c in range(n_clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert errors == []
        server.close()
        # Every session's last write is in place and the image is clean.
        check = db.begin()
        for client_id in range(n_clients):
            row = db.table("acct").read(check, slots[client_id])
            assert row["balance"] == 1000 * client_id + (n_txns - 1)
        db.commit(check)
        assert db.audit().clean
        db.close()

    def test_readers_race_writer_without_corruption_reports(self, tmp_path):
        db = make_db(
            tmp_path,
            "race",
            scheme="precheck",
            scheme_params={"region_size": 64},
            scheduler_mode="threaded",
        )
        slots = insert_accounts(db, 4)
        server = Server(db, queue_depth=64, workers=6)
        outcomes: list[str] = []
        stop = threading.Event()

        def writer() -> None:
            session = server.open_session()
            i = 0
            while not stop.is_set():
                server.submit(session, Request(op="begin"))
                response = server.submit(
                    session,
                    Request(op="update", table="acct", slot=slots[i % 4],
                            values={"balance": 100 + i}),
                )
                if response.ok:
                    server.submit(session, Request(op="commit"))
                i += 1
            if session.in_txn:
                server.submit(session, Request(op="abort"))

        def reader(reader_id: int) -> None:
            session = server.open_session()
            for i in range(50):
                server.submit(session, Request(op="begin"))
                response = server.submit(
                    session, Request(op="read", table="acct", slot=slots[i % 4])
                )
                if response.ok:
                    outcomes.append("ok")
                    server.submit(session, Request(op="commit"))
                else:
                    # The only legitimate failure is a lock conflict with
                    # the writer; a precheck mismatch would surface as
                    # CorruptionDetected and fail this test.
                    outcomes.append(response.error)

        writer_thread = threading.Thread(target=writer)
        reader_threads = [threading.Thread(target=reader, args=(r,)) for r in range(3)]
        writer_thread.start()
        for t in reader_threads:
            t.start()
        for t in reader_threads:
            t.join(timeout=60)
        stop.set()
        writer_thread.join(timeout=60)
        server.close()
        assert set(outcomes) <= {"ok", "LockError"}
        assert "ok" in outcomes
        assert db.pipeline.member("precheck").precheck_count > 0
        db.close()
