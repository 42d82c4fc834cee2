"""The sharded serving front-end (``repro.serve.shard_server``).

Router sessions behind the bounded-admission server: the protocol must
match the single-database serving layer, contained errors must carry
the taxonomy's ``retryable`` bit, the cross-shard deadlock detector
must convict exactly the youngest cycle member, and -- under a
supervisor -- a request touching a recovering shard must fail fast
with a retryable error while other sessions proceed.
"""

from __future__ import annotations

import threading

import pytest

from repro import Field, FieldType, Schema
from repro.errors import BackpressureError
from repro.serve import Request, ShardServer
from repro.shard import ShardSupervisor, ShardedConfig, ShardedDatabase

from tests.gate_probe import TIMEOUT, Probe, join_all

ACCOUNT_SCHEMA = Schema(
    [
        Field("aid", FieldType.INT64),
        Field("balance", FieldType.INT64),
    ]
)


def make_db(tmp_path, name: str, n_shards: int = 2) -> ShardedDatabase:
    config = ShardedConfig(
        dir=str(tmp_path / name),
        n_shards=n_shards,
        mode="inproc",
        branches=n_shards,
        scheme="data_codeword",
    )
    db = ShardedDatabase.create(config, [("account", ACCOUNT_SCHEMA, 64, "aid")])
    # aid i lands on branch i % branches -> shard i % n_shards.
    for aid in range(8):
        db.submit_txn([("insert", "account", {"aid": aid, "balance": 100})])
    return db


def ok(server, session, **kwargs):
    response = server.submit(session, Request(**kwargs))
    assert response.ok, f"{response.op}: {response.error}: {response.detail}"
    return response.value


class TestShardSessionProtocol:
    def test_round_trip_across_shards(self, tmp_path):
        db = make_db(tmp_path, "round-trip")
        with ShardServer(db) as server:
            session = server.open_session()
            ok(server, session, op="begin")
            slot = ok(
                server, session, op="insert", table="account",
                values={"aid": 90, "balance": 500},
            )
            assert ok(server, session, op="lookup", table="account", key=90) == slot
            row = ok(server, session, op="query", table="account", key=90)
            assert row["balance"] == 500
            ok(server, session, op="update", table="account", slot=slot,
               values={"balance": 501})
            assert ok(server, session, op="read", table="account",
                      slot=slot)["balance"] == 501
            # Touch the other shard in the same transaction: commit runs
            # two-phase across both.
            ok(server, session, op="update", table="account",
               slot=ok(server, session, op="lookup", table="account", key=1),
               values={"balance": 150})
            ok(server, session, op="commit")
            assert session.txns_committed == 1
            assert len(session.context.open_txns) == 0
            check = server.open_session()
            ok(server, check, op="begin")
            assert ok(server, check, op="query", table="account",
                      key=1)["balance"] == 150
            ok(server, check, op="commit")
        db.close()

    def test_contained_errors_carry_retryable_bit(self, tmp_path):
        db = make_db(tmp_path, "retry-bit")
        with ShardServer(db) as server:
            session = server.open_session()
            # Protocol misuse: not retryable (the request must change).
            no_txn = server.submit(session, Request(op="commit"))
            assert not no_txn.ok and not no_txn.retryable
            # Lock conflict: retryable, and the victim txn stays OPEN at
            # this front-end (fail-fast locks; the client retries the op).
            a = server.open_session()
            b = server.open_session()
            ok(server, a, op="begin")
            ok(server, b, op="begin")
            slot = ok(server, a, op="lookup", table="account", key=0)
            ok(server, a, op="update", table="account", slot=slot,
               values={"balance": 1})
            denied = server.submit(
                b, Request(op="update", table="account", slot=slot,
                           values={"balance": 2}),
            )
            assert not denied.ok
            assert denied.error == "LockError"
            assert denied.retryable
            assert b.in_txn  # not rolled back: retry just the op
            ok(server, a, op="commit")
            retried = server.submit(
                b, Request(op="update", table="account", slot=slot,
                           values={"balance": 2}),
            )
            assert retried.ok
            ok(server, b, op="commit")
        db.close()

    def test_session_close_rolls_back_and_releases(self, tmp_path):
        db = make_db(tmp_path, "close")
        with ShardServer(db) as server:
            session = server.open_session()
            ok(server, session, op="begin")
            slot = ok(server, session, op="lookup", table="account", key=0)
            ok(server, session, op="update", table="account", slot=slot,
               values={"balance": 7})
            server.close_session(session)
            assert session.txns_aborted == 1
            assert server._holders == {}
            check = server.open_session()
            ok(server, check, op="begin")
            assert ok(server, check, op="query", table="account",
                      key=0)["balance"] == 100
            ok(server, check, op="commit")
        db.close()


class TestDeadlockDetection:
    def _conflict_slots(self, server):
        """Learn the slots of aid 0 (shard 0) and aid 1 (shard 1)."""
        scout = server.open_session()
        ok(server, scout, op="begin")
        s0 = ok(server, scout, op="lookup", table="account", key=0)
        s1 = ok(server, scout, op="lookup", table="account", key=1)
        ok(server, scout, op="commit")
        server.close_session(scout)
        return s0, s1

    def test_youngest_waiter_convicted_immediately(self, tmp_path):
        db = make_db(tmp_path, "dl-waiter")
        with ShardServer(db) as server:
            s0, s1 = self._conflict_slots(server)
            a = server.open_session()
            b = server.open_session()
            ok(server, a, op="begin")  # seq 1: older
            ok(server, b, op="begin")  # seq 2: younger
            ok(server, a, op="update", table="account", slot=s0,
               values={"balance": 10})
            ok(server, b, op="update", table="account", slot=s1,
               values={"balance": 20})
            # A -> B edge (no cycle yet): retryable conflict, A stays open.
            blocked = server.submit(
                a, Request(op="update", table="account", slot=s1,
                           values={"balance": 11}),
            )
            assert blocked.error == "LockError" and blocked.retryable
            # B -> A closes the cycle; B is youngest AND the waiter: it
            # aborts right here.
            convicted = server.submit(
                b, Request(op="update", table="account", slot=s0,
                           values={"balance": 21}),
            )
            assert convicted.error == "DeadlockError"
            assert convicted.retryable
            assert not b.in_txn
            assert server.deadlocks_broken == 1
            # The survivor now takes the contested lock and commits.
            retried = server.submit(
                a, Request(op="update", table="account", slot=s1,
                           values={"balance": 11}),
            )
            assert retried.ok, retried.detail
            ok(server, a, op="commit")
            # The victim's whole transaction retries cleanly.
            ok(server, b, op="begin")
            ok(server, b, op="update", table="account", slot=s0,
               values={"balance": 21})
            ok(server, b, op="commit")
            check = server.open_session()
            ok(server, check, op="begin")
            assert ok(server, check, op="query", table="account",
                      key=0)["balance"] == 21
            assert ok(server, check, op="query", table="account",
                      key=1)["balance"] == 11
            ok(server, check, op="commit")
        db.close()

    def test_third_party_victim_learns_at_next_request(self, tmp_path):
        db = make_db(tmp_path, "dl-third")
        with ShardServer(db) as server:
            s0, s1 = self._conflict_slots(server)
            a = server.open_session()
            b = server.open_session()
            ok(server, a, op="begin")  # seq 1: older
            ok(server, b, op="begin")  # seq 2: younger
            ok(server, a, op="update", table="account", slot=s0,
               values={"balance": 10})
            ok(server, b, op="update", table="account", slot=s1,
               values={"balance": 20})
            # B -> A edge first.
            blocked = server.submit(
                b, Request(op="update", table="account", slot=s0,
                           values={"balance": 21}),
            )
            assert blocked.error == "LockError"
            # A -> B closes the cycle.  A is older, so the *other*
            # session (B) is convicted; A just sees the conflict.
            conflict = server.submit(
                a, Request(op="update", table="account", slot=s1,
                           values={"balance": 11}),
            )
            assert conflict.error == "LockError"
            assert b._victim_cycle is not None
            # B learns its fate at its next request (nobody is blocked,
            # so there is no thread to wake).
            sentence = server.submit(
                b, Request(op="query", table="account", key=1),
            )
            assert sentence.error == "DeadlockError"
            assert not b.in_txn
            # A's retry now succeeds and the system quiesces.
            assert server.submit(
                a, Request(op="update", table="account", slot=s1,
                           values={"balance": 11}),
            ).ok
            ok(server, a, op="commit")
            assert server.graph.edges() == {}
        db.close()

    def test_stale_conviction_spares_successor_txn(self, tmp_path):
        """A conviction stamped while the victim's commit was in flight
        (the commit cleared _victim_cycle *before* releasing its graph
        edges, so the detector could still see the old branches) must
        not abort a transaction the session began afterwards: the
        stamped txn_seq no longer matches (REVIEW: _consume_conviction
        only checked _in_txn)."""
        db = make_db(tmp_path, "dl-stale")
        with ShardServer(db) as server:
            s0, _s1 = self._conflict_slots(server)
            b = server.open_session()
            ok(server, b, op="begin")
            convicted_seq = b.txn_seq
            ok(server, b, op="update", table="account", slot=s0,
               values={"balance": 5})
            ok(server, b, op="commit")
            ok(server, b, op="begin")  # unrelated successor transaction
            # The race's end state: a conviction naming the committed
            # transaction lands after its release wiped the flag.
            b._victim_cycle = ((b.session_id, 99), convicted_seq)
            survived = server.submit(
                b, Request(op="query", table="account", key=0),
            )
            assert survived.ok, survived.detail
            assert b.in_txn
            assert b.deadlock_aborts == 0
            ok(server, b, op="commit")
        db.close()

    def test_commit_clears_stale_edges(self, tmp_path):
        db = make_db(tmp_path, "dl-clear")
        with ShardServer(db) as server:
            s0, _s1 = self._conflict_slots(server)
            a = server.open_session()
            b = server.open_session()
            ok(server, a, op="begin")
            ok(server, b, op="begin")
            ok(server, a, op="update", table="account", slot=s0,
               values={"balance": 10})
            denied = server.submit(
                b, Request(op="update", table="account", slot=s0,
                           values={"balance": 20}),
            )
            assert denied.error == "LockError"
            assert server.graph.edges() != {}
            ok(server, a, op="commit")  # releases holds AND waiter edges
            assert server.graph.edges() == {}
            assert server.submit(
                b, Request(op="update", table="account", slot=s0,
                           values={"balance": 20}),
            ).ok
            ok(server, b, op="commit")
        db.close()


class TestDegradedServing:
    def test_recovering_shard_fails_fast_while_survivor_serves(self, tmp_path):
        db = make_db(tmp_path, "degraded")
        supervisor = ShardSupervisor(db).attach()
        with ShardServer(db) as server:
            session = server.open_session()
            db.crash_shard(1)
            ok(server, session, op="begin")
            # The dead shard's first touch reports the crash and the
            # session gets the typed fail-fast response.
            degraded = server.submit(
                session, Request(op="query", table="account", key=1)
            )
            assert not degraded.ok
            assert degraded.error == "ShardUnavailableError"
            assert degraded.retryable
            # The transaction was rolled back (contained error), but the
            # surviving shard serves a fresh one immediately.
            ok(server, session, op="begin")
            assert ok(server, session, op="query", table="account",
                      key=0)["balance"] == 100
            ok(server, session, op="commit")
            # One supervisor tick restarts the shard; the same session
            # then reads it again.
            supervisor.tick()
            ok(server, session, op="begin")
            assert ok(server, session, op="query", table="account",
                      key=1)["balance"] == 100
            ok(server, session, op="commit")
        supervisor.detach()
        db.close()


class TestThreadedShardServer:
    def test_concurrent_sessions_conserve_balances(self, tmp_path):
        db = make_db(tmp_path, "threaded")
        with ShardServer(db, threaded=True, workers=4, queue_depth=64) as server:
            n_clients, rounds = 4, 8
            failures: list[str] = []

            def client(worker: int) -> None:
                session = server.open_session()
                for round_no in range(rounds):
                    aid = (worker + round_no) % 4
                    response = server.submit(session, Request(op="begin"))
                    if not response.ok:
                        failures.append(response.detail or "begin failed")
                        return
                    moved = server.submit(
                        session,
                        Request(op="query", table="account", key=aid),
                    )
                    if moved.ok:
                        server.submit(session, Request(op="commit"))
                    else:
                        # Lock conflicts are the only acceptable failure,
                        # and they leave the txn open: abort it.
                        if moved.error not in ("LockError", "DeadlockError"):
                            failures.append(f"{moved.error}: {moved.detail}")
                        if moved.error == "LockError":
                            server.submit(session, Request(op="abort"))
                server.close_session(session)

            threads = [
                threading.Thread(target=client, args=(i,)) for i in range(n_clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert failures == []
            assert server.requests_admitted > 0
            assert server._holders == {}
        total = sum(
            db.submit_txn([("query", "account", aid)])[0]["balance"]
            for aid in range(8)
        )
        assert total == 800
        db.close()


    def test_admission_gate_bounds_shard_sessions(self, tmp_path):
        """``ShardServer`` inherits the gate: two slots, a two-deep waiting
        room, everything beyond shed -- and shed clients that retry still
        finish their transactions."""
        db = make_db(tmp_path, "gate")
        with ShardServer(db, threaded=True, workers=2, queue_depth=2) as server:
            probe = Probe()
            n_clients, rounds = 8, 4
            shed = threading.Event()
            failures: list[str] = []
            submits: list[int] = []

            def client(aid: int) -> None:
                session = probe.attach(server.open_session())
                attempts = 0
                for _ in range(rounds):
                    for request in (
                        Request(op="begin"),
                        Request(op="query", table="account", key=aid),
                        Request(op="commit"),
                    ):
                        while True:
                            attempts += 1
                            try:
                                response = server.submit(session, request)
                                break
                            except BackpressureError:
                                shed.set()
                        if not response.ok:
                            failures.append(f"{response.error}: {response.detail}")
                submits.append(attempts)

            threads = [
                threading.Thread(target=client, args=(aid,)) for aid in range(n_clients)
            ]
            for thread in threads:
                thread.start()
            # Nothing finishes while the probe holds, so the first shed
            # submit proves both slots and the waiting room were full.
            probe.wait_entered(2)
            assert shed.wait(TIMEOUT)
            assert (server.executing, server.waiting) == (2, 2)
            probe.open()
            join_all(threads)
            assert failures == []
            assert probe.peak == 2
            assert server.requests_admitted == n_clients * rounds * 3
            assert (
                server.requests_admitted + server.backpressure_rejections
                == sum(submits)
            )
            assert (server.executing, server.waiting) == (0, 0)
            assert server._holders == {}
        db.close()


class TestRetryableTaxonomy:
    def test_taxonomy_attributes(self):
        from repro.errors import (
            BackpressureError,
            ConfigError,
            DeadlockError,
            LockError,
            ReproError,
            ShardTimeoutError,
            ShardUnavailableError,
            TwoPhaseCommitError,
        )

        assert LockError("x").retryable
        assert DeadlockError(1, (1, 2)).retryable
        assert ShardUnavailableError(0, "recovering").retryable
        assert ShardTimeoutError(0, 1.0).retryable
        assert BackpressureError("full").retryable
        # Commit decided: replaying could double-apply -> NOT retryable.
        assert not TwoPhaseCommitError("x", gid="g1.1", committed=True).retryable
        # Vote never cast: presumed abort, safe to retry.
        assert TwoPhaseCommitError("x", gid="g1.1", committed=False).retryable
        assert not ConfigError("x").retryable
        assert not ReproError("x").retryable


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(pytest.main([__file__, "-q"]))
