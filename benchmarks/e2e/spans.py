"""Span tracer, installed from outside the program.

``install()`` replaces each layer's public entry points (the table in
``POINTS``) with class-level wrappers *before* the database is built, so
fork-started shard workers inherit them.  While the tracer is enabled a
wrapper records one span -- ``(id, name, start, end, parent, op id, arg)``,
seven integers appended to its thread's ``array`` (no per-span objects, so
a quarter-million spans cost the garbage collector nothing); disabled, it
costs one attribute test.  Spans are analysed and written out only after
the phase ends.

Three boundaries need more than a stack:

* thread hand-off -- ``Server.submit`` runs on the client thread and the
  session executes on a server worker thread: ``submit`` leaves its span
  id on the session and ``execute`` records it as a cross-thread parent;
* process hand-off -- a shard worker records its own spans; its
  ``ShardCore.execute`` wrapper answers two control commands (``start``,
  ``stop``), and ``stop`` ships the worker's spans back over the pipe.
  The k-th ``ProcessShard.call`` to finish on a shard is the k-th
  ``ShardCore.execute`` there (the pipe is FIFO);
* hot leaves -- ``Meter.charge`` is called over a hundred times per op,
  so it is counted, not timed, and priced by a tight-loop microbenchmark.

A span's *self time* is its duration minus the part its children cover;
a layer's self time is the sum over its spans.
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from array import array
from collections import defaultdict

CONTROL = "e2e_trace"
FIELDS = ("id", "name", "start_ns", "end_ns", "parent", "op", "arg")
STRIDE = len(FIELDS)

_now = time.perf_counter_ns


def _length_arg(args, _result):  # TransactionManager.read / begin_update
    return args[3]


def _window_bytes(args, _result):  # TransactionManager.begin_updates
    return sum(length for _address, length in args[2])


def _result_len(_args, result):  # None when the call raised
    return len(result) if result is not None else 0


def _lsn_span(_args, result):  # SystemLog.extend -> (first_lsn, next_lsn)
    return result[1] - result[0] if result is not None else 0


def _shard_id(args, _result):
    return args[0].shard_id


#: (module, class, method, span name, capture).  Layer = span name prefix.
POINTS = (
    ("repro.serve.server", "Server", "submit", "serve.submit", None),
    ("repro.serve.session", "Session", "execute", "serve.execute", None),
    ("repro.serve.shard_server", "ShardSession", "execute", "serve.execute", None),
    ("repro.shard.partition", "PartitionSpec", "shard_for_key", "shard.partition", None),
    ("repro.shard.partition", "PartitionSpec", "shard_for_row", "shard.partition", None),
    ("repro.shard.router", "ShardedDatabase", "shard_call", "shard.route", None),
    ("repro.shard.router", "ShardedDatabase", "commit_session", "shard.commit_session", None),
    ("repro.shard.router", "DecisionLog", "append", "shard.decision_log", None),
    ("repro.shard.shard", "ProcessShard", "call", "shard.call", _shard_id),
    ("repro.shard.core", "ShardCore", "execute", "shard.execute", None),
    ("repro.txn.manager", "TransactionManager", "begin", "txn.begin", None),
    ("repro.txn.manager", "TransactionManager", "commit", "txn.commit", None),
    ("repro.txn.manager", "TransactionManager", "abort", "txn.abort", None),
    ("repro.txn.manager", "TransactionManager", "prepare", "txn.prepare", None),
    ("repro.txn.manager", "TransactionManager", "commit_prepared", "txn.commit_prepared", None),
    ("repro.txn.manager", "TransactionManager", "begin_operation", "txn.begin_operation", None),
    ("repro.txn.manager", "TransactionManager", "commit_operation", "txn.commit_operation", None),
    ("repro.txn.manager", "TransactionManager", "lock", "txn.lock", None),
    ("repro.txn.manager", "TransactionManager", "read", "txn.read", _length_arg),
    ("repro.txn.manager", "TransactionManager", "begin_update", "txn.open_window", _length_arg),
    ("repro.txn.manager", "TransactionManager", "begin_updates", "txn.open_window", _window_bytes),
    ("repro.txn.manager", "TransactionManager", "write", "txn.write", None),
    ("repro.txn.manager", "TransactionManager", "end_update", "txn.end_update", None),
    ("repro.txn.manager", "TransactionManager", "update", "txn.update", None),
    ("repro.txn.locks", "LockManager", "acquire", "txn.lock_acquire", None),
    ("repro.txn.locks", "LockManager", "release_operation", "txn.lock_release_op", None),
    ("repro.txn.locks", "LockManager", "release_all", "txn.lock_release_all", None),
    ("repro.txn.locks", "LockManager", "locks_held", "txn.locks_held", _result_len),
    ("repro.core.pipeline", "ProtectionPipeline", "on_read", "core.on_read", None),
    ("repro.core.pipeline", "ProtectionPipeline", "on_begin_update", "core.on_begin_update", None),
    ("repro.core.pipeline", "ProtectionPipeline", "on_end_update", "core.on_end_update", None),
    ("repro.core.pipeline", "ProtectionPipeline", "on_begin_update_batch", "core.on_begin_update", None),
    ("repro.core.pipeline", "ProtectionPipeline", "on_end_update_batch", "core.on_end_update", None),
    ("repro.core.pipeline", "ProtectionPipeline", "on_operation_end", "core.on_operation_end", None),
    ("repro.core.audit", "Auditor", "run", "core.audit", None),
    ("repro.wal.system_log", "SystemLog", "append", "wal.append", None),
    ("repro.wal.system_log", "SystemLog", "extend", "wal.extend", _lsn_span),
    ("repro.wal.system_log", "SystemLog", "flush", "wal.flush", None),
    ("repro.storage.table", "Table", "lookup", "storage.lookup", None),
    ("repro.storage.table", "Table", "read", "storage.read", None),
    ("repro.storage.table", "Table", "update", "storage.update", None),
    ("repro.storage.table", "Table", "insert", "storage.insert", None),
    ("repro.storage.index", "HashIndex", "lookup", "storage.index_lookup", None),
    ("repro.storage.index", "HashIndex", "insert", "storage.index_insert", None),
    ("repro.mem.allocator", "SlotAllocator", "allocate", "mem.allocate", None),
    ("repro.recovery.checkpoint", "Checkpointer", "checkpoint", "recovery.checkpoint", None),
    ("repro.runtime.scheduler", "Scheduler", "tick", "runtime.tick", None),
)


class _ThreadSpans:
    """One thread's recording state."""

    __slots__ = ("tid", "data", "stack", "next_id", "op_id", "charges", "links")

    def __init__(self, tid: int) -> None:
        self.tid = tid
        self.op_id = -1
        self.reset()

    def reset(self) -> None:
        self.data = array("q")  # STRIDE integers per finished span
        self.stack: list[int] = []
        self.next_id = 0
        self.charges = 0
        #: (span id, parent thread, parent span id) of adopted spans
        self.links: list[tuple[int, int, int]] = []


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self.names: list[str] = []
        self._tls = threading.local()
        self._threads: list[_ThreadSpans] = []
        self._guard = threading.Lock()
        self.meter_charge = None  # the unwrapped Meter.charge, for pricing

    # ------------------------------------------------------------ state

    def record(self) -> _ThreadSpans:
        """This thread's recording state, created on its first traced call."""
        try:
            return self._tls.record
        except AttributeError:
            with self._guard:
                record = _ThreadSpans(len(self._threads))
                self._threads.append(record)
            self._tls.record = record
            return record

    def set_op(self, op_id: int) -> None:
        self.record().op_id = op_id

    def start(self) -> None:
        with self._guard:
            for record in self._threads:
                record.reset()
        self.enabled = True

    def stop(self) -> dict:
        """Disable and hand over everything recorded since ``start``."""
        self.enabled = False
        with self._guard:
            return {
                "names": list(self.names),
                "threads": [record.data for record in self._threads],
                "links": [record.links for record in self._threads],
                "charges": sum(record.charges for record in self._threads),
            }

    # --------------------------------------------------------- wrappers

    def _span(self, fn, name: str, capture):
        tracer, tls = self, self._tls
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            try:
                record = tls.record
            except AttributeError:
                record = tracer.record()
            stack = record.stack
            parent = stack[-1] if stack else -1
            span_id = record.next_id
            record.next_id = span_id + 1
            stack.append(span_id)
            result = None
            began = _now()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                ended = _now()
                stack.pop()
                arg = capture(args, result) if capture is not None else 0
                record.data.extend(
                    (span_id, name_id, began, ended, parent, record.op_id, arg)
                )

        return wrapper

    def _submit(self, spanned):
        """``Server.submit``: tell the session which span queued it."""
        tracer = self

        def submit(self, session, request):
            if tracer.enabled:
                record = tracer.record()
                session._e2e_link = (record.tid, record.next_id, record.op_id)
            return spanned(self, session, request)

        return submit

    def _execute(self, spanned):
        """``Session.execute`` on a worker thread: adopt the submit span."""
        tracer = self

        def execute(self, request):
            if tracer.enabled:
                link = self.__dict__.get("_e2e_link")
                record = tracer.record()
                if link is not None and not record.stack:
                    record.op_id = link[2]
                    record.links.append((record.next_id, link[0], link[1]))
            return spanned(self, request)

        return execute

    def _worker_execute(self, spanned):
        """``ShardCore.execute``: answer the tracer's control commands."""
        tracer = self

        def execute(self, cmd):
            if cmd[0] == CONTROL:
                return tracer.start() if cmd[1] == "start" else tracer.stop()
            return spanned(self, cmd)

        return execute

    def _count_charges(self, fn):
        tracer = self

        def charge(self, event, count=1):
            if tracer.enabled:
                tracer.record().charges += 1
            return fn(self, event, count)

        return charge

    def install(self) -> None:
        """Patch every entry point in ``POINTS`` plus ``Meter.charge``."""
        adapters = {
            "serve.submit": self._submit,
            "serve.execute": self._execute,
            "shard.execute": self._worker_execute,
        }
        for module_name, class_name, method, name, capture in POINTS:
            cls = getattr(importlib.import_module(module_name), class_name)
            wrapped = self._span(cls.__dict__[method], name, capture)
            if name in adapters:
                wrapped = adapters[name](wrapped)
            setattr(cls, method, wrapped)
        from repro.sim.clock import Meter

        self.meter_charge = Meter.__dict__["charge"]
        Meter.charge = self._count_charges(self.meter_charge)


# ------------------------------------------------------------------ analysis


def _rows(data):
    """Spans of one thread as 7-tuples, in the order they finished."""
    return [tuple(data[i : i + STRIDE]) for i in range(0, len(data), STRIDE)]


class SpanStats:
    """Per-name totals plus the few per-span lists the metrics need."""

    def __init__(self) -> None:
        self.count: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.arg_sum: dict[str, int] = defaultdict(int)
        self.charges = 0
        self.queue_wait_ns: list[int] = []
        self.call_ns: list[int] = []
        self.ipc_ns: list[int] = []
        self.twopc_commit_ns: list[int] = []
        self.local_commit_ns: list[int] = []
        self.index_probe_reads = 0

    def layer_self_ns(self) -> dict[str, int]:
        layers: dict[str, int] = defaultdict(int)
        for name, ns in self.self_ns.items():
            layers[name.split(".")[0]] += ns
        return dict(layers)


def analyse(main: dict, workers: list[dict]) -> SpanStats:
    """Fold the parent's export and the shard workers' into ``SpanStats``."""
    stats = SpanStats()
    stats.charges = main["charges"] + sum(w["charges"] for w in workers)

    # process -> thread -> {span id: row}, and the matching self times
    processes = [main] + workers
    spans = [
        [{row[0]: row for row in _rows(data)} for data in export["threads"]]
        for export in processes
    ]
    own = [
        [{sid: row[3] - row[2] for sid, row in thread.items()} for thread in process]
        for process in spans
    ]
    for process, process_own in zip(spans, own):
        for thread, thread_own in zip(process, process_own):
            for row in thread.values():
                if row[4] >= 0:
                    thread_own[row[4]] -= row[3] - row[2]

    # Thread hand-off: charge a session's execute span to the submit that
    # queued it, and measure how long it sat in the admission queue.
    for tid, links in enumerate(main["links"]):
        for span_id, parent_tid, parent_id in links:
            execute = spans[0][tid][span_id]
            submit = spans[0][parent_tid][parent_id]
            own[0][parent_tid][parent_id] -= execute[3] - execute[2]
            stats.queue_wait_ns.append(execute[2] - submit[2])

    # Process hand-off: k-th finished call on a shard = k-th execute there.
    names = main["names"]
    ids = {name: i for i, name in enumerate(names)}
    calls: dict[int, list] = defaultdict(list)
    for tid, thread in enumerate(spans[0]):
        for row in thread.values():
            if row[1] == ids.get("shard.call"):
                calls[row[6]].append((row[3], tid, row[0]))
                stats.call_ns.append(row[3] - row[2])
    for shard_id, export in enumerate(workers):
        execute_id = export["names"].index("shard.execute")
        executes = [
            row
            for data in export["threads"]
            for row in _rows(data)
            if row[1] == execute_id and row[4] == -1
        ]
        for (_ended, tid, span_id), execute in zip(sorted(calls[shard_id]), executes):
            inside = execute[3] - execute[2]
            call = spans[0][tid][span_id]
            own[0][tid][span_id] -= inside
            stats.ipc_ns.append(call[3] - call[2] - inside)

    for export, process, process_own in zip(processes, spans, own):
        pnames = export["names"]
        for thread, thread_own in zip(process, process_own):
            for span_id, row in thread.items():
                name = pnames[row[1]]
                stats.count[name] += 1
                stats.total_ns[name] += row[3] - row[2]
                stats.self_ns[name] += thread_own[span_id]
                stats.arg_sum[name] += row[6]
                if (
                    name == "txn.read"
                    and row[4] >= 0
                    and pnames[thread[row[4]][1]] == "storage.index_lookup"
                ):
                    stats.index_probe_reads += 1

    # Split commit_session durations by whether a decision was logged.
    for thread in spans[0]:
        twopc = {
            row[4] for row in thread.values() if row[1] == ids.get("shard.decision_log")
        }
        for span_id, row in thread.items():
            if row[1] == ids.get("shard.commit_session"):
                target = stats.twopc_commit_ns if span_id in twopc else stats.local_commit_ns
                target.append(row[3] - row[2])
    return stats


def write_jsonl(path: str, main: dict, workers: list[dict]) -> None:
    """A header line naming the fields, then one span per line."""
    with open(path, "w") as handle:
        handle.write(json.dumps({"fields": ["proc", "thread", *FIELDS]}) + "\n")
        exports = [("main", main)] + [(f"shard{i}", w) for i, w in enumerate(workers)]
        for proc, export in exports:
            names = export["names"]
            for tid, data in enumerate(export["threads"]):
                adopted = {sid: [ptid, pid] for sid, ptid, pid in export["links"][tid]}
                for row in _rows(data):
                    # a cross-thread parent is written as [thread, span id]
                    parent = adopted.get(row[0], row[4])
                    handle.write(
                        json.dumps(
                            [proc, tid, row[0], names[row[1]], row[2], row[3], parent, *row[5:]]
                        )
                        + "\n"
                    )
