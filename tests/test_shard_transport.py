"""The shard pipe's framed transport, each case against a real worker.

:class:`~repro.shard.worker.Channel` writes one ``u32 length | pickle``
frame per message and parses replies out of a receive buffer.  These
tests hold it to what the connection it replaced promised: frames that
arrive in pieces, pipelined backlogs, messages larger than the socket
buffers, EOF mid-frame, ``poll`` over buffered input, timeouts that
poison the handle, and a severed pipe that never touches a reused fd.
"""

from __future__ import annotations

import fcntl
import os
import pickle
import signal
import struct
import termios
import time
from types import SimpleNamespace

import pytest

from repro import Field, FieldType, Schema
from repro.errors import ShardTimeoutError
from repro.faults.workers import sever_pipe
from repro.shard import ShardedConfig
from repro.shard import worker as worker_module
from repro.shard.shard import ShardCrashed, open_shard

BLOB = 4096
CAPACITY = 1024  # a 4 MiB table: its snapshot outgrows the socket buffers
SCHEMA = Schema([Field("id", FieldType.INT64), Field("data", FieldType.CHAR, BLOB)])
TABLE_DEFS = [("blob", SCHEMA, CAPACITY, "id")]


@pytest.fixture
def shard(tmp_path):
    handle = open_shard(ShardedConfig(dir=str(tmp_path), mode="process"), 0, TABLE_DEFS)
    handle.wait_ready(timeout=60)
    yield handle
    handle.terminate()


def _insert(handle, ids, data=b"x"):
    return handle.call(
        ("txn", [("insert", "blob", {"id": i, "data": data}) for i in ids])
    )


def _frame_size(obj) -> int:
    return 4 + len(pickle.dumps(obj, pickle.HIGHEST_PROTOCOL))


def _unread_bytes(fd: int) -> int:
    raw = fcntl.ioctl(fd, termios.FIONREAD, b"\0\0\0\0")
    return struct.unpack("i", raw)[0]


def _wait_for_bytes(fd: int, count: int, deadline_s: float = 30.0) -> None:
    """Wait until the kernel holds ``count`` unread bytes on ``fd``."""
    deadline = time.monotonic() + deadline_s
    while _unread_bytes(fd) < count:
        assert time.monotonic() < deadline, "worker replies never arrived"
        time.sleep(0.001)


def test_frames_split_across_reads(shard, monkeypatch):
    """Headers and bodies that arrive a few bytes at a time still parse."""
    _insert(shard, range(4), b"abc" * 700)
    sizes = iter([1, 2, 3, 5, 7] * 100_000)
    monkeypatch.setattr(
        worker_module,
        "os",
        SimpleNamespace(
            read=lambda fd, n: os.read(fd, min(n, next(sizes))), write=os.write
        ),
    )
    assert shard.call(("ping",)) == "pong"
    for slot in range(4):
        shard.call_nowait(("txn", [("read", "blob", slot)]))
    rows = shard.drain()
    assert [row[0]["id"] for row in rows] == [0, 1, 2, 3]
    assert all(row[0]["data"] == b"abc" * 700 for row in rows)
    assert shard.call(("row_count", "blob")) == 4


def test_pipelined_backlog_drains_in_order(shard):
    _insert(shard, range(60))
    for key in range(60):
        shard.call_nowait(("txn", [("lookup", "blob", key)]))
    assert shard.pending == 60
    assert shard.drain() == [[key] for key in range(60)]
    assert shard.pending == 0
    assert shard.call(("ping",)) == "pong"


def test_messages_larger_than_one_mib(shard):
    ids = range(300)
    rows = [{"id": i, "data": i.to_bytes(2, "little") * (BLOB // 2 - 8)} for i in ids]
    command = ("txn", [("insert", "blob", row) for row in rows])
    assert _frame_size(command) > 1 << 20
    assert shard.call(command) == list(ids)

    snapshot = shard.call(("snapshot",))
    assert _frame_size(("ok", snapshot)) > 1 << 20
    image = b"".join(bytes(segment) for segment in snapshot.values())
    assert all(row["data"] in image for row in rows)
    assert shard.call(("row_count", "blob")) == 300


def test_worker_death_mid_frame_is_a_crash(shard):
    shard.call_nowait(("snapshot",))
    # The snapshot's frame is larger than both socket buffers, so once
    # its first bytes are readable the worker is blocked inside the write.
    assert shard._channel.poll(30)
    os.kill(shard._proc.pid, signal.SIGKILL)
    shard._proc.join(timeout=10)
    with pytest.raises(ShardCrashed):
        shard.drain()
    with pytest.raises(ShardCrashed):
        shard.call(("ping",))


def test_poll_answers_from_a_buffered_frame(shard):
    fd = shard._channel.fileno()
    shard.call_nowait(("ping",))
    shard.call_nowait(("ping",))
    _wait_for_bytes(fd, 2 * _frame_size(("ok", "pong")))
    # One read takes both replies; the second is answered from the buffer
    # while the fd itself has nothing left to read.
    assert shard.probe(timeout=5)
    assert shard.pending == 0
    assert _unread_bytes(fd) == 0
    assert shard.drain() == ["pong", "pong"]

    shard.call_nowait(("ping",))
    shard.call_nowait(("ping",))
    _wait_for_bytes(fd, 2 * _frame_size(("ok", "pong")))
    assert shard._channel.recv() == ("ok", "pong")
    assert _unread_bytes(fd) == 0
    assert shard._channel.poll(0)
    assert shard._channel.recv() == ("ok", "pong")
    assert not shard._channel.poll(0)


def test_call_timeout_poisons_the_handle(shard):
    with pytest.raises(ShardTimeoutError):
        shard.call(("hang", 5.0), timeout=0.05)
    assert not shard.is_alive()
    with pytest.raises(ShardCrashed):
        shard.call(("ping",))


def test_severed_pipe_never_writes_to_a_reused_fd(shard, tmp_path):
    old_fd = shard._channel.fileno()
    sever_pipe(SimpleNamespace(shards=[shard]), 0)
    files = []
    try:
        for n in range(256):
            handle = open(tmp_path / f"reuse-{n}", "wb+")
            files.append(handle)
            if handle.fileno() == old_fd:
                break
        else:
            pytest.fail(f"fd {old_fd} was never reused")
        for cmd in (("ping",), ("snapshot",)):
            with pytest.raises(ShardCrashed):
                shard.call(cmd)
        with pytest.raises(ShardCrashed):
            shard.call_nowait(("ping",))
        assert os.fstat(files[-1].fileno()).st_size == 0
    finally:
        for handle in files:
            handle.close()
