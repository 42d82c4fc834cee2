"""The per-core shard worker: a ShardCore behind a multiprocessing pipe.

One worker process owns one shard outright -- image, codeword table,
system log, checkpointer, sweep threads -- so N shards fold codewords
and flush logs on N cores with no shared GIL.  The protocol over the pipe
is deliberately dumb: the parent sends command tuples
(:meth:`~repro.shard.core.ShardCore.execute` commands), the worker answers
``("ok", result)`` or ``("err", exc)``.  The error crosses as the pickled
:class:`~repro.errors.ReproError` itself -- class, message, ``retryable``
and every structured attribute intact -- and
:class:`~repro.shard.shard.ProcessShard` re-raises it parent-side; anything
that is not a ``ReproError`` is wrapped in one first.  The pipe stays FIFO,
so the parent may pipeline many commands before reading any answer (how
the throughput benchmark keeps every worker busy).

Both ends speak through a :class:`Channel`: one frame per message,
``u32 length | pickle``, written with one ``os.write`` (a loop only when
the pipe takes a large frame in pieces) and read from a receive buffer
that one ``os.read`` of up to 64 KiB refills, so a backlog of pipelined
replies that arrived together costs one read.

Startup opens the shard -- creation *or recovery*, through
:meth:`~repro.shard.core.ShardCore.open` -- inside the worker.  Recovery
inside the worker is the point of shard-parallel restart: the parent
starts N recovering workers and the N redo/undo scans run concurrently
in separate processes; each worker's ready message carries its recovery
summary.
"""

from __future__ import annotations

import errno
import math
import os
import pickle
import select
import struct
import traceback

from repro.errors import ReproError, SimulatedCrash
from repro.shard.core import ShardCore

_LENGTH = struct.Struct("<I")
_READ_SIZE = 64 * 1024


class Channel:
    """One end of a shard pipe: length-prefixed pickles over its fd.

    Wraps a :class:`multiprocessing.connection.Connection`, which keeps
    owning the descriptor (and pickles it to a spawned child); the
    channel only does the I/O.  ``send`` / ``recv`` / ``poll`` / ``close``
    keep the connection's meaning: EOF raises :class:`EOFError`, a broken
    pipe an :class:`OSError`, and ``poll`` says whether a ``recv`` has
    input to start on.  A closed channel refuses I/O itself (``EBADF``)
    instead of handing a descriptor number the OS may since have reused
    to ``os.write``.
    """

    __slots__ = ("_conn", "_fd", "_poller", "_buf", "_pos")

    def __init__(self, conn) -> None:
        self._conn = conn
        self._fd = conn.fileno()
        self._poller = select.poll()
        self._poller.register(self._fd, select.POLLIN)
        #: Bytes read but not yet returned: ``_buf[_pos:]``.
        self._buf = b""
        self._pos = 0

    def send(self, obj) -> None:
        data = pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)
        frame = _LENGTH.pack(len(data)) + data
        written = os.write(self._live_fd(), frame)
        if written < len(frame):
            view = memoryview(frame)
            while written < len(frame):
                written += os.write(self._live_fd(), view[written:])

    def recv(self):
        buf, pos = self._buf, self._pos
        if len(buf) - pos < _LENGTH.size:
            buf, pos = self._fill(buf, pos, _LENGTH.size), 0
        end = pos + _LENGTH.size + _LENGTH.unpack_from(buf, pos)[0]
        if end > len(buf):
            buf, end, pos = self._fill(buf, pos, end - pos), end - pos, 0
        if end == len(buf):
            self._buf, self._pos = b"", 0
        else:
            self._buf, self._pos = buf, end
        return pickle.loads(memoryview(buf)[pos + _LENGTH.size : end])

    def poll(self, timeout: float | None = 0.0) -> bool:
        """True when ``recv`` has input: buffered bytes, or a readable
        (or hung-up) fd within ``timeout`` seconds (None waits)."""
        self._live_fd()
        if self._pos < len(self._buf):
            return True
        ms = None if timeout is None else max(0, math.ceil(timeout * 1000))
        return bool(self._poller.poll(ms))

    def fileno(self) -> int:
        return self._live_fd()

    def close(self) -> None:
        if self._fd is not None:
            self._fd = None
            self._buf, self._pos = b"", 0
            self._conn.close()

    # ---------------------------------------------------------- innards

    def _live_fd(self) -> int:
        fd = self._fd
        if fd is None:
            raise OSError(errno.EBADF, "shard channel is closed")
        return fd

    def _fill(self, buf: bytes, pos: int, want: int) -> bytes:
        """The unread bytes ``buf[pos:]`` extended by reads until at
        least ``want`` bytes are there."""
        chunks = [buf[pos:]] if pos < len(buf) else []
        have = len(buf) - pos
        while have < want:
            chunk = os.read(self._live_fd(), max(want - have, _READ_SIZE))
            if not chunk:
                if have:
                    raise OSError("got end of file during message")
                raise EOFError
            chunks.append(chunk)
            have += len(chunk)
        return chunks[0] if len(chunks) == 1 else b"".join(chunks)


def shard_worker_main(conn, config, table_defs, committed: frozenset) -> None:
    """Entry point of one shard worker process (arguments as for
    :meth:`~repro.shard.core.ShardCore.open`)."""
    channel = Channel(conn)
    try:
        core, summary = ShardCore.open(config, table_defs, committed)
        channel.send(("ok", summary))
    except BaseException as exc:  # startup failure: report, then exit
        detail = f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}"
        channel.send(("err", ReproError(detail)))
        channel.close()
        return

    running = True
    while running:
        try:
            cmd = channel.recv()
        except (EOFError, OSError):
            break
        if cmd[0] == "exit":
            try:
                core.db.close()
            except Exception:
                pass
            channel.send(("ok", "bye"))
            break
        try:
            result = core.execute(cmd)
            channel.send(("ok", result))
        except SimulatedCrash as exc:
            # A simulated crash inside a worker kills the whole worker,
            # exactly like a real one: close the log handle and exit; the
            # parent recovers the shard in a fresh process.
            try:
                core.db.crash()
            except Exception:
                pass
            channel.send(("crash", exc.point, exc.hit))
            running = False
        except ReproError as exc:
            channel.send(("err", exc))
        except BaseException as exc:
            channel.send(("err", ReproError(f"{type(exc).__name__}: {exc}")))
    channel.close()
