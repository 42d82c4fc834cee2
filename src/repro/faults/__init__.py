"""Fault injection: the addressing errors the paper defends against,
plus named crash points at every durability boundary, worker-level
faults (kill/hang/sever a shard worker -- what the shard supervisor
defends against) and the campaign runner that schedules both
(``repro.faults.campaign``, imported lazily to keep this package
light)."""

from repro.faults.crashpoints import (
    CRASH_POINTS,
    FORWARD_CRASH_POINTS,
    RECOVERY_CRASH_POINTS,
    CrashPointRegistry,
)
from repro.faults.injector import CorruptionEvent, FaultInjector, tear_log_tail
from repro.faults.workers import (
    hang_worker,
    kill_after_decision,
    kill_after_reply,
    kill_on_command,
    kill_worker,
    sever_pipe,
)

__all__ = [
    "FaultInjector",
    "CorruptionEvent",
    "tear_log_tail",
    "CrashPointRegistry",
    "CRASH_POINTS",
    "FORWARD_CRASH_POINTS",
    "RECOVERY_CRASH_POINTS",
    "hang_worker",
    "kill_after_decision",
    "kill_after_reply",
    "kill_on_command",
    "kill_worker",
    "sever_pipe",
]
