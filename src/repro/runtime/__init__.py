"""Runtime subsystem: the interval ticker and the scheduler-mode knob.

See :mod:`repro.runtime.scheduler`.
"""

from repro.runtime.scheduler import (
    DETERMINISTIC,
    THREADED,
    Scheduler,
    resolve_scheduler_mode,
)

__all__ = ["DETERMINISTIC", "THREADED", "Scheduler", "resolve_scheduler_mode"]
