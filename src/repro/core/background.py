"""Background full-sweep audit work, scheduled not self-managed.

The full-sweep certification fold is one big ``np.bitwise_xor.reduce``
over the image (:meth:`~repro.core.regions.CodewordTable.fold_all`), and
numpy releases the GIL for the reduction -- so under a *threaded*
scheduler the fold runs on a worker thread while the (pure-Python)
mutator keeps executing.  The Sandboxing-STM observation motivating
this: validate concurrently with the mutator, not inline on its
critical path.

This module used to own a private ``threading.Thread``; it now asks the
:class:`~repro.runtime.scheduler.Scheduler` for a
:class:`~repro.runtime.scheduler.TaskHandle` instead, so sweeps obey
the database's one ownership model: the scheduler knows every in-flight
fold, and the shutdown/crash drain settles them in a fixed order.
Under a *deterministic* scheduler the fold defers and runs inline at
join -- same verdict, same meter charges, no threads.

Only the *fold* is background work.  Everything stateful -- log
records, meter charges, the verdict against the stored codewords, the
re-check of regions the mutator touched while the fold raced it --
happens on the joining thread
(:meth:`~repro.core.audit.Auditor.join_background_sweep`), so no lock
discipline beyond the snapshot/epoch handshake with the maintainer's
dirty-set is needed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.regions import CodewordTable
from repro.runtime.scheduler import TaskHandle

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.scheduler import Scheduler


class BackgroundSweep:
    """One in-flight full-sweep fold, owned by a scheduler."""

    def __init__(
        self,
        audit_id: int,
        begin_lsn: int,
        table: CodewordTable,
        scheduler: "Scheduler",
    ) -> None:
        self.audit_id = audit_id
        #: LSN of the sweep's AuditBegin record.  A clean sweep advances
        #: ``Audit_SN`` to this LSN, not the join LSN -- corruption
        #: anywhere could have occurred any time after the fold started.
        self.begin_lsn = begin_lsn
        self.table = table
        self.scheduler = scheduler
        self._handle: TaskHandle | None = None

    def start(self) -> None:
        self._handle = self.scheduler.spawn(
            f"audit.sweep.{self.audit_id}", self.table.fold_all
        )

    @property
    def done(self) -> bool:
        """Whether the fold has finished (join will not block)."""
        return self._handle is not None and self._handle.done

    def join(self) -> np.ndarray:
        """Wait for (or, deferred, run) the fold; returns the codewords.

        Idempotent: the handle caches its value, so the test pattern
        "join the fold early, then deliver the verdict later" works in
        both scheduler modes.
        """
        assert self._handle is not None, "sweep never started"
        computed = self._handle.result()
        self._deregister()
        assert computed is not None
        return computed

    def abandon(self) -> None:
        """Settle the work without a verdict (crash/close).

        A threaded fold is waited out and its result discarded; a
        deferred fold is simply dropped -- it never ran.
        """
        if self._handle is not None:
            self._handle.abandon()
            self._deregister()

    def _deregister(self) -> None:
        if self._handle is not None:
            self.scheduler.forget(self._handle)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.done else "pending"
        return f"BackgroundSweep(audit_id={self.audit_id}, {state})"
