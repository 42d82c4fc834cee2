"""Hardware (memory protection) scheme -- the point of comparison.

Implements the Expose Page Update Model of Sullivan & Stonebraker [21] as
described in Section 3: database pages are kept write-protected; a call to
``beginUpdate`` unprotects the page (or pages) being updated and
``endUpdate`` reprotects them.  The scheme is a page guard: the
:class:`~repro.core.pipeline.ProtectionPipeline` calls its :meth:`expose`
and :meth:`cover` around every update window and every physical undo.
A write to a protected page -- including a wild write -- traps and is not
performed, so this scheme *prevents* direct physical corruption rather
than detecting it.

The MMU is simulated (see :mod:`repro.mem.mprotect`); per-syscall costs
come from a platform profile calibrated against Table 1.  Each call made
while the workload is running additionally pays a working-set TLB/cache
refill penalty (``mprotect_workload_penalty``), which a bare
protect/unprotect microbenchmark loop does not incur -- this is what makes
the in-DBMS cost per call several times the Table 1 microbenchmark cost.
"""

from __future__ import annotations

from repro.core.schemes import ProtectionScheme
from repro.mem.memory import MemoryImage
from repro.mem.mprotect import MprotectCosts, PROT_READ, PROT_READWRITE, SimulatedMMU
from repro.sim.clock import Meter

#: Default profile: the paper's benchmark machine (UltraSPARC 2).
ULTRASPARC_MPROTECT = MprotectCosts(syscall_fixed_ns=10_500, per_page_ns=1_100)


class HardwareProtectionScheme(ProtectionScheme):
    """Keep pages write-protected; expose them only inside update windows."""

    name = "hardware"
    direct_protection = "prevent"
    indirect_protection = "unneeded"
    # The pipeline brackets update windows and physical undo with
    # expose()/cover().
    guards_pages = True

    def __init__(self, mprotect_costs: MprotectCosts = ULTRASPARC_MPROTECT) -> None:
        super().__init__()
        self.mprotect_costs = mprotect_costs
        self.mmu: SimulatedMMU | None = None

    def attach(self, memory: MemoryImage, meter: Meter) -> None:
        super().attach(memory, meter)
        self.mmu = SimulatedMMU(memory, self.mprotect_costs, meter)

    def startup(self) -> None:
        """Protect the whole database image and start enforcing."""
        assert self.mmu is not None and self.memory is not None
        self.mmu.protect_pages(range(self.memory.page_count), PROT_READ)
        self.mmu.enable()

    def expose(self, address: int, length: int) -> None:
        """Unprotect the pages under a window (``beginUpdate``)."""
        assert self.mmu is not None and self.meter is not None
        self.mmu.mprotect(address, length, PROT_READWRITE)
        self.meter.charge("mprotect_workload_penalty")

    def cover(self, address: int, length: int) -> None:
        """Reprotect the pages under a window (``endUpdate``)."""
        assert self.mmu is not None and self.meter is not None
        self.mmu.mprotect(address, length, PROT_READ)
        self.meter.charge("mprotect_workload_penalty")
