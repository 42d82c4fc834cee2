"""The protection scheme framework: member policies.

Every protection configuration is one
:class:`~repro.core.pipeline.ProtectionPipeline`, and the transaction
manager, auditor and recovery layers call only the pipeline.  A single
scheme name is a one-member pipeline; several joined with ``+`` stack
(``make_scheme("data_cw+read_logging")``).  The pipeline owns every
update window, physical undo and audit, and drives one shared
:class:`~repro.core.maintainer.CodewordMaintainer` for the whole stack.

A :class:`ProtectionScheme` is a *member policy*: its class policy
(region size, update latch mode, capability flags) plus the hooks that
differ per scheme -- ``on_read``, ``on_operation_end`` and, for a page
guard, ``expose`` / ``cover``.  It charges its costs to the shared
meter.

Scheme capability metadata mirrors the "Corruption: Direct / Indirect"
columns of Table 2 of the paper.
"""

from __future__ import annotations

from abc import ABC
from typing import TYPE_CHECKING

from repro.core.maintainer import CodewordMaintainer
from repro.errors import ConfigError
from repro.mem.memory import MemoryImage
from repro.sim.clock import Meter
from repro.txn.latches import SHARED
from repro.txn.transaction import Transaction
from repro.wal.system_log import SystemLog

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.pipeline import ProtectionPipeline


class ProtectionScheme(ABC):
    """A member policy; the baseline behaviour is 'do nothing, cost
    nothing'.  Only a :class:`~repro.core.pipeline.ProtectionPipeline`
    calls these hooks."""

    name = "abstract"
    direct_protection = "none"    # "none" | "detect" | "prevent"
    indirect_protection = "none"  # "none" | "prevent" | "detect+correct" | "unneeded"
    uses_codewords = False
    logs_reads = False
    logs_read_checksums = False
    #: True for schemes that keep pages write-protected outside windows:
    #: the pipeline calls their ``expose`` / ``cover`` around every window
    #: and every physical undo.
    guards_pages = False
    #: True for schemes whose reads require up-to-date stored codewords
    #: (incompatible with deferred maintenance in a stack).
    requires_fresh_codewords = False

    def __init__(self) -> None:
        self.memory: MemoryImage | None = None
        self.meter: Meter | None = None
        #: The system log, once a transaction manager binds it.
        self.system_log: SystemLog | None = None

    def attach(self, memory: MemoryImage, meter: Meter) -> None:
        """Bind the scheme to a database's memory image and cost meter."""
        self.memory = memory
        self.meter = meter

    def bind_log(self, system_log: SystemLog) -> None:
        """Bind the system log (read logging packs a read made outside
        any operation straight into its tail)."""
        self.system_log = system_log

    def startup(self) -> None:
        """Called once the image is formatted or recovered."""

    # ------------------------------------------------------------ hooks

    def on_read(self, txn: Transaction, address: int, length: int) -> None:
        """Called before every prescribed read."""

    def on_operation_end(self, txn: Transaction) -> None:
        """Called at operation commit/abort (clears per-op scheme caches)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


class BaselineScheme(ProtectionScheme):
    """No corruption protection at all -- the Table 2 baseline row."""

    name = "baseline"


class CodewordSchemeBase(ProtectionScheme):
    """Policy shared by every codeword-maintaining scheme.

    The machinery -- codeword table, protection/codeword latches, window
    bookkeeping, maintenance, codeword-aware undo and the audit fold --
    lives in one :class:`CodewordMaintainer` that the
    :class:`~repro.core.pipeline.ProtectionPipeline` builds from the
    folded policy of its codeword members; each member takes it through
    :meth:`adopt_maintainer`.
    """

    uses_codewords = True
    direct_protection = "detect"
    # Updaters hold the protection latch in this mode during the window.
    update_latch_mode = SHARED
    # Whether a separate codeword latch guards the table (Section 3.2).
    uses_codeword_latch = True
    # Whether maintenance is batched until audit time (deferred extension).
    deferred_maintenance = False

    def __init__(self, region_size: int) -> None:
        super().__init__()
        #: This member's region size; the pipeline's maintainer uses the
        #: smallest of its members'.
        self.region_size = region_size
        self.maintainer: CodewordMaintainer | None = None

    def adopt_maintainer(self, maintainer: CodewordMaintainer) -> None:
        """Take the pipeline's shared maintainer."""
        self.maintainer = maintainer


SCHEME_NAMES = (
    "baseline",
    "data_cw",
    "precheck",
    "read_logging",
    "cw_read_logging",
    "hardware",
    "deferred",
)

#: Accepted spellings that map onto canonical :data:`SCHEME_NAMES`.
SCHEME_ALIASES = {
    "data_codeword": "data_cw",
    "codeword": "data_cw",
    "read_precheck": "precheck",
    "memory_protection": "hardware",
}

#: Keyword parameters each scheme understands: :func:`make_scheme` hands
#: each member the ``scheme_params`` keys it understands.
SCHEME_PARAMS: dict[str, frozenset[str]] = {
    "baseline": frozenset(),
    "data_cw": frozenset({"region_size"}),
    "precheck": frozenset({"region_size"}),
    "read_logging": frozenset({"region_size", "log_checksums"}),
    "cw_read_logging": frozenset({"region_size", "log_checksums"}),
    "hardware": frozenset({"mprotect_costs"}),
    "deferred": frozenset({"region_size"}),
}


def resolve_scheme_name(name: str) -> str:
    """Canonicalise a scheme name, raising a helpful :class:`ConfigError`."""
    canonical = SCHEME_ALIASES.get(name, name)
    if canonical not in SCHEME_NAMES:
        valid = ", ".join(SCHEME_NAMES)
        raise ConfigError(
            f"unknown protection scheme {name!r}; valid schemes: {valid}"
            " (stack schemes with '+', e.g. 'data_cw+read_logging')"
        )
    return canonical


def understood_params(name: str, params: dict) -> dict:
    """The ``params`` some member of scheme ``name`` understands: what a
    harness that runs any scheme with one parameter set passes to
    :func:`make_scheme`, which refuses the rest."""
    known = set().union(
        *(SCHEME_PARAMS[resolve_scheme_name(part.strip())]
          for part in name.split("+"))
    )
    return {k: v for k, v in params.items() if k in known}


def _member(name: str, params: dict) -> ProtectionScheme:
    """Build one member from its canonical name and its own parameters."""
    from repro.core.data_codeword import DataCodewordScheme
    from repro.core.deferred import DeferredMaintenanceScheme
    from repro.core.hardware import HardwareProtectionScheme
    from repro.core.precheck import ReadPrecheckScheme
    from repro.core.read_logging import ReadLoggingScheme

    if name in ("read_logging", "cw_read_logging"):
        params = {"log_checksums": name == "cw_read_logging", **params}
    cls = {
        "baseline": BaselineScheme,
        "data_cw": DataCodewordScheme,
        "precheck": ReadPrecheckScheme,
        "read_logging": ReadLoggingScheme,
        "cw_read_logging": ReadLoggingScheme,
        "hardware": HardwareProtectionScheme,
        "deferred": DeferredMaintenanceScheme,
    }[name]
    return cls(**params)


def make_scheme(name: str, **params) -> "ProtectionPipeline":
    """Build the protection pipeline a scheme name describes.

    Parameters
    ----------
    name:
        One of :data:`SCHEME_NAMES` (or an alias from
        :data:`SCHEME_ALIASES`), or several joined with ``+`` -- e.g.
        ``"data_codeword+read_logging"`` -- whose codeword members share
        a single table and latch set.  A single name is a one-member
        pipeline.
    params:
        ``region_size`` for codeword schemes (default 64 for ``precheck``,
        65536 for audit-based schemes); ``log_checksums`` for the read
        logging schemes; ``mprotect_costs`` for ``hardware``.  Each
        parameter is routed to every member that understands it; a
        parameter no member understands is a :class:`ConfigError`.
    """
    from repro.core.pipeline import ProtectionPipeline

    member_names = [part.strip() for part in name.split("+")]
    if len(member_names) > 1 and not all(member_names):
        raise ConfigError(
            f"malformed stacked scheme name {name!r}: empty member between '+'"
        )
    canonical = [resolve_scheme_name(part) for part in member_names]
    duplicates = {n for n in canonical if canonical.count(n) > 1}
    if duplicates:
        raise ConfigError(
            f"stacked scheme {name!r} repeats member(s) {sorted(duplicates)}"
        )
    unknown = set(params).difference(*(SCHEME_PARAMS[n] for n in canonical))
    if unknown:
        raise ConfigError(
            f"scheme parameters {sorted(unknown)} not understood by any "
            f"member of scheme {name!r}"
        )
    return ProtectionPipeline(
        [
            _member(n, {k: v for k, v in params.items() if k in SCHEME_PARAMS[n]})
            for n in canonical
        ]
    )
