"""The protection scheme framework.

A :class:`ProtectionScheme` hooks the three points of the prescribed
update model (Section 1): reads, ``begin_update`` and ``end_update``.  The
transaction manager calls the hooks; the scheme maintains whatever state
(codeword tables, protection latches, MMU protection bits) its level of
protection requires and charges its costs to the shared meter.

Scheme capability metadata mirrors the "Corruption: Direct / Indirect"
columns of Table 2 of the paper.

Since the pipeline refactor, codeword schemes no longer own the codeword
machinery directly: each delegates to a
:class:`~repro.core.maintainer.CodewordMaintainer`, so a
:class:`~repro.core.pipeline.ProtectionPipeline` can substitute one
*shared* maintainer for a whole stack (``make_scheme("data_cw+read_logging")``).
"""

from __future__ import annotations

from abc import ABC

from repro.core.maintainer import CodewordMaintainer
from repro.core.regions import CodewordTable
from repro.errors import ConfigError
from repro.mem.memory import MemoryImage
from repro.sim.clock import Meter
from repro.txn.latches import LatchTable, SHARED
from repro.txn.transaction import Transaction
from repro.wal.local_log import PhysicalUndo


class ProtectionScheme(ABC):
    """Base class: the baseline behaviour is 'do nothing, cost nothing'."""

    name = "abstract"
    direct_protection = "none"    # "none" | "detect" | "prevent"
    indirect_protection = "none"  # "none" | "prevent" | "detect+correct" | "unneeded"
    uses_codewords = False
    logs_reads = False
    logs_read_checksums = False
    #: True when the configuration carries both audit-based and
    #: checksum-based corruption evidence (only pipelines set this).
    combines_evidence = False
    #: True for schemes that keep pages write-protected outside windows
    #: (the pipeline must expose pages before writing below the hooks).
    guards_pages = False
    #: True for schemes whose reads require up-to-date stored codewords
    #: (incompatible with deferred maintenance in a stack).
    requires_fresh_codewords = False

    def __init__(self) -> None:
        self.memory: MemoryImage | None = None
        self.meter: Meter | None = None

    def attach(self, memory: MemoryImage, meter: Meter) -> None:
        """Bind the scheme to a database's memory image and cost meter."""
        self.memory = memory
        self.meter = meter

    def startup(self) -> None:
        """Called once the image is formatted or recovered."""

    # ------------------------------------------------------------ hooks

    def on_read(self, txn: Transaction, address: int, length: int) -> None:
        """Called before every prescribed read."""

    def on_begin_update(self, txn: Transaction, address: int, length: int) -> None:
        """Called when an update window opens."""

    def on_end_update(
        self, txn: Transaction, address: int, old_image: bytes, new_image: bytes
    ) -> int | None:
        """Called when an update window closes.

        Returns an optional checksum of the *old* image to store in the
        update's redo record (the codewords-in-write-records extension of
        Section 4.3); ``None`` for schemes that do not log it.
        """
        return None

    def close_update_window(self, txn: Transaction, address: int, length: int) -> None:
        """Release window resources without normal end-of-update work.

        Used when a window is abandoned by a rollback before
        ``end_update`` ran (the codeword_applied=False path of
        Section 3.1).
        """

    # ------------------------------------------------------ batch hooks
    #
    # Multi-range update windows (``begin_updates``) dispatch through
    # these.  The defaults loop the scalar hooks, so every scheme is
    # batch-correct by construction; the pipeline overrides them to drive
    # the shared maintainer once for the whole window instead.

    def on_begin_update_batch(
        self, txn: Transaction, regions: list[tuple[int, int]]
    ) -> None:
        """Called when a multi-region update window opens."""
        for address, length in regions:
            self.on_begin_update(txn, address, length)

    def on_end_update_batch(
        self, txn: Transaction, items: list[tuple[int, bytes, bytes]]
    ) -> list[int | None]:
        """Called when a multi-region window closes.

        ``items`` holds ``(address, old_image, new_image)`` per range;
        returns the per-range old-image checksums (``None`` entries for
        schemes that do not log them), positionally matching ``items``.
        """
        return [
            self.on_end_update(txn, address, old_image, new_image)
            for address, old_image, new_image in items
        ]

    def close_update_window_batch(
        self, txn: Transaction, regions: list[tuple[int, int]]
    ) -> None:
        """Release a multi-region window abandoned before ``end_update``."""
        for address, length in regions:
            self.close_update_window(txn, address, length)

    def on_operation_end(self, txn: Transaction) -> None:
        """Called at operation commit/abort (clears per-op scheme caches)."""

    def apply_physical_undo(self, txn: Transaction | None, entry: PhysicalUndo) -> None:
        """Restore a physical before-image during rollback."""
        assert self.memory is not None
        self.memory.write(entry.address, entry.image)

    # ------------------------------------------------------------ audit

    def audit_regions(self, region_ids=None) -> list[int]:
        """Return corrupt region ids; schemes without codewords see none."""
        return []

    @property
    def codeword_table(self) -> CodewordTable | None:
        return None

    @property
    def space_overhead(self) -> float:
        """Extra bytes per data byte this scheme needs."""
        return 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


class BaselineScheme(ProtectionScheme):
    """No corruption protection at all -- the Table 2 baseline row."""

    name = "baseline"


class CodewordSchemeBase(ProtectionScheme):
    """Shared behaviour for every codeword-maintaining scheme.

    The actual machinery -- codeword table, protection/codeword latches,
    window bookkeeping, maintenance, codeword-aware undo and the audit
    fold -- lives in a :class:`CodewordMaintainer`.  A bare scheme owns a
    private maintainer configured from its class policy; when stacked in
    a :class:`~repro.core.pipeline.ProtectionPipeline`, members
    :meth:`adopt_maintainer` one shared instance instead so the stack
    keeps a single table and latch set.
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
        self.maintainer = CodewordMaintainer(
            region_size,
            update_latch_mode=self.update_latch_mode,
            uses_codeword_latch=self.uses_codeword_latch,
            deferred=self.deferred_maintenance,
        )

    def adopt_maintainer(self, maintainer: CodewordMaintainer) -> None:
        """Replace the private maintainer with a pipeline-shared one."""
        self.maintainer = maintainer

    @property
    def region_size(self) -> int:
        return self.maintainer.region_size

    @property
    def protection_latches(self) -> LatchTable:
        return self.maintainer.protection_latches

    @property
    def codeword_latches(self) -> LatchTable:
        return self.maintainer.codeword_latches

    def attach(self, memory: MemoryImage, meter: Meter) -> None:
        super().attach(memory, meter)
        self.maintainer.attach(memory, meter)

    def startup(self) -> None:
        self.maintainer.rebuild()

    @property
    def codeword_table(self) -> CodewordTable | None:
        return self.maintainer.table

    @property
    def space_overhead(self) -> float:
        return self.maintainer.space_overhead

    # ---------------------------------------------------------- windows

    def on_begin_update(self, txn: Transaction, address: int, length: int) -> None:
        self.maintainer.open_window(txn, [(address, length)])

    def on_end_update(
        self, txn: Transaction, address: int, old_image: bytes, new_image: bytes
    ) -> int | None:
        self.maintainer.maintain(txn, [(address, old_image, new_image)])
        self.maintainer.release_window(txn)
        return None

    def close_update_window(self, txn: Transaction, address: int, length: int) -> None:
        self.maintainer.release_window(txn)

    # ------------------------------------------------------------- undo

    def apply_physical_undo(self, txn: Transaction | None, entry: PhysicalUndo) -> None:
        self.maintainer.apply_physical_undo(entry)

    # ------------------------------------------------------------ audit

    def audit_regions(self, region_ids=None) -> list[int]:
        return self.maintainer.audit_regions(region_ids)

    def checksum_of(self, data: bytes, charge: bool = True) -> int:
        """Checksum a read value (used by read logging with codewords)."""
        return self.maintainer.checksum_of(data, charge)


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

#: Keyword parameters each scheme understands.  Used when a stacked config
#: distributes one shared ``scheme_params`` dict across its members.
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


def _make_single(name: str, **params) -> ProtectionScheme:
    from repro.core.data_codeword import DataCodewordScheme
    from repro.core.deferred import DeferredMaintenanceScheme
    from repro.core.hardware import HardwareProtectionScheme
    from repro.core.precheck import ReadPrecheckScheme
    from repro.core.read_logging import ReadLoggingScheme

    if name == "baseline":
        return BaselineScheme()
    if name == "data_cw":
        return DataCodewordScheme(region_size=params.pop("region_size", 65536), **params)
    if name == "precheck":
        return ReadPrecheckScheme(region_size=params.pop("region_size", 64), **params)
    if name == "read_logging":
        return ReadLoggingScheme(
            region_size=params.pop("region_size", 65536),
            log_checksums=params.pop("log_checksums", False),
            **params,
        )
    if name == "cw_read_logging":
        return ReadLoggingScheme(
            region_size=params.pop("region_size", 65536),
            log_checksums=params.pop("log_checksums", True),
            **params,
        )
    if name == "hardware":
        return HardwareProtectionScheme(**params)
    assert name == "deferred"
    return DeferredMaintenanceScheme(region_size=params.pop("region_size", 65536), **params)


def make_scheme(name: str, **params) -> ProtectionScheme:
    """Build a protection scheme (or a stacked pipeline of them) by name.

    Parameters
    ----------
    name:
        One of :data:`SCHEME_NAMES` (or an alias from
        :data:`SCHEME_ALIASES`), or several joined with ``+`` -- e.g.
        ``"data_codeword+read_logging"`` -- to build a
        :class:`~repro.core.pipeline.ProtectionPipeline` whose codeword
        members share a single table and latch set.
    params:
        ``region_size`` for codeword schemes (default 64 for ``precheck``,
        65536 for audit-based schemes); ``log_checksums`` for the read
        logging schemes; ``mprotect_costs`` for ``hardware``.  For a
        stacked name, each parameter is routed to every member that
        understands it; a parameter no member understands is an error.
    """
    if "+" in name:
        from repro.core.pipeline import ProtectionPipeline

        member_names = [part.strip() for part in name.split("+")]
        if any(not part for part in member_names):
            raise ConfigError(
                f"malformed stacked scheme name {name!r}: empty member between '+'"
            )
        canonical = [resolve_scheme_name(part) for part in member_names]
        duplicates = {n for n in canonical if canonical.count(n) > 1}
        if duplicates:
            raise ConfigError(
                f"stacked scheme {name!r} repeats member(s) {sorted(duplicates)}"
            )
        accepted: set[str] = set()
        members = []
        for member in canonical:
            member_params = {
                key: value
                for key, value in params.items()
                if key in SCHEME_PARAMS[member]
            }
            accepted.update(member_params)
            members.append(_make_single(member, **member_params))
        unknown = set(params) - accepted
        if unknown:
            raise ConfigError(
                f"scheme parameters {sorted(unknown)} not understood by any "
                f"member of stacked scheme {name!r}"
            )
        return ProtectionPipeline(members)
    return _make_single(resolve_scheme_name(name), **params)
