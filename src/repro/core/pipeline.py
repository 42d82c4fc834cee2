"""Composable protection pipelines (the §4.2/§4.3 scheme combinations).

The paper's protection levels are complementary, not exclusive: Section
4.2 pairs Data Codeword audits (detect direct corruption) with Read
Logging (trace and repair indirect corruption), and Section 4.3's
checksum extension adds precise per-read evidence on top of region-level
audit evidence.  :class:`ProtectionPipeline` makes such combinations a
config choice: ``DBConfig(scheme="data_codeword+read_logging")`` builds a
stack of schemes behind the one hook interface the transaction manager
already dispatches to.

Composition rules
-----------------

* **One shared codeword table.**  All codeword members adopt a single
  :class:`~repro.core.maintainer.CodewordMaintainer` built from the
  folded policy of the stack: the *smallest* member region size, the
  *strictest* update latch mode (``EXCLUSIVE`` wins over ``SHARED``), a
  codeword latch if any member wants one, and deferred maintenance if
  any member defers (rejected when another member prechecks reads, which
  needs fresh codewords).  The pipeline -- not each member -- drives the
  maintainer's window open/close exactly once per update window, so
  stacking two codeword schemes never double-folds a delta.
* **Capability folding.**  ``uses_codewords`` / ``logs_reads`` /
  ``logs_read_checksums`` are ORs over members; ``direct_protection``
  and ``indirect_protection`` take the strongest member value.
  ``combines_evidence`` is True exactly when the stack carries *both*
  evidence kinds -- read/write checksums plus an audit-only codeword
  member -- which switches restart recovery into combined-evidence mode
  (checksum comparison unioned with the audit-populated
  CorruptDataTable).
* **Page guards bracket every write.**  For page-guarding members
  (hardware) the pipeline calls ``expose`` when a window opens and
  ``cover`` when it closes or is abandoned, and brackets physical undo
  -- which restores bytes beneath the prescribed interface -- the same
  way.

Every config, stacked or not, is one pipeline: a single scheme name is a
one-member stack, and the members keep only their policy and their
``on_read`` / ``on_operation_end`` / page-guard hooks.
"""

from __future__ import annotations

from repro.core.maintainer import CodewordMaintainer
from repro.core.regions import CodewordTable
from repro.core.schemes import CodewordSchemeBase, ProtectionScheme
from repro.errors import ConfigError
from repro.mem.memory import MemoryImage
from repro.sim.clock import Meter
from repro.txn.latches import EXCLUSIVE, LatchTable, SHARED
from repro.txn.transaction import Transaction
from repro.wal.local_log import PhysicalUndo

_DIRECT_RANK = {"none": 0, "detect": 1, "prevent": 2}
_INDIRECT_RANK = {"none": 0, "detect+correct": 1, "prevent": 2, "unneeded": 3}


class ProtectionPipeline(ProtectionScheme):
    """The one protection object: an ordered stack of member policies
    behind the hooks the transaction manager, auditor and recovery call."""

    def __init__(self, members) -> None:
        super().__init__()
        flattened: list[ProtectionScheme] = []
        for member in members:
            if isinstance(member, ProtectionPipeline):
                flattened.extend(member.members)
            else:
                flattened.append(member)
        if not flattened:
            raise ConfigError("a protection pipeline needs at least one member")
        self.members: tuple[ProtectionScheme, ...] = tuple(flattened)

        codeword_members = [m for m in self.members if m.uses_codewords]
        self._page_guards = tuple(m for m in self.members if m.guards_pages)
        # The members that do something on a read / at an operation's
        # end, bound once: the base class hooks are no-ops, so a member
        # that does not override one (data_cw's reads) is never called.
        self._readers = tuple(
            m for m in self.members if type(m).on_read is not ProtectionScheme.on_read
        )
        self._op_enders = tuple(
            m
            for m in self.members
            if type(m).on_operation_end is not ProtectionScheme.on_operation_end
        )
        self.maintainer: CodewordMaintainer | None = None
        if codeword_members:
            for member in codeword_members:
                if not isinstance(member, CodewordSchemeBase):
                    raise ConfigError(
                        f"codeword member {member.name!r} cannot share a "
                        "maintainer (not a CodewordSchemeBase)"
                    )
            deferred = any(m.deferred_maintenance for m in codeword_members)
            if deferred and any(m.requires_fresh_codewords for m in self.members):
                raise ConfigError(
                    "deferred maintenance leaves stored codewords stale between "
                    "audits; it cannot stack with a scheme that checks codewords "
                    "on read (precheck)"
                )
            self.maintainer = CodewordMaintainer(
                min(m.region_size for m in codeword_members),
                update_latch_mode=(
                    EXCLUSIVE
                    if any(m.update_latch_mode == EXCLUSIVE for m in codeword_members)
                    else SHARED
                ),
                uses_codeword_latch=any(
                    m.uses_codeword_latch for m in codeword_members
                ),
                deferred=deferred,
            )
            for member in codeword_members:
                member.adopt_maintainer(self.maintainer)

        # ------------------------------------------ capability folding
        self.name = "+".join(m.name for m in self.members)
        self.uses_codewords = bool(codeword_members)
        self.logs_reads = any(m.logs_reads for m in self.members)
        self.logs_read_checksums = any(m.logs_read_checksums for m in self.members)
        self.direct_protection = max(
            (m.direct_protection for m in self.members), key=_DIRECT_RANK.__getitem__
        )
        if self.direct_protection == "prevent":
            self.indirect_protection = "unneeded"
        else:
            self.indirect_protection = max(
                (m.indirect_protection for m in self.members),
                key=_INDIRECT_RANK.__getitem__,
            )
        # Both evidence kinds present: precise read/write checksums plus a
        # codeword member relying on audits alone.  Restart recovery then
        # unions checksum-mismatch recruitment with the audit-populated
        # CorruptDataTable (Section 4.3 combined).
        self.combines_evidence = self.logs_read_checksums and any(
            not m.logs_read_checksums for m in codeword_members
        )

    # -------------------------------------------------------- accessors

    def member(self, name: str) -> ProtectionScheme:
        """Return the first member with the given scheme name."""
        for member in self.members:
            if member.name == name:
                return member
        raise ConfigError(f"pipeline {self.name!r} has no member named {name!r}")

    @property
    def region_size(self) -> int | None:
        return self.maintainer.region_size if self.maintainer else None

    @property
    def codeword_table(self) -> CodewordTable | None:
        return self.maintainer.table if self.maintainer else None

    @property
    def protection_latches(self) -> LatchTable | None:
        return self.maintainer.protection_latches if self.maintainer else None

    @property
    def space_overhead(self) -> float:
        return self.maintainer.space_overhead if self.maintainer else 0.0

    # -------------------------------------------------------- lifecycle

    def attach(self, memory: MemoryImage, meter: Meter) -> None:
        super().attach(memory, meter)
        if self.maintainer is not None:
            self.maintainer.attach(memory, meter)
        for member in self.members:
            member.attach(memory, meter)

    def bind_log(self, system_log) -> None:
        super().bind_log(system_log)
        for member in self.members:
            member.bind_log(system_log)

    def startup(self) -> None:
        """Rebuild the shared table; start the members (page guards
        protect the image)."""
        if self.maintainer is not None:
            self.maintainer.rebuild()
        for member in self.members:
            member.startup()

    # ------------------------------------------------------------ hooks
    #
    # The pipeline drives the shared maintainer once per window and
    # exposes/covers each page guard's pages per range.  Read/operation
    # hooks have no shared state and dispatch to every member that
    # overrides them, in stack order.

    def on_read(self, txn: Transaction, address: int, length: int) -> None:
        for member in self._readers:
            member.on_read(txn, address, length)

    # An update window is three steps, each one call per window whatever
    # its range count: open (latch every spanned region once, ascending,
    # and expose guarded pages), close (fold the deltas under the
    # codeword latches, release, re-cover) or abandon (release and
    # re-cover without folding, when the window is rolled back).  Open
    # returns the window's geometry and the transaction manager hands it
    # back to close or abandon.

    def on_begin_update_batch(
        self, txn: Transaction, ranges: list[tuple[int, int]]
    ) -> tuple | None:
        """Open a window over ``ranges``; returns its geometry (None
        without a codeword member)."""
        window = None
        if self.maintainer is not None:
            window = self.maintainer.open_window(ranges)
        for guard in self._page_guards:
            for address, length in ranges:
                guard.expose(address, length)
        return window

    def on_end_update_batch(
        self, txn: Transaction, window, items: list[tuple[int, bytes, bytes]]
    ) -> list[int | None]:
        """Close a window: fold ``(address, old_image, new_image)`` per
        range, release its latches, re-cover its pages.  Returns the
        per-range old-image checksums update records carry (Section 4.3:
        the update is treated as a read of the old value followed by a
        write), None where no member logs one.  If the fold fails the
        codewords are untouched and the window is still open."""
        checksums: list[int | None] = [None] * len(items)
        maintainer = self.maintainer
        if maintainer is not None:
            maintainer.close_window(window, items)
            if self.logs_read_checksums:
                checksums = [
                    maintainer.checksum_of(old_image) for _address, old_image, _new in items
                ]
        for guard in self._page_guards:
            for address, _old, new_image in items:
                guard.cover(address, len(new_image))
        return checksums

    def close_update_window_batch(
        self, txn: Transaction, window, ranges: list[tuple[int, int]]
    ) -> None:
        """Abandon an open window: release and re-cover, fold nothing."""
        if window is not None:
            self.maintainer.release_window(window)
        for guard in self._page_guards:
            for address, length in ranges:
                guard.cover(address, length)

    # The one-range hooks: the window's geometry waits in
    # ``txn.scheme_state`` between them.  Nothing in the package calls
    # them; they stay because ``benchmarks/e2e/spans.py`` wraps them by
    # name for the per-layer tracer, until the tracer names the batch
    # hooks alone.

    def on_begin_update(self, txn: Transaction, address: int, length: int) -> None:
        txn.scheme_state["window"] = self.on_begin_update_batch(txn, [(address, length)])

    def on_end_update(
        self, txn: Transaction, address: int, old_image: bytes, new_image: bytes
    ) -> int | None:
        state = txn.scheme_state
        (checksum,) = self.on_end_update_batch(
            txn, state["window"], [(address, old_image, new_image)]
        )
        del state["window"]
        return checksum

    def on_operation_end(self, txn: Transaction) -> None:
        for member in self._op_enders:
            member.on_operation_end(txn)

    def apply_physical_undo(self, txn: Transaction | None, entry: PhysicalUndo) -> None:
        """Restore a before-image through every member's machinery.

        Page guards are lifted first (the restore writes below the
        prescribed interface), the shared maintainer fixes codewords iff
        they were applied, and the pages are re-covered after.
        """
        for guard in self._page_guards:
            guard.expose(entry.address, len(entry.image))
        try:
            if self.maintainer is not None:
                self.maintainer.apply_physical_undo(entry)
            else:
                assert self.memory is not None
                self.memory.write(entry.address, entry.image)
        finally:
            for guard in reversed(self._page_guards):
                guard.cover(entry.address, len(entry.image))

    # ------------------------------------------------------------ audit

    def audit_regions(self, region_ids=None) -> list[int]:
        """Audit the shared table exactly once for the whole stack."""
        if self.maintainer is None:
            return []
        return self.maintainer.audit_regions(region_ids)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(repr(m) for m in self.members)
        return f"ProtectionPipeline([{inner}])"
