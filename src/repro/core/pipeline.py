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
  maintainer's window open/maintain/release exactly once per update, so
  stacking two codeword schemes never double-folds a delta.
* **Capability folding.**  ``uses_codewords`` / ``logs_reads`` /
  ``logs_read_checksums`` are ORs over members; ``direct_protection``
  and ``indirect_protection`` take the strongest member value.
  ``combines_evidence`` is True exactly when the stack carries *both*
  evidence kinds -- read/write checksums plus an audit-only codeword
  member -- which switches restart recovery into combined-evidence mode
  (checksum comparison unioned with the audit-populated
  CorruptDataTable).
* **Page guards bracket below-the-hook writes.**  Physical undo restores
  bytes beneath the prescribed interface; for page-guarding members
  (hardware) the pipeline exposes the pages first and re-covers them
  after, preserving the bare hardware scheme's expose/write/cover
  sequence.

A single-member pipeline is meter-identical to the bare scheme -- same
events, same virtual nanoseconds (property-tested by
``tests/test_pipeline_equivalence.py``) -- so `Database` can route every
config, stacked or not, through one pipeline object.
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
    """An ordered stack of protection schemes behind the scheme hooks."""

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

    @property
    def sole(self) -> ProtectionScheme | None:
        """The single member of a one-scheme pipeline, else None."""
        return self.members[0] if len(self.members) == 1 else None

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
        for member in self.members:
            member.attach(memory, meter)

    def startup(self) -> None:
        """Rebuild the shared table once; run non-codeword startups."""
        if self.maintainer is not None:
            self.maintainer.rebuild()
        for member in self.members:
            if not member.uses_codewords:
                member.startup()

    # ------------------------------------------------------------ hooks
    #
    # Codeword members delegate their window hooks to the (now shared)
    # maintainer, so the pipeline drives the maintainer directly -- once
    # per window -- and dispatches window hooks only to non-codeword
    # members.  Read/operation hooks have no shared state and dispatch to
    # every member in stack order.

    def on_read(self, txn: Transaction, address: int, length: int) -> None:
        for member in self.members:
            member.on_read(txn, address, length)

    def on_begin_update(self, txn: Transaction, address: int, length: int) -> None:
        if self.maintainer is not None:
            self.maintainer.open_window(txn, [(address, length)])
        for member in self.members:
            if not member.uses_codewords:
                member.on_begin_update(txn, address, length)

    def on_end_update(
        self, txn: Transaction, address: int, old_image: bytes, new_image: bytes
    ) -> int | None:
        checksum: int | None = None
        if self.maintainer is not None:
            self.maintainer.maintain(txn, [(address, old_image, new_image)])
            self.maintainer.release_window(txn)
            if self.logs_read_checksums:
                # Codewords-in-write-records (Section 4.3): the update is
                # treated as a read of the old value followed by a write.
                checksum = self.maintainer.checksum_of(old_image)
        for member in self.members:
            if not member.uses_codewords:
                result = member.on_end_update(txn, address, old_image, new_image)
                if checksum is None:
                    checksum = result
        return checksum

    def close_update_window(self, txn: Transaction, address: int, length: int) -> None:
        if self.maintainer is not None:
            self.maintainer.release_window(txn)
        for member in self.members:
            if not member.uses_codewords:
                member.close_update_window(txn, address, length)

    # ------------------------------------------------------ batch hooks
    #
    # A multi-region window drives the shared maintainer once for the
    # whole batch -- one bulk latch pass, one vectorized delta-fold --
    # while non-codeword members (page guards, read logging bookkeeping)
    # see the same per-range scalar hooks they would under N windows.

    def on_begin_update_batch(
        self, txn: Transaction, regions: list[tuple[int, int]]
    ) -> None:
        if self.maintainer is not None:
            self.maintainer.open_window(txn, regions)
        for member in self.members:
            if not member.uses_codewords:
                for address, length in regions:
                    member.on_begin_update(txn, address, length)

    def on_end_update_batch(
        self, txn: Transaction, items: list[tuple[int, bytes, bytes]]
    ) -> list[int | None]:
        checksums: list[int | None] = [None] * len(items)
        if self.maintainer is not None:
            self.maintainer.maintain(txn, items)
            self.maintainer.release_window(txn)
            if self.logs_read_checksums:
                checksums = [
                    self.maintainer.checksum_of(old_image)
                    for _address, old_image, _new in items
                ]
        for member in self.members:
            if not member.uses_codewords:
                for index, (address, old_image, new_image) in enumerate(items):
                    result = member.on_end_update(txn, address, old_image, new_image)
                    if checksums[index] is None:
                        checksums[index] = result
        return checksums

    def close_update_window_batch(
        self, txn: Transaction, regions: list[tuple[int, int]]
    ) -> None:
        if self.maintainer is not None:
            self.maintainer.release_window(txn)
        for member in self.members:
            if not member.uses_codewords:
                for address, length in regions:
                    member.close_update_window(txn, address, length)

    def on_operation_end(self, txn: Transaction) -> None:
        for member in self.members:
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

    def checksum_of(self, data: bytes, charge: bool = True) -> int:
        assert self.maintainer is not None, "checksum_of needs a codeword member"
        return self.maintainer.checksum_of(data, charge)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(repr(m) for m in self.members)
        return f"ProtectionPipeline([{inner}])"
