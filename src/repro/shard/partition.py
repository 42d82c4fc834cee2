"""Branch-hash partitioning over the TPC-B schema.

TPC-B has a natural partition key: every table row belongs to exactly one
branch (accounts and tellers carry ``branch_id = key % branches`` by
workload construction, history rows name their ``bid`` outright), so
``shard = branch % n_shards`` places each branch's whole working set --
account, teller, branch and history records -- on one shard.  The
single-branch TPC-B operation then never crosses a shard boundary; only
explicit inter-branch transfers do.

The spec is schema-driven rather than hard-coded so non-TPC-B tables can
ride the same router: a table's key either *is* the branch id, maps to a
branch by modulus, or the branch is named by a row field (the insert-only
history case).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError


def shard_capacity(total: int, n_shards: int, slack: float = 0.25) -> int:
    """Per-shard table capacity for ``total`` rows over ``n_shards``.

    ``n_shards == 1`` returns ``total`` exactly, so a one-shard database
    is laid out byte-identically to the unsharded reference (the identity
    property in ``tests/test_shard_invariance.py`` depends on this).  With
    more shards, each gets an even split plus slack for modulus skew.
    """
    if n_shards <= 1:
        return total
    even = -(-total // n_shards)  # ceil
    return max(1, even + int(even * slack) + 1)


@dataclass(frozen=True)
class PartitionSpec:
    """Maps table keys and rows to branches, and branches to shards."""

    branches: int
    n_shards: int
    #: tables whose key maps to a branch by ``key % branches``
    key_mod_tables: frozenset = frozenset({"account", "teller"})
    #: tables whose key *is* the branch id
    branch_key_tables: frozenset = frozenset({"branch"})
    #: insert-routed tables: branch comes from this row field
    row_field: dict = field(default_factory=lambda: {"history": "bid"})

    def __post_init__(self) -> None:
        if self.branches < 1:
            raise ConfigError(f"branches must be >= 1: {self.branches}")
        if self.n_shards < 1:
            raise ConfigError(f"n_shards must be >= 1: {self.n_shards}")

    # ------------------------------------------------------------ mapping

    def branch_for_key(self, table: str, key: int) -> int:
        if table in self.branch_key_tables or table in self.key_mod_tables:
            return key % self.branches
        raise ConfigError(
            f"table {table!r} is not key-routable; route by row instead"
        )

    def branch_for_row(self, table: str, values: dict) -> int:
        field_name = self.row_field.get(table)
        if field_name is not None:
            return int(values[field_name]) % self.branches
        # Otherwise the first key-like field the row carries.
        for name in ("bid", "tid", "aid", "id", "key"):
            if name in values:
                return int(values[name]) % self.branches
        raise ConfigError(f"cannot derive a branch for {table!r} row {values!r}")

    def shard_of(self, branch: int) -> int:
        return branch % self.n_shards

    def shard_for_key(self, table: str, key: int) -> int:
        return self.shard_of(self.branch_for_key(table, key))

    def shard_for_row(self, table: str, values: dict) -> int:
        return self.shard_of(self.branch_for_row(table, values))

    def resharded(self, n_shards: int) -> "PartitionSpec":
        """The same branch mapping over a different shard count."""
        return PartitionSpec(
            branches=self.branches,
            n_shards=n_shards,
            key_mod_tables=self.key_mod_tables,
            branch_key_tables=self.branch_key_tables,
            row_field=dict(self.row_field),
        )
