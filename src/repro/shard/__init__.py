"""Shard-per-core scale-out: N independent protected stores behind a router.

Each shard is a complete :class:`~repro.storage.database.Database` -- its
own memory image, codeword maintainer, system log, checkpointer, audit
cadence and quarantine set -- holding the branches that hash to it
(:mod:`repro.shard.partition`).  Shards run in-process (deterministic
mode, for tests and the meter/byte-identity properties) or as one
``multiprocessing`` worker per core (:mod:`repro.shard.worker`), which is
what breaks the single-image GIL plateau of ``repro/serve``.

Single-branch transactions commit entirely within one shard.  Cross-shard
transfers commit via a minimal presumed-abort two-phase commit
(:mod:`repro.shard.coordinator`): participant prepare records ride each
shard's own WAL codec, the coordinator's commit decisions live in a
durable decision log, and the existing :class:`~repro.recovery.restart.
RestartRecovery` resolves in-doubt branches against that log at restart --
shard recoveries are independent and run in parallel.

:mod:`repro.shard.supervisor` closes the loop from detection to repair:
heartbeat-driven crash/hang detection, automatic restart with certified
(audited) recovery, replay of undelivered 2PC commit decisions, and
degraded-mode serving (fail-fast retryable errors for a shard that is
mid-recovery while the survivors keep serving).
"""

from repro.shard.coordinator import Coordinator, DecisionLog
from repro.shard.core import ShardCore
from repro.shard.partition import PartitionSpec, shard_capacity
from repro.shard.router import ShardedConfig, ShardedDatabase, ShardRouter
from repro.shard.shard import LocalShard, ProcessShard
from repro.shard.supervisor import (
    ShardSupervisor,
    SupervisorConfig,
    WaitForGraph,
)

__all__ = [
    "Coordinator",
    "DecisionLog",
    "LocalShard",
    "PartitionSpec",
    "ProcessShard",
    "ShardCore",
    "ShardRouter",
    "ShardSupervisor",
    "ShardedConfig",
    "ShardedDatabase",
    "SupervisorConfig",
    "WaitForGraph",
    "shard_capacity",
]
