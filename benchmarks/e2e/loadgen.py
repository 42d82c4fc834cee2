"""The load generator: seeded, pure data.

One ``random.Random`` produces the client's list of op tuples ``(kind, aid,
tid, bid, delta, hid)``; the program under test never sees the generator,
only these tuples.  A band of *cold* accounts is never drawn at all (the
fault-injection check scribbles on those).

A teller or account belongs to branch ``key % branches``, the mapping
``repro.shard.PartitionSpec`` routes by.  On the sharded workload (two
shards, shard = branch % 2) the client's home is shard 0: it draws its
tellers, branches and local accounts from the even branches, and the
accounts of its cross-shard ops from the highest (odd) branch, which
lives on shard 1.

The op mix is stratified, not sampled: each block of ``MIX_BLOCK`` ops
holds exactly ``share * MIX_BLOCK`` ops of each minority kind, in a
seeded order.  Every timing window is a whole number of blocks, so
windows differ by key choice only and per-op counts do not wander with
the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from benchmarks.e2e.workloads import ACCOUNTS, BRANCHES, TELLERS, Workload

UPDATE = "U"  # TPC-B: update account, teller, branch; insert history
ENQUIRY = "Q"  # read account, teller, branch
CROSS = "X"  # UPDATE whose account lives on the other shard

MIX_BLOCK = 20
#: accounts ``0 .. BRANCHES-1`` (one per branch) are never drawn
COLD_ACCOUNTS = tuple(range(BRANCHES))
REMOTE_BRANCH = BRANCHES - 1


@dataclass(frozen=True)
class Keys:
    """The rows the client may touch."""

    tellers: tuple[int, ...]
    accounts: tuple[int, ...]
    remote_accounts: tuple[int, ...]


def keys(spec: Workload) -> Keys:
    stride = 2 if spec.cross_share else 1  # the client's home branches
    warm = range(BRANCHES, ACCOUNTS)
    return Keys(
        tellers=tuple(t for t in range(TELLERS) if t % BRANCHES % stride == 0),
        accounts=tuple(a for a in warm if a % BRANCHES % stride == 0),
        remote_accounts=tuple(a for a in warm if a % BRANCHES == REMOTE_BRANCH),
    )


def _mix_block(spec: Workload) -> list[str]:
    reads = round(spec.read_share * MIX_BLOCK)
    cross = round(spec.cross_share * MIX_BLOCK)
    return [ENQUIRY] * reads + [CROSS] * cross + [UPDATE] * (MIX_BLOCK - reads - cross)


def generate(spec: Workload, seed: int, count: int) -> list[tuple]:
    """``count`` ops; same arguments, same list."""
    rng = random.Random(seed)
    pools = keys(spec)
    block = _mix_block(spec)
    ops: list[tuple] = []
    hid = 0
    while len(ops) < count:
        rng.shuffle(block)
        for kind in block:
            tid = pools.tellers[rng.randrange(len(pools.tellers))]
            pool = pools.remote_accounts if kind == CROSS else pools.accounts
            aid = pool[rng.randrange(len(pool))]
            delta = rng.randint(-99_999, 99_999)
            ops.append((kind, aid, tid, tid % BRANCHES, delta, hid))
            if kind != ENQUIRY:
                hid += 1
    return ops[:count]
