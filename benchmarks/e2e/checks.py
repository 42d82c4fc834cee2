"""Correctness checks run inside every benchmark run.

A failed check raises :class:`CheckFailed`; the run then reports no
metrics and exits non-zero -- a fast wrong answer is not a result.
"""

from __future__ import annotations

import random

from benchmarks.e2e.loadgen import COLD_ACCOUNTS
from benchmarks.e2e.workloads import ACCOUNTS, BRANCHES, TELLERS, WILD_WRITES

#: inside the account record's filler, on a word boundary
WILD_WRITE_OFFSET = 40


class CheckFailed(Exception):
    pass


def check_sums(where: str, sums: dict, acked_delta: int, acked_updates: int) -> None:
    """TPC-B conservation: every balance table sums to the acked deltas,
    history holds one row per acked update op, and no row was lost."""
    expected = {
        "account": acked_delta,
        "teller": acked_delta,
        "branch": acked_delta,
        "history_rows": acked_updates,
        "account_rows": ACCOUNTS,
        "teller_rows": TELLERS,
        "branch_rows": BRANCHES,
    }
    wrong = {
        key: (sums.get(key), want)
        for key, want in expected.items()
        if sums.get(key) != want
    }
    if wrong:
        raise CheckFailed(f"{where}: (got, expected) differ: {wrong}")


def check_wild_writes(shape, seed: int) -> int:
    """Scribble on cold account rows, audit, require every hit detected.

    Each payload is one 32-bit word with every byte >= 0x80, so it differs
    from the zero/ASCII filler it lands on and a single-word XOR delta can
    never self-cancel: inside the paper's fault model, a miss is a bug.
    """
    if shape.audit():
        raise CheckFailed("audit of the freshly recovered image is not clean")
    rng = random.Random(seed)
    targets = rng.sample(COLD_ACCOUNTS, WILD_WRITES)
    payloads: set[bytes] = set()
    while len(payloads) < WILD_WRITES:
        payloads.add((rng.getrandbits(32) | 0x80808080).to_bytes(4, "little"))
    written = [
        shape.wild_write(aid, WILD_WRITE_OFFSET, payload)
        for aid, payload in zip(targets, sorted(payloads))
    ]
    corrupt = shape.audit()
    missed = [
        (shard, address)
        for shard, address in written
        if not any(
            shard == s and start <= address < start + length
            for s, start, length in corrupt
        )
    ]
    if missed:
        raise CheckFailed(
            f"audit missed {len(missed)} of {WILD_WRITES} wild writes: {missed}"
        )
    return len(written)
