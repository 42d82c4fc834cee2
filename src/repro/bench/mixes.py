"""A read/write-mix microworkload (extension, not in the paper).

The paper's TPC-B operation has a fixed 3-update/1-insert shape, so each
scheme's overhead is a single number.  This workload dials the read
fraction, exposing *why* the schemes cost what they cost:

* Read Prechecking and Read Logging charge per read -- their overhead
  grows with the read fraction;
* Data Codeword maintenance and Hardware Protection charge per update
  window -- their overhead shrinks as reads displace writes.

The crossing of those curves is the quantitative version of the paper's
advice that users "make their own safety/performance tradeoff".
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import WorkloadError
from repro.storage.database import Database, DBConfig
from repro.storage.schema import Field, FieldType, Schema

MIX_SCHEMA = Schema(
    [
        Field("key", FieldType.INT64),
        Field("value", FieldType.INT64),
        Field("filler", FieldType.CHAR, 84),
    ]
)


@dataclass(frozen=True)
class MixConfig:
    """Shape of a read/write-mix run."""

    rows: int = 2_000
    operations: int = 1_000
    read_fraction: float = 0.5
    ops_per_txn: int = 100
    seed: int = 7

    def __post_init__(self) -> None:
        if not 0.0 <= self.read_fraction <= 1.0:
            raise WorkloadError(
                f"read_fraction must be in [0, 1]: {self.read_fraction}"
            )


def build_mix_database(db_config: DBConfig, mix: MixConfig) -> Database:
    """Create and load the single-table mix database."""
    db = Database(db_config)
    db.create_table("row", MIX_SCHEMA, mix.rows, key_field="key")
    db.start()
    table = db.table("row")
    txn = db.begin()
    for key in range(mix.rows):
        table.insert(txn, {"key": key, "value": key})
        if (key + 1) % 1000 == 0:
            db.commit(txn)
            txn = db.begin()
    db.commit(txn)
    return db


class MixWorkload:
    """Runs a stream of reads and read-modify-write updates."""

    def __init__(self, db: Database, mix: MixConfig) -> None:
        self.db = db
        self.mix = mix
        self.rng = random.Random(mix.seed)
        self.reads_done = 0
        self.writes_done = 0

    def run(self) -> int:
        db = self.db
        mix = self.mix
        table = db.table("row")
        txn = db.begin()
        in_txn = 0
        for _ in range(mix.operations):
            db.meter.charge("base_operation")
            key = self.rng.randrange(mix.rows)
            slot = table.lookup(txn, key)
            if self.rng.random() < mix.read_fraction:
                table.read(txn, slot)
                self.reads_done += 1
            else:
                table.update(txn, slot, {"value": lambda v: v + 1})
                self.writes_done += 1
            in_txn += 1
            if in_txn >= mix.ops_per_txn:
                db.commit(txn)
                txn = db.begin()
                in_txn = 0
        db.commit(txn)
        return mix.operations


def run_mix(
    db_config: DBConfig, mix: MixConfig
) -> tuple[float, dict[str, tuple[int, int]]]:
    """Run the mix once; returns (virtual ops/sec, event snapshot)."""
    db = build_mix_database(db_config, mix)
    db.checkpoint()
    db.meter.reset()  # exact: no other thread is charging yet
    start_ns = db.clock.now_ns
    workload = MixWorkload(db, mix)
    operations = workload.run()
    elapsed_s = (db.clock.now_ns - start_ns) / 1e9
    events = db.meter.snapshot()
    db.close()
    return operations / elapsed_s, events
