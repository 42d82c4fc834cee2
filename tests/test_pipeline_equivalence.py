"""Every protection config is a pipeline: golden hook-level digests.

``Database`` routes every config -- one scheme or a ``+`` stack --
through one :class:`~repro.core.pipeline.ProtectionPipeline`, and the
schemes are member policies of it.  Before the bare schemes lost their
own copy of the window, undo and audit machinery, seeded hook-level
workloads (reads, update windows, abandoned windows, physical undo
replay, operation ends and audits) were driven through each bare scheme
and the meter snapshot, the virtual clock, a digest of memory plus the
stored codewords, and the old-image checksums the window closes returned
were recorded.  The pipeline must reproduce them for every scheme name.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from repro.core.schemes import SCHEME_NAMES, make_scheme
from repro.mem.memory import MemoryImage
from repro.sim.clock import Meter, VirtualClock
from repro.sim.costs import DEFAULT_COSTS
from repro.txn.transaction import Transaction
from repro.wal.local_log import PhysicalUndo

PAGE = 8
SEGMENTS = (300, 212)
SIZE = sum(SEGMENTS)

#: Params mirroring the Table 2 configurations; hardware/baseline take none.
SCHEME_PARAMS = {
    "data_cw": {"region_size": 64},
    "precheck": {"region_size": 64},
    "read_logging": {"region_size": 64},
    "cw_read_logging": {"region_size": 64},
    "deferred": {"region_size": 64},
}
KINDS = ("read", "update", "abandon", "undo", "op_end", "audit")
SEEDS = (0, 1, 2)
OPS = 48


def workload(seed: int) -> list:
    """``OPS`` seeded hook-level steps: ``(kind, (address, length, fill))``."""
    rng = random.Random(f"hooks:{seed}")
    return [
        (
            rng.choice(KINDS),
            (rng.randrange(SIZE), rng.randint(1, 24), rng.randint(1, 255)),
        )
        for _ in range(OPS)
    ]


def build(scheme_name: str):
    pipeline = make_scheme(scheme_name, **SCHEME_PARAMS.get(scheme_name, {}))
    memory = MemoryImage(page_size=PAGE)
    for index, size in enumerate(SEGMENTS):
        memory.add_segment(f"s{index}", size, kind="data" if index else "control")
    memory.restore(0, bytes((7 * i + 3) % 256 for i in range(memory.size)))
    meter = Meter(VirtualClock(), DEFAULT_COSTS)
    pipeline.attach(memory, meter)
    pipeline.startup()
    return pipeline, memory, meter


def drive(pipeline, memory, ops) -> list:
    """Replay one workload; returns the checksums the window closes returned."""
    txn = Transaction(1)
    completed: list[PhysicalUndo] = []
    returned: list = []
    for seq, (kind, (address, length, fill)) in enumerate(ops):
        length = min(length, memory.size - address)
        if kind == "read":
            pipeline.on_read(txn, address, length)
            memory.read(address, length)
        elif kind in ("update", "abandon"):
            window = pipeline.on_begin_update_batch(txn, [(address, length)])
            old = memory.read(address, length)
            entry = PhysicalUndo(
                seq=seq, op_id=1, address=address, image=old,
                codeword_applied=kind == "update",
            )
            if kind == "update":
                new = bytes((b + fill) % 256 for b in old)
                memory.write(address, new)
                returned += pipeline.on_end_update_batch(
                    txn, window, [(address, old, new)]
                )
                completed.append(entry)
            else:
                # An error path: bytes are scribbled inside the window and
                # the manager rolls back with codeword_applied=False.
                memory.write(address, bytes((b ^ fill) % 256 for b in old))
                pipeline.close_update_window_batch(txn, window, [(address, length)])
                pipeline.apply_physical_undo(txn, entry)
        elif kind == "undo" and completed:
            pipeline.apply_physical_undo(txn, completed.pop())
        elif kind == "op_end":
            pipeline.on_operation_end(txn)
        elif kind == "audit":
            assert pipeline.audit_regions() == []
    return returned


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest(pipeline, memory, meter, returned) -> dict:
    table = pipeline.codeword_table
    words = table.stored_words.tobytes() if table is not None else b""
    return {
        "meter_sha256": _sha(json.dumps(meter.snapshot(), sort_keys=True).encode()),
        "clock_ns": meter.clock.now_ns,
        "state_sha256": _sha(memory.read(0, SIZE) + words),
        "checksums_sha256": _sha(json.dumps(returned).encode()),
    }


#: Recorded through the bare schemes' own window, undo and audit hooks
#: (each scheme driven hook by hook, without a pipeline).
GOLDEN: dict[str, dict[int, dict]] = {
    "baseline": {
        0: {
            "meter_sha256": "44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a",
            "clock_ns": 0,
            "state_sha256": "c9d8e3352f9f790d8b0be13cb1c18ed7963009888be04acc065ee5efbd934076",
            "checksums_sha256": "17e71049fd76b89c32c5293018486569fa5026bbf4f5ad16d82804780a8857dc",
        },
        1: {
            "meter_sha256": "44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a",
            "clock_ns": 0,
            "state_sha256": "4944a962b72e5bd40ce556e6c00a0aa51b431e238f14fa654db2b005c3677b43",
            "checksums_sha256": "82e71347ea87f3e555653a9e152c45d3c0a354656f7ec7d2cd6bbcfcf902dad3",
        },
        2: {
            "meter_sha256": "44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a",
            "clock_ns": 0,
            "state_sha256": "152c1c1be4f782bbd46beff41c69ca700949177e854f581db1cf2bdd871213a2",
            "checksums_sha256": "82e71347ea87f3e555653a9e152c45d3c0a354656f7ec7d2cd6bbcfcf902dad3",
        },
    },
    "data_cw": {
        0: {
            "meter_sha256": "c42ea297685acd4dccf358e578391c90e076748ea4d80d11ce2c0544ad5ffa5d",
            "clock_ns": 907200,
            "state_sha256": "3e7bdcc98ee9866ddc9f1afac39316971b192e169da0e0d332658a13475dcb99",
            "checksums_sha256": "17e71049fd76b89c32c5293018486569fa5026bbf4f5ad16d82804780a8857dc",
        },
        1: {
            "meter_sha256": "b1c543591aabaa5ebc64b110b47ecd643e5d96b1deeb4f5f9f23bb85d9c40cb5",
            "clock_ns": 513000,
            "state_sha256": "0f33c474d4c81524c0290fbba5f442745990c4def3fa0c5068614b47a934e48a",
            "checksums_sha256": "82e71347ea87f3e555653a9e152c45d3c0a354656f7ec7d2cd6bbcfcf902dad3",
        },
        2: {
            "meter_sha256": "e200a0f86f2ab15288fb15a77a1711a0467653e72189e461626169966ff7d4f8",
            "clock_ns": 863400,
            "state_sha256": "4b59bc99b801a4e9f549289891f76856f49a34f6751ae0b91e73ef253b07465b",
            "checksums_sha256": "82e71347ea87f3e555653a9e152c45d3c0a354656f7ec7d2cd6bbcfcf902dad3",
        },
    },
    "precheck": {
        0: {
            "meter_sha256": "05e266f3de97bf265c26e0b9ceb65ec2d87fa50977d2423e98bcc0908998d51a",
            "clock_ns": 965960,
            "state_sha256": "3e7bdcc98ee9866ddc9f1afac39316971b192e169da0e0d332658a13475dcb99",
            "checksums_sha256": "17e71049fd76b89c32c5293018486569fa5026bbf4f5ad16d82804780a8857dc",
        },
        1: {
            "meter_sha256": "b9f0c1c89d0602c6fb7821cad1cf7a06644c1900b8d9e41aaaa50ed6ebdb6f58",
            "clock_ns": 560580,
            "state_sha256": "0f33c474d4c81524c0290fbba5f442745990c4def3fa0c5068614b47a934e48a",
            "checksums_sha256": "82e71347ea87f3e555653a9e152c45d3c0a354656f7ec7d2cd6bbcfcf902dad3",
        },
        2: {
            "meter_sha256": "8232f714b3da89d3e05e3de36382da24f9f9c6ab76dfc20e75ee49b5e45a96f6",
            "clock_ns": 887480,
            "state_sha256": "4b59bc99b801a4e9f549289891f76856f49a34f6751ae0b91e73ef253b07465b",
            "checksums_sha256": "82e71347ea87f3e555653a9e152c45d3c0a354656f7ec7d2cd6bbcfcf902dad3",
        },
    },
    "read_logging": {
        0: {
            "meter_sha256": "81ff9581b6093df6cae1a8896ea3b9c8bb320830fa968260cd3be97949482816",
            "clock_ns": 1055350,
            "state_sha256": "3e7bdcc98ee9866ddc9f1afac39316971b192e169da0e0d332658a13475dcb99",
            "checksums_sha256": "17e71049fd76b89c32c5293018486569fa5026bbf4f5ad16d82804780a8857dc",
        },
        1: {
            "meter_sha256": "25a3f189b860318e2f7f234bc088f9f66c0a962b6f1e50f57626cd68300d61ea",
            "clock_ns": 646335,
            "state_sha256": "0f33c474d4c81524c0290fbba5f442745990c4def3fa0c5068614b47a934e48a",
            "checksums_sha256": "82e71347ea87f3e555653a9e152c45d3c0a354656f7ec7d2cd6bbcfcf902dad3",
        },
        2: {
            "meter_sha256": "cee78f878e956b7ec60727d22601afeb242918cdd95e8e896444fcf6516e0fa1",
            "clock_ns": 937475,
            "state_sha256": "4b59bc99b801a4e9f549289891f76856f49a34f6751ae0b91e73ef253b07465b",
            "checksums_sha256": "82e71347ea87f3e555653a9e152c45d3c0a354656f7ec7d2cd6bbcfcf902dad3",
        },
    },
    "cw_read_logging": {
        0: {
            "meter_sha256": "55b6f541f49ef3f72a30257a8ad75ce75e7c63c840c9e8e1aec9e9e35059e2a2",
            "clock_ns": 1110550,
            "state_sha256": "3e7bdcc98ee9866ddc9f1afac39316971b192e169da0e0d332658a13475dcb99",
            "checksums_sha256": "f284ec105ae38ef907d38b89eecd7df17bef42cffc8b1c5fbf0fc337e507f1fa",
        },
        1: {
            "meter_sha256": "e9b37e45466c52417700344f32dd5c5ca6817799db330a90defd7adeafa72a49",
            "clock_ns": 723135,
            "state_sha256": "0f33c474d4c81524c0290fbba5f442745990c4def3fa0c5068614b47a934e48a",
            "checksums_sha256": "c9ba26b01b8f177d2899cb8df0ec662bd091d339dad47354512c9125c91d56dd",
        },
        2: {
            "meter_sha256": "2529500b9f33a867eb5f4d8fcee0ca5cd6d8b4d661e004422a5929b2348cccfc",
            "clock_ns": 990275,
            "state_sha256": "4b59bc99b801a4e9f549289891f76856f49a34f6751ae0b91e73ef253b07465b",
            "checksums_sha256": "4af5fbb8522a3e1a3958546f25426f4309a058aced9ae69c3e7e733c501febef",
        },
    },
    "hardware": {
        0: {
            "meter_sha256": "f25c18310a44a5c3012f0f8f147d20574e026fc1d1a16a15dcc649830a0ce2f3",
            "clock_ns": 3432000,
            "state_sha256": "c9d8e3352f9f790d8b0be13cb1c18ed7963009888be04acc065ee5efbd934076",
            "checksums_sha256": "17e71049fd76b89c32c5293018486569fa5026bbf4f5ad16d82804780a8857dc",
        },
        1: {
            "meter_sha256": "e1078e031b398929541ffcf00f7270f3cb19e2208faa40d5bad2ec913b187038",
            "clock_ns": 5435400,
            "state_sha256": "4944a962b72e5bd40ce556e6c00a0aa51b431e238f14fa654db2b005c3677b43",
            "checksums_sha256": "82e71347ea87f3e555653a9e152c45d3c0a354656f7ec7d2cd6bbcfcf902dad3",
        },
        2: {
            "meter_sha256": "b71f3b9d971e267e0cf6fc9c723742f2f4aae2611208344d548bb4af763ed9b9",
            "clock_ns": 5067400,
            "state_sha256": "152c1c1be4f782bbd46beff41c69ca700949177e854f581db1cf2bdd871213a2",
            "checksums_sha256": "82e71347ea87f3e555653a9e152c45d3c0a354656f7ec7d2cd6bbcfcf902dad3",
        },
    },
    "deferred": {
        0: {
            "meter_sha256": "def03b331b115045d63200120081e6f99dacd19c4208876034af76e8657b0d3b",
            "clock_ns": 796200,
            "state_sha256": "3e7bdcc98ee9866ddc9f1afac39316971b192e169da0e0d332658a13475dcb99",
            "checksums_sha256": "17e71049fd76b89c32c5293018486569fa5026bbf4f5ad16d82804780a8857dc",
        },
        1: {
            "meter_sha256": "82e9be0af5f6b5ca7e6fcfe15e8eb813ed57f03f10eee3ef5f343fec7ace77de",
            "clock_ns": 321000,
            "state_sha256": "06eccc23dedfb2e6148949b917b64659d752c0a5837cd7077b00b1a8f6ae2830",
            "checksums_sha256": "82e71347ea87f3e555653a9e152c45d3c0a354656f7ec7d2cd6bbcfcf902dad3",
        },
        2: {
            "meter_sha256": "3efe4ce4c2c269dbb664e86a9a4f7f533af50147f6c1e62e0b85c34d2972082b",
            "clock_ns": 667400,
            "state_sha256": "4b59bc99b801a4e9f549289891f76856f49a34f6751ae0b91e73ef253b07465b",
            "checksums_sha256": "82e71347ea87f3e555653a9e152c45d3c0a354656f7ec7d2cd6bbcfcf902dad3",
        },
    },
}


@pytest.mark.parametrize("scheme_name", SCHEME_NAMES)
class TestSingleMemberPipelineEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_meter_identical_to_bare_scheme_goldens(self, scheme_name, seed):
        pipeline, memory, meter = build(scheme_name)
        returned = drive(pipeline, memory, workload(seed))
        assert digest(pipeline, memory, meter, returned) == GOLDEN[scheme_name][seed]

    def test_folded_capabilities_match_the_member(self, scheme_name):
        pipeline = make_scheme(scheme_name, **SCHEME_PARAMS.get(scheme_name, {}))
        (member,) = pipeline.members
        assert pipeline.name == member.name
        assert pipeline.uses_codewords == member.uses_codewords
        assert pipeline.logs_reads == member.logs_reads
        assert pipeline.logs_read_checksums == member.logs_read_checksums
        assert pipeline.direct_protection == member.direct_protection
        assert pipeline.indirect_protection == member.indirect_protection
        assert not pipeline.combines_evidence
        if member.uses_codewords:
            assert member.maintainer is pipeline.maintainer
            assert pipeline.region_size == member.region_size
            assert pipeline.space_overhead == 4 / member.region_size
        else:
            assert pipeline.maintainer is None
            assert pipeline.space_overhead == 0.0
