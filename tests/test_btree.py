"""In-image B+tree: structure, model equivalence, table integration."""

import random
import signal
import struct
from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError, CorruptionDetected, OutOfSpaceError
from repro.mem.memory import MemoryImage
from repro.storage.btree import BTreeIndex, LEAF_KEYS


class RawAccessor:
    def __init__(self, memory: MemoryImage) -> None:
        self.memory = memory

    def read(self, address: int, length: int) -> bytes:
        return self.memory.read(address, length)

    def update(self, address: int, new_bytes: bytes) -> None:
        self.memory.write(address, new_bytes)


def make_tree(node_capacity=256):
    memory = MemoryImage(page_size=4096)
    seg = memory.add_segment("idx", BTreeIndex.size_for(node_capacity))
    tree = BTreeIndex(seg.base, node_capacity)
    ctx = RawAccessor(memory)
    tree.format(ctx)
    return tree, ctx


class TestBasics:
    def test_empty_lookup(self):
        tree, ctx = make_tree()
        assert tree.lookup(ctx, 5) is None
        assert tree.depth(ctx) == 0

    def test_single_insert(self):
        tree, ctx = make_tree()
        tree.insert(ctx, 5, 50)
        assert tree.lookup(ctx, 5) == 50
        assert tree.depth(ctx) == 1

    def test_duplicate_key_rejected(self):
        tree, ctx = make_tree()
        tree.insert(ctx, 5, 50)
        with pytest.raises(ConfigError):
            tree.insert(ctx, 5, 51)

    def test_negative_keys(self):
        tree, ctx = make_tree()
        tree.insert(ctx, -1000, 1)
        tree.insert(ctx, 1000, 2)
        assert tree.lookup(ctx, -1000) == 1
        assert list(tree.iter_all(ctx)) == [(-1000, 1), (1000, 2)]

    def test_delete(self):
        tree, ctx = make_tree()
        for k in range(10):
            tree.insert(ctx, k, k)
        assert tree.delete(ctx, 4)
        assert tree.lookup(ctx, 4) is None
        assert not tree.delete(ctx, 4)
        assert tree.lookup(ctx, 5) == 5

    def test_delete_from_empty(self):
        tree, ctx = make_tree()
        assert not tree.delete(ctx, 1)


class TestSplits:
    def test_leaf_split_grows_depth(self):
        tree, ctx = make_tree()
        for k in range(LEAF_KEYS + 1):
            tree.insert(ctx, k, k)
        assert tree.depth(ctx) == 2
        for k in range(LEAF_KEYS + 1):
            assert tree.lookup(ctx, k) == k

    def test_three_levels(self):
        tree, ctx = make_tree(node_capacity=512)
        count = 400  # forces internal splits
        for k in range(count):
            tree.insert(ctx, k, k * 2)
        assert tree.depth(ctx) >= 3
        for k in range(count):
            assert tree.lookup(ctx, k) == k * 2

    def test_random_insertion_order(self):
        tree, ctx = make_tree(node_capacity=512)
        keys = list(range(300))
        random.Random(7).shuffle(keys)
        for k in keys:
            tree.insert(ctx, k, k)
        assert [k for k, _v in tree.iter_all(ctx)] == sorted(keys)

    def test_node_exhaustion(self):
        tree, ctx = make_tree(node_capacity=2)
        with pytest.raises(OutOfSpaceError):
            for k in range(100):
                tree.insert(ctx, k, k)


class TestRange:
    def test_range_inclusive(self):
        tree, ctx = make_tree()
        for k in range(0, 100, 10):
            tree.insert(ctx, k, k)
        assert [k for k, _ in tree.range(ctx, 20, 50)] == [20, 30, 40, 50]

    def test_range_across_leaves(self):
        tree, ctx = make_tree(node_capacity=512)
        for k in range(200):
            tree.insert(ctx, k, k)
        result = [k for k, _ in tree.range(ctx, 50, 149)]
        assert result == list(range(50, 150))

    def test_empty_and_inverted_ranges(self):
        tree, ctx = make_tree()
        tree.insert(ctx, 5, 5)
        assert list(tree.range(ctx, 10, 20)) == []
        assert list(tree.range(ctx, 20, 10)) == []

    def test_range_skips_deleted(self):
        tree, ctx = make_tree()
        for k in range(10):
            tree.insert(ctx, k, k)
        tree.delete(ctx, 5)
        assert [k for k, _ in tree.range(ctx, 0, 9)] == [0, 1, 2, 3, 4, 6, 7, 8, 9]


class TestModelEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["insert", "delete", "lookup"]),
                st.integers(min_value=-100, max_value=100),
            ),
            max_size=150,
        )
    )
    def test_matches_dict_model(self, operations):
        tree, ctx = make_tree(node_capacity=512)
        model: dict[int, int] = {}
        for op, key in operations:
            if op == "insert":
                if key in model:
                    continue
                model[key] = abs(key) + 1
                tree.insert(ctx, key, abs(key) + 1)
            elif op == "delete":
                assert tree.delete(ctx, key) == (key in model)
                model.pop(key, None)
            else:
                assert tree.lookup(ctx, key) == model.get(key)
        assert list(tree.iter_all(ctx)) == sorted(model.items())


class TestTableIntegration:
    @pytest.fixture
    def bdb(self, tmp_path):
        from repro import Database, DBConfig
        from tests.conftest import ACCT_SCHEMA

        db = Database(DBConfig(dir=str(tmp_path / "b"), scheme="data_cw"))
        db.create_table("acct", ACCT_SCHEMA, 500, key_field="id", index_type="btree")
        db.start()
        return db

    def test_crud_through_btree(self, bdb):
        table = bdb.table("acct")
        txn = bdb.begin()
        for i in range(50):
            table.insert(txn, {"id": i * 3, "balance": i})
        assert table.lookup(txn, 30) is not None
        table.delete(txn, table.lookup(txn, 30))
        assert table.lookup(txn, 30) is None
        bdb.commit(txn)
        assert bdb.audit().clean

    def test_range_scan_returns_rows_in_order(self, bdb):
        table = bdb.table("acct")
        txn = bdb.begin()
        for i in range(30):
            table.insert(txn, {"id": i, "balance": i * 10})
        rows = list(table.range(txn, 10, 14))
        assert [k for k, _ in rows] == [10, 11, 12, 13, 14]
        assert rows[0][1]["balance"] == 100
        bdb.commit(txn)

    def test_range_on_hash_table_rejected(self, db):
        txn = db.begin()
        with pytest.raises(ConfigError):
            list(db.table("acct").range(txn, 0, 10))
        db.commit(txn)

    def test_abort_restores_btree(self, bdb):
        table = bdb.table("acct")
        txn = bdb.begin()
        for i in range(20):
            table.insert(txn, {"id": i, "balance": i})
        bdb.commit(txn)
        txn = bdb.begin()
        table.insert(txn, {"id": 100, "balance": 1})
        table.delete(txn, table.lookup(txn, 5))
        bdb.abort(txn)
        txn = bdb.begin()
        assert table.lookup(txn, 100) is None
        assert table.lookup(txn, 5) is not None
        assert [k for k, _ in table.range(txn, 0, 200)] == list(range(20))
        bdb.commit(txn)
        assert bdb.audit().clean

    def test_btree_survives_crash_recovery(self, bdb):
        from repro import Database

        table = bdb.table("acct")
        txn = bdb.begin()
        for i in range(40):
            table.insert(txn, {"id": i, "balance": i})
        bdb.commit(txn)
        bdb.crash()
        db2, _ = Database.recover(bdb.config)
        txn = db2.begin()
        t2 = db2.table("acct")
        assert [k for k, _ in t2.range(txn, 0, 100)] == list(range(40))
        db2.commit(txn)
        db2.close()

    def test_corruption_in_btree_node_detected(self, bdb):
        from repro import FaultInjector

        table = bdb.table("acct")
        txn = bdb.begin()
        for i in range(30):
            table.insert(txn, {"id": i, "balance": i})
        bdb.commit(txn)
        FaultInjector(bdb, seed=1).wild_write(table.index.pool_base + 32, 8)
        assert not bdb.audit().clean


@contextmanager
def hang_guard(seconds: int = 5):
    """Fail the test instead of hanging it when a walk never returns."""

    def expired(_signum, _frame):
        raise AssertionError(f"B+tree walk still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


_CHILDREN_AT = 8 + 8 * LEAF_KEYS  # node head, then the keys


class TestCorruptLinks:
    """One poked pointer must not hang a walk (the image is not trusted)."""

    def _two_levels(self):
        tree, ctx = make_tree(node_capacity=32)
        for key in range(40):
            tree.insert(ctx, key, key)
        _cap, _free, used, root = tree._read_header(ctx)
        assert tree.depth(ctx) == 2
        return tree, ctx, root - 1, used

    def test_child_pointing_at_its_parent_raises(self):
        tree, ctx, root_id, _used = self._two_levels()
        # The root's first child now points back at the root: a descent
        # toward small keys cycles through internal nodes.
        address = tree._node_address(root_id) + _CHILDREN_AT
        ctx.memory.poke(address, struct.pack("<I", root_id))
        with hang_guard(), pytest.raises(CorruptionDetected, match="32 levels"):
            tree.lookup(ctx, 0)
        with hang_guard(), pytest.raises(CorruptionDetected, match="B\\+tree walk"):
            list(tree.range(ctx, 0, 5))

    def test_leaf_link_cycle_raises(self):
        tree, ctx, root_id, used = self._two_levels()
        first_leaf = tree._descend(ctx, root_id + 1, 0)[0]
        second_leaf = tree._read_node(ctx, first_leaf).link - 1
        # The second leaf links back to the first: a range scan cycles.
        link = tree._node_address(second_leaf) + 4
        ctx.memory.poke(link, struct.pack("<I", first_leaf + 1))
        with hang_guard(), pytest.raises(CorruptionDetected, match=f"past {used}"):
            list(tree.range(ctx, 0, 10**6))

    def test_node_past_the_pool_is_rejected(self):
        tree, ctx, root_id, _used = self._two_levels()
        address = tree._node_address(root_id) + _CHILDREN_AT
        ctx.memory.poke(address, struct.pack("<I", 32))
        with pytest.raises(CorruptionDetected, match="past the 32-node pool"):
            tree.lookup(ctx, 0)
