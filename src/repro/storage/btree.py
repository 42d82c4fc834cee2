"""An in-image B+tree: the ordered counterpart of the hash index.

Dali's native ordered index is the T-tree [9]; this reproduction uses a
B+tree with the same protection properties (a fixed-size-node ordered
index living inside the protected image), which is what matters for the
paper: every node read and write goes through the prescribed interface,
so index traversals generate read-log records, node updates maintain
codewords, physical redo recovers the structure with no special code,
and a wild write into a node is detected like any other corruption.

Layout (little-endian), one segment per index:

* header (16 bytes): ``u32 node_capacity | u32 free_head | u32 never_used
  | u32 root`` -- ``free_head``/``root`` are node ids + 1 (0 = none);
  ``never_used`` lazily initializes the free list like the hash index.
* node pool: 256-byte nodes::

      u8 kind (0 leaf, 1 internal) | u8 count | u16 pad | u32 link
      i64 keys[14]
      leaf:     u32 values[14]   (link = next-leaf id + 1)
      internal: u32 children[15] (link unused)

Deletion removes entries without rebalancing (nodes may underflow; an
empty leaf stays chained and is skipped by scans).  This matches common
main-memory practice -- deletes are rare in the paper's workloads -- and
keeps rollback simple; it is documented behaviour, not an accident.

The image is not trusted to be well formed: a wild write can point a
child or leaf link anywhere, so reading a node id past the pool, a
descent deeper than the node capacity or a leaf walk longer than the
nodes ever allocated raises :class:`~repro.errors.CorruptionDetected`
instead of reading outside the index or cycling forever.
"""

from __future__ import annotations

import bisect
import struct
from typing import Iterator

from repro.errors import ConfigError, CorruptionDetected, OutOfSpaceError
from repro.mem.allocator import MemoryAccessor

NODE_SIZE = 256
LEAF_KEYS = 14
INTERNAL_KEYS = 14

_HEADER = struct.Struct("<IIII")
_NODE_HEAD = struct.Struct("<BBHI")  # kind, count, pad, link
_KEYS = struct.Struct(f"<{LEAF_KEYS}q")
_VALUES = struct.Struct(f"<{LEAF_KEYS}I")
_CHILDREN = struct.Struct(f"<{INTERNAL_KEYS + 1}I")

LEAF = 0
INTERNAL = 1


class _Node:
    """Decoded image of one node; re-encoded on write-back."""

    __slots__ = ("kind", "count", "link", "keys", "values", "children")

    def __init__(self, kind: int) -> None:
        self.kind = kind
        self.count = 0
        self.link = 0  # next-leaf id + 1 (leaves only)
        self.keys: list[int] = []
        self.values: list[int] = []   # leaves
        self.children: list[int] = []  # internals: count + 1 node ids

    @classmethod
    def decode(cls, image: bytes) -> "_Node":
        kind, count, _pad, link = _NODE_HEAD.unpack_from(image, 0)
        node = cls(kind)
        node.count = count
        node.link = link
        keys = _KEYS.unpack_from(image, _NODE_HEAD.size)
        node.keys = list(keys[:count])
        body = _NODE_HEAD.size + _KEYS.size
        if kind == LEAF:
            values = _VALUES.unpack_from(image, body)
            node.values = list(values[:count])
        else:
            children = _CHILDREN.unpack_from(image, body)
            node.children = list(children[: count + 1])
        return node

    def encode(self) -> bytes:
        keys = self.keys + [0] * (LEAF_KEYS - len(self.keys))
        head = _NODE_HEAD.pack(self.kind, self.count, 0, self.link)
        if self.kind == LEAF:
            values = self.values + [0] * (LEAF_KEYS - len(self.values))
            body = _KEYS.pack(*keys) + _VALUES.pack(*values)
        else:
            children = self.children + [0] * (
                INTERNAL_KEYS + 1 - len(self.children)
            )
            body = _KEYS.pack(*keys) + _CHILDREN.pack(*children)
        blob = head + body
        return blob + b"\x00" * (NODE_SIZE - len(blob))


class BTreeIndex:
    """Fixed-capacity in-image B+tree mapping ``int64 key -> u32 slot``."""

    HEADER_SIZE = _HEADER.size

    def __init__(self, base: int, node_capacity: int) -> None:
        if node_capacity <= 0:
            raise ConfigError("node_capacity must be positive")
        self.base = base
        self.node_capacity = node_capacity
        self.pool_base = base + self.HEADER_SIZE

    @staticmethod
    def size_for(node_capacity: int) -> int:
        return BTreeIndex.HEADER_SIZE + node_capacity * NODE_SIZE

    @staticmethod
    def nodes_for_entries(entry_capacity: int) -> int:
        """A safe node budget for ``entry_capacity`` keys.

        Worst case leaves are half full (7 keys); internals likewise.
        ``entries/7 * (1 + 1/7 + 1/49 + ...) < entries/6``, plus slack.
        """
        return max(16, entry_capacity // 6 + 8)

    @property
    def size(self) -> int:
        return self.size_for(self.node_capacity)

    def format(self, ctx: MemoryAccessor) -> None:
        ctx.update(self.base, _HEADER.pack(self.node_capacity, 0, 0, 0))

    # ----------------------------------------------------------- node io

    def _node_address(self, node_id: int) -> int:
        return self.pool_base + node_id * NODE_SIZE

    def _read_node(self, ctx: MemoryAccessor, node_id: int) -> _Node:
        if not 0 <= node_id < self.node_capacity:
            raise self._corrupt(
                f"node {node_id} is past the {self.node_capacity}-node pool"
            )
        return _Node.decode(ctx.read(self._node_address(node_id), NODE_SIZE))

    def _corrupt(self, what: str) -> CorruptionDetected:
        return CorruptionDetected([], context=f"B+tree walk at {self.base:#x}: {what}")

    def _descend(
        self, ctx: MemoryAccessor, root: int, key: int, path=None
    ) -> tuple[int, _Node]:
        """Walk from the root (a node id + 1) to the leaf for ``key``;
        returns ``(leaf id, leaf)``.  With a ``path`` list, each internal
        node passed is appended as ``(node id, node, child index)``."""
        node_id = root - 1
        node = self._read_node(ctx, node_id)
        depth = 0
        while node.kind == INTERNAL:
            depth += 1
            if depth > self.node_capacity:  # deeper than the pool: a cycle
                raise self._corrupt(f"a descent runs past {self.node_capacity} levels")
            child_index = bisect.bisect_right(node.keys, key)
            if path is not None:
                path.append((node_id, node, child_index))
            node_id = node.children[child_index]
            node = self._read_node(ctx, node_id)
        return node_id, node

    def _write_node(self, ctx: MemoryAccessor, node_id: int, node: _Node) -> None:
        ctx.update(self._node_address(node_id), node.encode())

    def _read_header(self, ctx: MemoryAccessor) -> tuple[int, int, int, int]:
        return _HEADER.unpack(ctx.read(self.base, self.HEADER_SIZE))

    def _write_header(
        self, ctx: MemoryAccessor, free_head: int, never_used: int, root: int
    ) -> None:
        ctx.update(
            self.base,
            _HEADER.pack(self.node_capacity, free_head, never_used, root),
        )

    def _allocate_node(self, ctx: MemoryAccessor) -> int:
        capacity, free_head, never_used, root = self._read_header(ctx)
        if free_head:
            node_id = free_head - 1
            node = self._read_node(ctx, node_id)
            self._write_header(ctx, node.link, never_used, root)
            return node_id
        if never_used < capacity:
            self._write_header(ctx, free_head, never_used + 1, root)
            return never_used
        raise OutOfSpaceError(f"B+tree at {self.base:#x} is out of nodes")

    # Nodes are never recycled: deletion does not merge (see module
    # docstring), so the free list head stays 0; the header field exists
    # so a rebalancing implementation can be slotted in format-compatibly.

    # --------------------------------------------------------- operations

    def lookup(self, ctx: MemoryAccessor, key: int) -> int | None:
        _cap, _free, _used, root = self._read_header(ctx)
        if not root:
            return None
        _node_id, node = self._descend(ctx, root, key)
        i = bisect.bisect_left(node.keys, key)
        if i < node.count and node.keys[i] == key:
            return node.values[i]
        return None

    def insert(self, ctx: MemoryAccessor, key: int, value: int) -> None:
        """Insert a unique key; duplicates are rejected."""
        _cap, _free, _used, root = self._read_header(ctx)
        if not root:
            leaf_id = self._allocate_node(ctx)
            leaf = _Node(LEAF)
            leaf.keys, leaf.values, leaf.count = [key], [value], 1
            self._write_node(ctx, leaf_id, leaf)
            cap, free, used, _r = self._read_header(ctx)
            self._write_header(ctx, free, used, leaf_id + 1)
            return
        # Descend, remembering the path for splits.
        path: list[tuple[int, _Node, int]] = []  # (node_id, node, child index)
        node_id, node = self._descend(ctx, root, key, path)
        i = bisect.bisect_left(node.keys, key)
        if i < node.count and node.keys[i] == key:
            raise ConfigError(f"duplicate key {key} in B+tree")
        node.keys.insert(i, key)
        node.values.insert(i, value)
        node.count += 1
        if node.count <= LEAF_KEYS:
            self._write_node(ctx, node_id, node)
            return
        # Split the leaf and push the separator up the remembered path.
        separator, new_id = self._split_leaf(ctx, node_id, node)
        self._insert_into_parents(ctx, path, separator, new_id)

    def _split_leaf(
        self, ctx: MemoryAccessor, node_id: int, node: _Node
    ) -> tuple[int, int]:
        half = node.count // 2
        right = _Node(LEAF)
        right.keys = node.keys[half:]
        right.values = node.values[half:]
        right.count = len(right.keys)
        right.link = node.link
        right_id = self._allocate_node(ctx)
        node.keys = node.keys[:half]
        node.values = node.values[:half]
        node.count = half
        node.link = right_id + 1
        self._write_node(ctx, right_id, right)
        self._write_node(ctx, node_id, node)
        return right.keys[0], right_id

    def _insert_into_parents(
        self,
        ctx: MemoryAccessor,
        path: list[tuple[int, _Node, int]],
        separator: int,
        new_child: int,
    ) -> None:
        while path:
            parent_id, parent, child_index = path.pop()
            parent.keys.insert(child_index, separator)
            parent.children.insert(child_index + 1, new_child)
            parent.count += 1
            if parent.count <= INTERNAL_KEYS:
                self._write_node(ctx, parent_id, parent)
                return
            half = parent.count // 2
            separator = parent.keys[half]
            right = _Node(INTERNAL)
            right.keys = parent.keys[half + 1 :]
            right.children = parent.children[half + 1 :]
            right.count = len(right.keys)
            right_id = self._allocate_node(ctx)
            parent.keys = parent.keys[:half]
            parent.children = parent.children[: half + 1]
            parent.count = half
            self._write_node(ctx, right_id, right)
            self._write_node(ctx, parent_id, parent)
            new_child = right_id
        # Split reached the root: grow the tree by one level.
        cap, free, used, root = self._read_header(ctx)
        new_root = _Node(INTERNAL)
        new_root.keys = [separator]
        new_root.children = [root - 1, new_child]
        new_root.count = 1
        root_id = self._allocate_node(ctx)
        self._write_node(ctx, root_id, new_root)
        cap, free, used, _r = self._read_header(ctx)
        self._write_header(ctx, free, used, root_id + 1)

    def delete(self, ctx: MemoryAccessor, key: int) -> bool:
        """Remove a key; returns False if absent.  No rebalancing."""
        _cap, _free, _used, root = self._read_header(ctx)
        if not root:
            return False
        node_id, node = self._descend(ctx, root, key)
        i = bisect.bisect_left(node.keys, key)
        if i >= node.count or node.keys[i] != key:
            return False
        del node.keys[i]
        del node.values[i]
        node.count -= 1
        self._write_node(ctx, node_id, node)
        return True

    def range(
        self, ctx: MemoryAccessor, lo: int, hi: int
    ) -> Iterator[tuple[int, int]]:
        """Yield ``(key, value)`` for ``lo <= key <= hi`` in key order."""
        if lo > hi:
            return
        _cap, _free, used, root = self._read_header(ctx)
        if not root:
            return
        _node_id, node = self._descend(ctx, root, lo)
        leaves = 1
        while True:
            start = bisect.bisect_left(node.keys, lo)
            for i in range(start, node.count):
                if node.keys[i] > hi:
                    return
                yield node.keys[i], node.values[i]
            if not node.link:
                return
            leaves += 1
            if leaves > used:  # more leaves than nodes ever allocated: a cycle
                raise self._corrupt(f"a leaf walk runs past {used} nodes")
            node = self._read_node(ctx, node.link - 1)

    def iter_all(self, ctx: MemoryAccessor) -> Iterator[tuple[int, int]]:
        return self.range(ctx, -(2**63), 2**63 - 1)

    def depth(self, ctx: MemoryAccessor) -> int:
        """Tree height (0 = empty); a structural test helper."""
        _cap, _free, _used, root = self._read_header(ctx)
        if not root:
            return 0
        levels = 1
        node = self._read_node(ctx, root - 1)
        while node.kind == INTERNAL:
            levels += 1
            if levels > self.node_capacity:
                raise self._corrupt(f"a descent runs past {self.node_capacity} levels")
            node = self._read_node(ctx, node.children[0])
        return levels
