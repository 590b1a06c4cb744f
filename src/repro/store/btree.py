"""B-tree store (the paper's "B-Tree", after Google's cpp-btree).

A classic B-tree: values live in every node, and full nodes split on the
way down (preemptive splitting).  The branching factor is 16
(:data:`MIN_DEGREE` 8), giving shallow trees whose depth the cost
oracle counts.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.store.base import KvStore

__all__ = ["BTreeStore"]

MIN_DEGREE = 8
"""The tree's minimum degree t: each node holds t-1..2t-1 keys."""


class _BNode:
    __slots__ = ("keys", "values", "children")

    def __init__(self):
        self.keys: List[int] = []
        self.values: List[Any] = []
        self.children: List[_BNode] = []

    @property
    def is_leaf(self) -> bool:
        return not self.children


class BTreeStore(KvStore):
    """B-tree of minimum degree :data:`MIN_DEGREE`."""

    name = "btree"

    def __init__(self):
        self.clear()

    def clear(self) -> None:
        self._root = _BNode()
        self._size = 0

    # -- search helpers ----------------------------------------------------------

    @staticmethod
    def _find_slot(node: _BNode, key: int) -> int:
        """Index of the first key >= ``key`` (binary search)."""
        lo, hi = 0, len(node.keys)
        while lo < hi:
            mid = (lo + hi) // 2
            if node.keys[mid] < key:
                lo = mid + 1
            else:
                hi = mid
        return lo

    # -- KvStore API ----------------------------------------------------------------

    def get(self, key: int) -> Optional[Any]:
        node = self._root
        while True:
            slot = self._find_slot(node, key)
            if slot < len(node.keys) and node.keys[slot] == key:
                return node.values[slot]
            if node.is_leaf:
                return None
            node = node.children[slot]

    def put(self, key: int, value: Any) -> None:
        root = self._root
        if len(root.keys) == 2 * MIN_DEGREE - 1:
            new_root = _BNode()
            new_root.children.append(root)
            self._split_child(new_root, 0)
            self._root = new_root
        self._insert_nonfull(self._root, key, value)

    def _split_child(self, parent: _BNode, index: int) -> None:
        t = MIN_DEGREE
        child = parent.children[index]
        sibling = _BNode()
        sibling.keys = child.keys[t:]
        sibling.values = child.values[t:]
        if not child.is_leaf:
            sibling.children = child.children[t:]
            child.children = child.children[:t]
        parent.keys.insert(index, child.keys[t - 1])
        parent.values.insert(index, child.values[t - 1])
        parent.children.insert(index + 1, sibling)
        child.keys = child.keys[:t - 1]
        child.values = child.values[:t - 1]

    def _insert_nonfull(self, node: _BNode, key: int, value: Any) -> None:
        while True:
            slot = self._find_slot(node, key)
            if slot < len(node.keys) and node.keys[slot] == key:
                node.values[slot] = value
                return
            if node.is_leaf:
                node.keys.insert(slot, key)
                node.values.insert(slot, value)
                self._size += 1
                return
            child = node.children[slot]
            if len(child.keys) == 2 * MIN_DEGREE - 1:
                self._split_child(node, slot)
                if key == node.keys[slot]:
                    node.values[slot] = value
                    return
                if key > node.keys[slot]:
                    slot += 1
            node = node.children[slot]

    def __len__(self) -> int:
        return self._size

    def _walk_length(self, key: int) -> int:
        node = self._root
        visits = 0
        while True:
            visits += 1
            slot = self._find_slot(node, key)
            if slot < len(node.keys) and node.keys[slot] == key:
                return visits
            if node.is_leaf:
                return visits
            node = node.children[slot]

    @property
    def depth(self) -> int:
        node, levels = self._root, 1
        while not node.is_leaf:
            node = node.children[0]
            levels += 1
        return levels
