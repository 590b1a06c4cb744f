"""B+-tree store (the paper's "BPlusTree", after TLX).

Values live only in the leaves, and inner nodes hold separators only.
Insertions split full nodes on the way back up.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from repro.store.base import KvStore

__all__ = ["BPlusTreeStore"]

ORDER = 16
"""Children per inner node, and entries per leaf."""


class _Leaf:
    __slots__ = ("keys", "values")

    def __init__(self):
        self.keys: List[int] = []
        self.values: List[Any] = []


class _Inner:
    __slots__ = ("keys", "children")

    def __init__(self):
        self.keys: List[int] = []          # separators
        self.children: List[Any] = []      # _Inner or _Leaf


def _bisect(keys: List[int], key: int) -> int:
    lo, hi = 0, len(keys)
    while lo < hi:
        mid = (lo + hi) // 2
        if keys[mid] <= key:
            lo = mid + 1
        else:
            hi = mid
    return lo


class BPlusTreeStore(KvStore):
    """B+-tree with :data:`ORDER` children per inner node and
    :data:`ORDER` entries per leaf."""

    name = "bplustree"

    def __init__(self):
        self.clear()

    def clear(self) -> None:
        self._root: Any = _Leaf()
        self._size = 0

    # -- navigation ---------------------------------------------------------------

    def _descend(self, key: int) -> Tuple[_Leaf, List[Tuple[_Inner, int]]]:
        """Walk to the leaf for ``key``; return it and the (parent, slot)
        path for split propagation."""
        path: List[Tuple[_Inner, int]] = []
        node = self._root
        while isinstance(node, _Inner):
            slot = _bisect(node.keys, key)
            path.append((node, slot))
            node = node.children[slot]
        return node, path

    # -- KvStore API ------------------------------------------------------------------

    def get(self, key: int) -> Optional[Any]:
        leaf, _path = self._descend(key)
        slot = _bisect(leaf.keys, key) - 1
        if slot >= 0 and leaf.keys[slot] == key:
            return leaf.values[slot]
        return None

    def put(self, key: int, value: Any) -> None:
        leaf, path = self._descend(key)
        slot = _bisect(leaf.keys, key) - 1
        if slot >= 0 and leaf.keys[slot] == key:
            leaf.values[slot] = value
            return
        insert_at = slot + 1
        leaf.keys.insert(insert_at, key)
        leaf.values.insert(insert_at, value)
        self._size += 1
        if len(leaf.keys) >= ORDER:
            self._split_leaf(leaf, path)

    def _split_leaf(self, leaf: _Leaf, path: List[Tuple[_Inner, int]]) -> None:
        mid = len(leaf.keys) // 2
        right = _Leaf()
        right.keys = leaf.keys[mid:]
        right.values = leaf.values[mid:]
        leaf.keys = leaf.keys[:mid]
        leaf.values = leaf.values[:mid]
        self._insert_separator(path, right.keys[0], right)

    def _insert_separator(self, path: List[Tuple[_Inner, int]], separator: int,
                          right_child: Any) -> None:
        while path:
            parent, slot = path.pop()
            parent.keys.insert(slot, separator)
            parent.children.insert(slot + 1, right_child)
            if len(parent.children) <= ORDER:
                return
            mid = len(parent.keys) // 2
            separator = parent.keys[mid]
            sibling = _Inner()
            sibling.keys = parent.keys[mid + 1:]
            sibling.children = parent.children[mid + 1:]
            parent.keys = parent.keys[:mid]
            parent.children = parent.children[:mid + 1]
            right_child = sibling
        new_root = _Inner()
        new_root.keys = [separator]
        new_root.children = [self._root, right_child]
        self._root = new_root

    def __len__(self) -> int:
        return self._size

    def _walk_length(self, key: int) -> int:
        visits = 1
        node = self._root
        while isinstance(node, _Inner):
            node = node.children[_bisect(node.keys, key)]
            visits += 1
        return visits

    @property
    def depth(self) -> int:
        node, levels = self._root, 1
        while isinstance(node, _Inner):
            node = node.children[0]
            levels += 1
        return levels
