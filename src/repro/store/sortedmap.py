"""AVL-balanced sorted map (the paper's "Map" store).

A classic AVL tree with iterative lookup (so the cost oracle can count
the exact visit depth) and recursive rebalancing insert.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.store.base import KvStore

__all__ = ["SortedMapStore"]


class _Node:
    __slots__ = ("key", "value", "left", "right", "height")

    def __init__(self, key: int, value: Any):
        self.key = key
        self.value = value
        self.left: Optional[_Node] = None
        self.right: Optional[_Node] = None
        self.height = 1


def _height(node: Optional[_Node]) -> int:
    return node.height if node else 0


def _update(node: _Node) -> None:
    node.height = 1 + max(_height(node.left), _height(node.right))


def _balance_factor(node: _Node) -> int:
    return _height(node.left) - _height(node.right)


def _rotate_right(node: _Node) -> _Node:
    pivot = node.left
    node.left = pivot.right
    pivot.right = node
    _update(node)
    _update(pivot)
    return pivot


def _rotate_left(node: _Node) -> _Node:
    pivot = node.right
    node.right = pivot.left
    pivot.left = node
    _update(node)
    _update(pivot)
    return pivot


def _rebalance(node: _Node) -> _Node:
    _update(node)
    balance = _balance_factor(node)
    if balance > 1:
        if _balance_factor(node.left) < 0:
            node.left = _rotate_left(node.left)
        return _rotate_right(node)
    if balance < -1:
        if _balance_factor(node.right) > 0:
            node.right = _rotate_right(node.right)
        return _rotate_left(node)
    return node


class SortedMapStore(KvStore):
    """Ordered map with O(log n) lookup and insert."""

    name = "sortedmap"

    def __init__(self):
        self.clear()

    def clear(self) -> None:
        self._root: Optional[_Node] = None
        self._size = 0

    # -- KvStore API --------------------------------------------------------------

    def get(self, key: int) -> Optional[Any]:
        node = self._root
        while node is not None:
            if key == node.key:
                return node.value
            node = node.left if key < node.key else node.right
        return None

    def put(self, key: int, value: Any) -> None:
        self._root = self._insert(self._root, key, value)

    def _insert(self, node: Optional[_Node], key: int, value: Any) -> _Node:
        if node is None:
            self._size += 1
            return _Node(key, value)
        if key == node.key:
            node.value = value
            return node
        if key < node.key:
            node.left = self._insert(node.left, key, value)
        else:
            node.right = self._insert(node.right, key, value)
        return _rebalance(node)

    def __len__(self) -> int:
        return self._size

    def _walk_length(self, key: int) -> int:
        node = self._root
        visits = 0
        while node is not None:
            visits += 1
            if key == node.key:
                return visits
            node = node.left if key < node.key else node.right
        return max(visits, 1)

    @property
    def height(self) -> int:
        return _height(self._root)
