"""Open-addressing hash table (the paper's "HashTable" store).

Linear probing with load-factor-driven resizing.  The walk length for
the cost oracle is the actual probe distance, so hot tables near the
resize threshold genuinely cost more.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from repro.store.base import VISIT_NS, KvStore

__all__ = ["HashTableStore"]

_EMPTY = object()

INITIAL_CAPACITY = 64
"""Slots in an empty table (a power of two: the probe masks with it)."""
MAX_LOAD = 0.66
"""Load factor past which a ``put`` doubles the table."""


class HashTableStore(KvStore):
    """Linear-probing hash table with power-of-two capacity."""

    name = "hashtable"

    def __init__(self):
        self.clear()

    def clear(self) -> None:
        capacity = INITIAL_CAPACITY
        self._capacity = capacity
        self._keys: List[Any] = [_EMPTY] * capacity
        # An empty slot's value stays None, so ``get`` needs no test.
        self._values: List[Any] = [None] * capacity
        self._size = 0

    def _probe(self, key: int) -> Tuple[int, int]:
        """Return (index of ``key`` or of the empty slot ending its
        probe run, probe count)."""
        mask = self._capacity - 1
        # Fibonacci hashing spreads sequential integer keys well.
        index = (key * 2654435769) & mask
        keys = self._keys
        probes = 1
        while True:
            slot_key = keys[index]
            if slot_key is _EMPTY or slot_key == key:
                return index, probes
            index = (index + 1) & mask
            probes += 1

    def _resize(self, new_capacity: int) -> None:
        """Rehash into ``new_capacity`` slots in one pass over the old
        ones, in slot order: the layout ``put`` of each key would build
        (keys are distinct, so each lands in the first empty slot of its
        probe run)."""
        old_keys, old_values = self._keys, self._values
        mask = new_capacity - 1
        keys: List[Any] = [_EMPTY] * new_capacity
        values: List[Any] = [None] * new_capacity
        for slot_key, value in zip(old_keys, old_values):
            if slot_key is _EMPTY:
                continue
            index = (slot_key * 2654435769) & mask
            while keys[index] is not _EMPTY:
                index = (index + 1) & mask
            keys[index] = slot_key
            values[index] = value
        self._capacity = new_capacity
        self._keys, self._values = keys, values

    # -- KvStore API -------------------------------------------------------------

    def get(self, key: int) -> Optional[Any]:
        return self._values[self._probe(key)[0]]

    def put(self, key: int, value: Any) -> None:
        if (self._size + 1) / self._capacity > MAX_LOAD:
            self._resize(self._capacity * 2)
        index = self._probe(key)[0]
        if self._keys[index] is _EMPTY:
            self._keys[index] = key
            self._size += 1
        self._values[index] = value

    def __len__(self) -> int:
        return self._size

    def _walk_length(self, key: int) -> int:
        return self._probe(key)[1]

    def read_cost(self, key: int) -> float:
        return self._probe(key)[1] * VISIT_NS

    def write_cost(self, key: int, value: Any) -> float:
        return (self._probe(key)[1] + 1) * VISIT_NS

    @property
    def capacity(self) -> int:
        return self._capacity
