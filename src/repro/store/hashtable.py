"""Open-addressing hash table (the paper's "HashTable" store).

Linear probing with tombstones and load-factor-driven resizing.  The
walk length for the cost oracle is the actual probe distance, so hot
tables near the resize threshold genuinely cost more.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, Tuple

from repro.store.base import VISIT_NS, KvStore

__all__ = ["HashTableStore"]

_EMPTY = object()
_TOMBSTONE = object()


class HashTableStore(KvStore):
    """Linear-probing hash table with power-of-two capacity."""

    name = "hashtable"

    def __init__(self, initial_capacity: int = 64, max_load: float = 0.66):
        if initial_capacity < 8 or initial_capacity & (initial_capacity - 1):
            raise ValueError("initial_capacity must be a power of two >= 8")
        if not 0.1 <= max_load < 1.0:
            raise ValueError(f"max_load out of range: {max_load}")
        self._capacity = initial_capacity
        self._max_load = max_load
        self._keys: List[Any] = [_EMPTY] * initial_capacity
        self._values: List[Any] = [None] * initial_capacity
        self._size = 0
        self._used = 0  # live entries + tombstones

    def _probe(self, key: int) -> Tuple[int, int, Optional[int]]:
        """Return (index_of_key_or_insertion_point, probe_count,
        first_tombstone_index)."""
        mask = self._capacity - 1
        # Fibonacci hashing spreads sequential integer keys well.
        index = (key * 2654435769) & mask
        keys = self._keys
        probes = 1
        first_tombstone = None
        while True:
            slot_key = keys[index]
            if slot_key is _EMPTY:
                return index, probes, first_tombstone
            if slot_key is _TOMBSTONE:
                if first_tombstone is None:
                    first_tombstone = index
            elif slot_key == key:
                return index, probes, first_tombstone
            index = (index + 1) & mask
            probes += 1

    def _resize(self, new_capacity: int) -> None:
        """Rehash into ``new_capacity`` slots in one pass over the old
        ones, in slot order: the layout ``put`` of each live key would
        build (keys are distinct and the new table holds no tombstone,
        so each lands in the first empty slot of its probe run)."""
        old_keys, old_values = self._keys, self._values
        mask = new_capacity - 1
        keys: List[Any] = [_EMPTY] * new_capacity
        values: List[Any] = [None] * new_capacity
        for slot_key, value in zip(old_keys, old_values):
            if slot_key is _EMPTY or slot_key is _TOMBSTONE:
                continue
            index = (slot_key * 2654435769) & mask
            while keys[index] is not _EMPTY:
                index = (index + 1) & mask
            keys[index] = slot_key
            values[index] = value
        self._capacity = new_capacity
        self._keys, self._values = keys, values
        self._used = self._size

    # -- KvStore API -------------------------------------------------------------

    def get(self, key: int) -> Optional[Any]:
        index, _probes, _tomb = self._probe(key)
        if self._keys[index] is _EMPTY or self._keys[index] is _TOMBSTONE:
            return None
        return self._values[index]

    def put(self, key: int, value: Any) -> None:
        if (self._used + 1) / self._capacity > self._max_load:
            self._resize(self._capacity * 2)
        index, _probes, first_tombstone = self._probe(key)
        if self._keys[index] == key and self._keys[index] is not _EMPTY:
            self._values[index] = value
            return
        target = first_tombstone if first_tombstone is not None else index
        if self._keys[target] is not _TOMBSTONE:
            self._used += 1
        self._keys[target] = key
        self._values[target] = value
        self._size += 1

    def delete(self, key: int) -> bool:
        index, _probes, _tomb = self._probe(key)
        if self._keys[index] is _EMPTY or self._keys[index] is _TOMBSTONE:
            return False
        self._keys[index] = _TOMBSTONE
        self._values[index] = None
        self._size -= 1
        return True

    def __len__(self) -> int:
        return self._size

    def _walk_length(self, key: int) -> int:
        return self._probe(key)[1]

    def read_cost(self, key: int) -> float:
        return self._probe(key)[1] * VISIT_NS

    def write_cost(self, key: int, value: Any) -> float:
        return (self._probe(key)[1] + 1) * VISIT_NS

    def items(self) -> Iterator[Tuple[int, Any]]:
        for slot_key, value in zip(self._keys, self._values):
            if slot_key is not _EMPTY and slot_key is not _TOMBSTONE:
                yield slot_key, value

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def load_factor(self) -> float:
        return self._size / self._capacity
