"""Memcached-like store: slab classes + per-class LRU eviction.

Mirrors memcached's architecture: items are placed in the smallest slab
class whose chunk fits them; each class has a bounded number of chunks
and evicts its least-recently-used item when full.  Lookup is a dict
(memcached's hash table), so the walk is short; the interesting behavior
is eviction, which the capacity tests exercise.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, List, Optional, Tuple

from repro.store.base import KvStore

__all__ = ["MemcachedStore", "SlabClass"]

CAPACITY_BYTES = 4 * 1024 * 1024
"""Bytes of chunks, split evenly among the slab classes."""
MIN_CHUNK = 64
"""Chunk size of the smallest class; each next class doubles it."""
NUM_CLASSES = 8


class SlabClass:
    """One slab class: fixed chunk size, bounded chunk count, LRU order."""

    def __init__(self, chunk_bytes: int, max_chunks: int):
        self.chunk_bytes = chunk_bytes
        self.max_chunks = max_chunks
        self.lru: OrderedDict[int, Any] = OrderedDict()

    def touch(self, key: int) -> None:
        self.lru.move_to_end(key)

    def insert(self, key: int, value: Any) -> Optional[int]:
        """Insert; return an evicted key if the class was full."""
        evicted = None
        if key not in self.lru and len(self.lru) >= self.max_chunks:
            evicted, _ = self.lru.popitem(last=False)
        self.lru[key] = value
        self.lru.move_to_end(key)
        return evicted

    def remove(self, key: int) -> None:
        self.lru.pop(key, None)


def _sizeof(value: Any) -> int:
    """Approximate item size for slab-class selection."""
    if isinstance(value, (bytes, bytearray, str)):
        return len(value)
    if isinstance(value, (int, float)):
        return 8
    if isinstance(value, (list, tuple)):
        return 8 * max(len(value), 1)
    return 64


class MemcachedStore(KvStore):
    """Slab-allocated LRU cache with a hash-table index."""

    name = "memcached"

    def __init__(self):
        per_class = CAPACITY_BYTES // NUM_CLASSES
        chunks = [MIN_CHUNK << index for index in range(NUM_CLASSES)]
        self._classes = [SlabClass(chunk, max(1, per_class // chunk))
                         for chunk in chunks]
        self.clear()

    def clear(self) -> None:
        self._index: Dict[int, int] = {}       # key -> slab class id
        for slab in self._classes:
            slab.lru.clear()

    def _class_for(self, value: Any) -> int:
        size = _sizeof(value)
        for class_id, slab in enumerate(self._classes):
            if size <= slab.chunk_bytes:
                return class_id
        return len(self._classes) - 1

    # -- KvStore API ---------------------------------------------------------------

    def get(self, key: int) -> Optional[Any]:
        class_id = self._index.get(key)
        if class_id is None:
            return None
        slab = self._classes[class_id]
        value = slab.lru.get(key)
        if value is not None:
            slab.touch(key)
        return value

    def put(self, key: int, value: Any) -> None:
        old_class = self._index.get(key)
        new_class = self._class_for(value)
        if old_class is not None and old_class != new_class:
            self._classes[old_class].remove(key)
        evicted = self._classes[new_class].insert(key, value)
        self._index[key] = new_class
        if evicted is not None:
            self._index.pop(evicted, None)

    def __len__(self) -> int:
        return len(self._index)

    def _walk_length(self, key: int) -> int:
        # Hash-table index probe plus the slab-chunk access.
        return 2

    # -- introspection --------------------------------------------------------------

    def slab_stats(self) -> List[Tuple[int, int, int]]:
        """Per-class (chunk_bytes, used_chunks, max_chunks)."""
        return [(s.chunk_bytes, len(s.lru), s.max_chunks)
                for s in self._classes]
