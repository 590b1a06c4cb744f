"""Key-value store interface used by the protocol engine.

The paper evaluates memcached and simpler in-memory stores (HashTable,
Map, B-Tree, B+Tree) under YCSB.  Our stores play two roles:

1. **Data plane** — they actually hold the key/value pairs at each node
   (the tie-batch sanitizer's digest and the tests read them back;
   client reads are served from the engine's replicas).
2. **Cost oracle** — ``read_cost``/``write_cost`` return the CPU time of
   the structure walk (number of node/bucket visits times a per-visit
   charge), which the protocol engine adds to request processing time.

Costs are deterministic functions of the structure's current shape, so
runs are reproducible.
"""

from __future__ import annotations

import abc
from typing import Any, Iterator, List, Optional, Tuple

__all__ = ["KvStore", "VISIT_NS"]

VISIT_NS = 15.0
"""CPU charge per node/bucket visit during a structure walk (roughly an
L1/L2-resident pointer chase on the paper's 2 GHz cores)."""


class KvStore(abc.ABC):
    """Abstract in-memory key-value store."""

    name: str = "kvstore"

    @abc.abstractmethod
    def get(self, key: int) -> Optional[Any]:
        """Return the value for ``key`` or None."""

    @abc.abstractmethod
    def put(self, key: int, value: Any) -> None:
        """Insert or update ``key``."""

    @abc.abstractmethod
    def delete(self, key: int) -> bool:
        """Remove ``key``; return whether it was present."""

    @abc.abstractmethod
    def __len__(self) -> int:
        """Number of keys stored."""

    @abc.abstractmethod
    def _walk_length(self, key: int) -> int:
        """Number of node/bucket visits to locate ``key``."""

    # -- cost oracle -----------------------------------------------------------

    def read_cost(self, key: int) -> float:
        """CPU ns for a lookup of ``key`` in the current structure."""
        return self._walk_length(key) * VISIT_NS

    def write_cost(self, key: int, value: Any) -> float:
        """CPU ns for an insert/update of ``key``.

        By default a write walks like a read plus one modification visit.
        """
        return (self._walk_length(key) + 1) * VISIT_NS

    # -- conveniences ------------------------------------------------------------

    def __contains__(self, key: int) -> bool:
        return self.get(key) is not None

    def items(self) -> Iterator[Tuple[int, Any]]:
        """Iterate (key, value) pairs; order is store-specific."""
        raise NotImplementedError

    def keys(self) -> List[int]:
        return [k for k, _ in self.items()]
