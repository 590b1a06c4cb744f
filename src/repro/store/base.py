"""Key-value store interface used by the protocol engine.

The paper evaluates memcached and simpler in-memory stores (HashTable,
Map, B-Tree, B+Tree) under YCSB, whose read/write mixes only look keys
up and insert or update them.  Our stores play two roles:

1. **Data plane** — they hold the key/value pairs each node applied
   (the tie-batch sanitizer's digest reads them back; client reads are
   served from the engine's replicas).  A store is volatile: a restart
   empties it (:meth:`KvStore.clear`) and refills it from the node's
   NVM image.
2. **Cost oracle** — ``read_cost``/``write_cost`` return the CPU time of
   the structure walk (number of node/bucket visits times a per-visit
   charge), which the protocol engine adds to request processing time.

Costs are deterministic functions of the structure's current shape, so
runs are reproducible.
"""

from __future__ import annotations

import abc
from typing import Any, Optional

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
    def clear(self) -> None:
        """Empty the store in place, laid out as a freshly built one."""

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
