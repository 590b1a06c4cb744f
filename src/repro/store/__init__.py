"""Key-value store substrates (the paper's evaluated applications).

All stores implement :class:`repro.store.base.KvStore`: they hold real
data and act as deterministic access-cost oracles for the protocol
engine.  ``make_store`` builds one by name, importing only that store's
module; the default, ``hashtable``, is imported with the package.
"""

from importlib import import_module

from repro.store.base import KvStore
# The default store (``ClusterConfig.store_type``) comes with the
# package, so a default build compiles nothing and allocates only what
# the cluster itself holds.
import repro.store.hashtable  # noqa: F401

__all__ = ["STORE_TYPES", "make_store"]

#: Store name -> the dotted path of its class.
STORE_TYPES = {
    "hashtable": "repro.store.hashtable.HashTableStore",
    "sortedmap": "repro.store.sortedmap.SortedMapStore",
    "btree": "repro.store.btree.BTreeStore",
    "bplustree": "repro.store.bplustree.BPlusTreeStore",
    "memcached": "repro.store.memcachedlike.MemcachedStore",
}


def make_store(name: str) -> KvStore:
    """Instantiate a store by name (see :data:`STORE_TYPES`)."""
    try:
        path = STORE_TYPES[name]
    except KeyError:
        raise ValueError(
            f"unknown store {name!r}; choose from {sorted(STORE_TYPES)}"
        ) from None
    module, _, cls = path.rpartition(".")
    return getattr(import_module(module), cls)()
