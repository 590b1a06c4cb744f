"""Unit tests for all key-value store substrates."""

import pytest

from repro.store import STORE_TYPES, make_store
from repro.store import bplustree, btree, hashtable, memcachedlike
from repro.store.base import KvStore
from repro.store.bplustree import BPlusTreeStore
from repro.store.btree import BTreeStore
from repro.store.hashtable import HashTableStore
from repro.store.memcachedlike import MemcachedStore
from repro.store.sortedmap import SortedMapStore

ALL_STORES = sorted(STORE_TYPES)


def in_order(store):
    """The keys of a search-tree store, walked in order from its root:
    sorted exactly when every ``put`` kept the tree ordered."""
    keys = []

    def walk(node):
        if isinstance(store, SortedMapStore):
            if node is not None:
                walk(node.left)
                keys.append(node.key)
                walk(node.right)
        elif not getattr(node, "children", None):
            keys.extend(node.keys)
        elif isinstance(store, BTreeStore):
            for child, key in zip(node.children, node.keys):
                walk(child)
                keys.append(key)
            walk(node.children[-1])
        else:
            for child in node.children:
                walk(child)

    walk(store._root)
    return keys


@pytest.fixture(params=ALL_STORES)
def store(request):
    return make_store(request.param)


class TestCommonBehavior:
    def test_get_missing_returns_none(self, store):
        assert store.get(42) is None

    def test_put_get_roundtrip(self, store):
        store.put(1, "one")
        assert store.get(1) == "one"

    def test_overwrite(self, store):
        store.put(1, "a")
        store.put(1, "b")
        assert store.get(1) == "b"
        assert len(store) == 1

    def test_len_tracks_inserts(self, store):
        for i in range(50):
            store.put(i, i * 10)
        assert len(store) == 50

    def test_contains(self, store):
        store.put(3, "x")
        assert store.get(3) is not None
        assert store.get(4) is None

    def test_items_roundtrip(self, store):
        expected = {i: i * 2 for i in range(30)}
        for k, v in expected.items():
            store.put(k, v)
        assert {k: store.get(k) for k in expected} == expected
        assert len(store) == len(expected)

    def test_costs_positive(self, store):
        store.put(1, "x")
        assert store.read_cost(1) > 0
        assert store.write_cost(2, "y") > 0

    def test_delete(self, store):
        """A store drops its keys all at once, by ``clear``: an emptied
        store reads None and has length 0, and takes puts again."""
        store.put(5, "x")
        store.clear()
        assert store.get(5) is None
        assert len(store) == 0
        store.clear()
        assert len(store) == 0
        store.put(5, "y")
        assert store.get(5) == "y"
        assert len(store) == 1

    def test_many_inserts_and_deletes(self, store):
        """What a restart relies on: a cleared and refilled store is the
        store a fresh one filled alike would be, cost for cost."""
        for i in range(200):
            store.put(i, i)
        store.clear()
        assert len(store) == 0
        fresh = make_store(store.name)
        for target in (store, fresh):
            for i in range(1, 200, 2):
                target.put(i, i)
        assert len(store) == len(fresh) == 100
        for i in range(200):
            assert store.get(i) == (None if i % 2 == 0 else i)
            assert store.read_cost(i) == fresh.read_cost(i)
            assert store.write_cost(i, i) == fresh.write_cost(i, i)


def test_the_store_surface_is_pinned():
    """What the engine, the sanitizer and the benchmark call, and what a
    put-path test reads: no deletion, iteration, range scan or min/max."""
    def public(cls):
        return {name for name in dir(cls) if not name.startswith("_")}

    assert public(KvStore) == {"clear", "get", "name", "put", "read_cost",
                               "write_cost"}
    assert KvStore.__abstractmethods__ == {"__len__", "_walk_length",
                                           "clear", "get", "put"}
    extra = {name: public(type(make_store(name))) - public(KvStore)
             for name in STORE_TYPES}
    assert extra == {"hashtable": {"capacity"}, "sortedmap": {"height"},
                     "btree": {"depth"}, "bplustree": {"depth"},
                     "memcached": {"slab_stats"}}


def _with(monkeypatch, module, **constants):
    """Set a store module's constants for one test."""
    for name, value in constants.items():
        monkeypatch.setattr(module, name, value)


class TestHashTable:
    def test_resize_preserves_content(self, monkeypatch):
        _with(monkeypatch, hashtable, INITIAL_CAPACITY=8)
        table = HashTableStore()
        for i in range(100):
            table.put(i, str(i))
        assert table.capacity > 8
        for i in range(100):
            assert table.get(i) == str(i)

    def test_load_factor_bounded(self, monkeypatch):
        _with(monkeypatch, hashtable, INITIAL_CAPACITY=8, MAX_LOAD=0.5)
        table = HashTableStore()
        for i in range(1000):
            table.put(i, i)
        assert len(table) / table.capacity <= 0.5 + 1 / table.capacity

    def test_walk_length_is_probe_distance(self):
        table = HashTableStore()
        table.put(1, "x")
        assert table._walk_length(1) >= 1

    @pytest.mark.parametrize("capacity", [8, 16, 64])
    def test_growth_lays_out_what_reinsertion_would(self, capacity,
                                                     monkeypatch):
        """The one-pass rehash against the item-by-item ``put`` it
        replaced, kept here as the reference, in the old table's slot
        order: the same slots, counts, probe lengths and costs."""
        _with(monkeypatch, hashtable, INITIAL_CAPACITY=capacity)
        table = HashTableStore()
        for key in [key * 7 % 61 for key in range(capacity // 2)]:
            table.put(key, -key)
        _with(monkeypatch, hashtable, INITIAL_CAPACITY=capacity * 2)
        reference = HashTableStore()
        for key, value in zip(table._keys, table._values):
            if value is not None:
                reference.put(key, value)
        table._resize(capacity * 2)
        assert table._keys == reference._keys
        assert table._values == reference._values
        assert len(table) == len(reference)
        for key in range(61):
            assert table._walk_length(key) == reference._walk_length(key)
            assert table.read_cost(key) == reference.read_cost(key)
            assert (table.write_cost(key, None)
                    == reference.write_cost(key, None))


class TestSortedMap:
    def test_items_sorted(self):
        tree = SortedMapStore()
        for key in [5, 1, 9, 3, 7]:
            tree.put(key, key)
        assert in_order(tree) == [1, 3, 5, 7, 9]

    def test_avl_balance_bound(self):
        """1000 sequential inserts stay logarithmically shallow."""
        tree = SortedMapStore()
        for key in range(1000):
            tree.put(key, key)
        # AVL height bound: 1.44 * log2(n + 2)
        assert tree.height <= 16


class TestBTree:
    def test_splits_keep_order(self, monkeypatch):
        _with(monkeypatch, btree, MIN_DEGREE=2)
        tree = BTreeStore()
        for key in range(100):
            tree.put(key, key)
        assert in_order(tree) == list(range(100))

    def test_depth_grows_slowly(self):
        tree = BTreeStore()
        for key in range(5000):
            tree.put(key, key)
        assert tree.depth <= 5

    def test_reverse_insert_order(self, monkeypatch):
        _with(monkeypatch, btree, MIN_DEGREE=3)
        tree = BTreeStore()
        for key in reversed(range(300)):
            tree.put(key, key)
        assert in_order(tree) == list(range(300))


class TestBPlusTree:
    def test_depth_grows_slowly(self):
        tree = BPlusTreeStore()
        for key in range(5000):
            tree.put(key, key)
        assert tree.depth <= 5


class TestMemcached:
    def test_eviction_when_full(self, monkeypatch):
        _with(monkeypatch, memcachedlike, CAPACITY_BYTES=8 * 1024,
              NUM_CLASSES=2)
        store = MemcachedStore()
        for i in range(1000):
            store.put(i, i)
        assert len(store) < 1000
        assert store.get(0) is None     # the oldest went first

    def test_lru_order(self, monkeypatch):
        _with(monkeypatch, memcachedlike, CAPACITY_BYTES=64 * 3 * 2,
              NUM_CLASSES=2)
        store = MemcachedStore()
        # Class 0 has 1-2 chunks; fill, touch the oldest, insert, and the
        # untouched middle entry should be the one evicted.
        store.put(1, 10)
        store.put(2, 20)
        max_chunks = store.slab_stats()[0][2]
        if max_chunks >= 2:
            store.get(1)          # 1 becomes most recently used
            for extra in range(3, 3 + max_chunks):
                store.put(extra, extra)
            assert store.get(2) is None or store.get(1) is not None

    def test_slab_class_selection(self, monkeypatch):
        _with(monkeypatch, memcachedlike, CAPACITY_BYTES=1024 * 1024,
              NUM_CLASSES=4)
        store = MemcachedStore()
        store.put(1, "x" * 50)    # fits class 0 (64B)
        store.put(2, "y" * 100)   # needs class 1 (128B)
        stats = store.slab_stats()
        assert stats[0][1] == 1
        assert stats[1][1] == 1

    def test_reclass_on_resize(self, monkeypatch):
        _with(monkeypatch, memcachedlike, CAPACITY_BYTES=1024 * 1024,
              NUM_CLASSES=4)
        store = MemcachedStore()
        store.put(1, "x" * 50)
        store.put(1, "x" * 200)   # moves to a larger class
        assert store.get(1) == "x" * 200
        assert len(store) == 1


class TestFactory:
    def test_make_store_all_names(self):
        for name in ALL_STORES:
            store = make_store(name)
            assert isinstance(store, KvStore)
            assert store.name == name

    def test_unknown_name(self):
        with pytest.raises(ValueError, match=r"unknown store 'nosuch'; "
                           r"choose from \['bplustree', 'btree', "
                           r"'hashtable', 'memcached', 'sortedmap'\]"):
            make_store("nosuch")
