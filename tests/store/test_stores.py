"""Unit tests for all key-value store substrates."""

import pytest

from repro.store import STORE_TYPES, make_store
from repro.store.base import KvStore
from repro.store.bplustree import BPlusTreeStore
from repro.store.btree import BTreeStore
from repro.store.hashtable import HashTableStore
from repro.store.memcachedlike import MemcachedStore
from repro.store.sortedmap import SortedMapStore

ALL_STORES = sorted(STORE_TYPES)


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

    def test_delete(self, store):
        store.put(5, "x")
        assert store.delete(5)
        assert store.get(5) is None
        assert not store.delete(5)
        assert len(store) == 0

    def test_len_tracks_inserts(self, store):
        for i in range(50):
            store.put(i, i * 10)
        assert len(store) == 50

    def test_contains(self, store):
        store.put(3, "x")
        assert 3 in store
        assert 4 not in store

    def test_items_roundtrip(self, store):
        expected = {i: i * 2 for i in range(30)}
        for k, v in expected.items():
            store.put(k, v)
        assert dict(store.items()) == expected

    def test_costs_positive(self, store):
        store.put(1, "x")
        assert store.read_cost(1) > 0
        assert store.write_cost(2, "y") > 0

    def test_many_inserts_and_deletes(self, store):
        for i in range(200):
            store.put(i, i)
        for i in range(0, 200, 2):
            assert store.delete(i)
        assert len(store) == 100
        for i in range(200):
            expected = None if i % 2 == 0 else i
            assert store.get(i) == expected


class TestHashTable:
    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            HashTableStore(initial_capacity=100)

    def test_resize_preserves_content(self):
        table = HashTableStore(initial_capacity=8)
        for i in range(100):
            table.put(i, str(i))
        assert table.capacity > 8
        for i in range(100):
            assert table.get(i) == str(i)

    def test_load_factor_bounded(self):
        table = HashTableStore(initial_capacity=8, max_load=0.5)
        for i in range(1000):
            table.put(i, i)
        assert table.load_factor <= 0.5 + 1 / table.capacity

    def test_tombstone_reuse(self):
        table = HashTableStore(initial_capacity=64)
        for i in range(20):
            table.put(i, i)
        for i in range(20):
            table.delete(i)
        for i in range(20):
            table.put(i, i + 100)
        assert all(table.get(i) == i + 100 for i in range(20))

    def test_walk_length_is_probe_distance(self):
        table = HashTableStore(initial_capacity=64)
        table.put(1, "x")
        assert table._walk_length(1) >= 1

    @pytest.mark.parametrize("capacity", [8, 16, 64])
    def test_growth_lays_out_what_reinsertion_would(self, capacity):
        """The one-pass rehash against the item-by-item ``put`` it
        replaced, kept here as the reference: with tombstones in the old
        table, the same slots, counts, probe lengths and costs."""
        table = HashTableStore(initial_capacity=capacity)
        keys = [key * 7 % 61 for key in range(capacity // 2)]
        for key in keys:
            table.put(key, -key)
        for key in keys[::3]:
            table.delete(key)
        reference = HashTableStore(initial_capacity=capacity * 2)
        for key, value in table.items():
            reference.put(key, value)
        table._resize(capacity * 2)
        assert table._keys == reference._keys
        assert table._values == reference._values
        assert (len(table), table._used) == (len(reference), reference._used)
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
        assert [k for k, _ in tree.items()] == [1, 3, 5, 7, 9]

    def test_range_query(self):
        tree = SortedMapStore()
        for key in range(0, 100, 10):
            tree.put(key, key)
        assert [k for k, _ in tree.range(25, 65)] == [30, 40, 50, 60]

    def test_min_max(self):
        tree = SortedMapStore()
        assert tree.min_key() is None
        for key in [4, 2, 8]:
            tree.put(key, key)
        assert tree.min_key() == 2
        assert tree.max_key() == 8

    def test_avl_balance_bound(self):
        """1000 sequential inserts stay logarithmically shallow."""
        tree = SortedMapStore()
        for key in range(1000):
            tree.put(key, key)
        # AVL height bound: 1.44 * log2(n + 2)
        assert tree.height <= 16

    def test_delete_rebalances(self):
        tree = SortedMapStore()
        for key in range(100):
            tree.put(key, key)
        for key in range(0, 100, 3):
            tree.delete(key)
        remaining = [k for k, _ in tree.items()]
        assert remaining == sorted(remaining)
        assert len(tree) == len(remaining)


class TestBTree:
    def test_min_degree_validation(self):
        with pytest.raises(ValueError):
            BTreeStore(min_degree=1)

    def test_splits_keep_order(self):
        tree = BTreeStore(min_degree=2)
        for key in range(100):
            tree.put(key, key)
        assert [k for k, _ in tree.items()] == list(range(100))

    def test_depth_grows_slowly(self):
        tree = BTreeStore(min_degree=8)
        for key in range(5000):
            tree.put(key, key)
        assert tree.depth <= 5

    def test_delete_with_merges(self):
        tree = BTreeStore(min_degree=2)
        keys = list(range(200))
        for key in keys:
            tree.put(key, key)
        for key in keys[::2]:
            assert tree.delete(key)
        expected = keys[1::2]
        assert [k for k, _ in tree.items()] == expected

    def test_reverse_insert_order(self):
        tree = BTreeStore(min_degree=3)
        for key in reversed(range(300)):
            tree.put(key, key)
        assert [k for k, _ in tree.items()] == list(range(300))


class TestBPlusTree:
    def test_order_validation(self):
        with pytest.raises(ValueError):
            BPlusTreeStore(order=2)

    def test_leaf_chain_iteration(self):
        tree = BPlusTreeStore(order=4)
        for key in [50, 10, 90, 30, 70, 20, 80, 40, 60, 0]:
            tree.put(key, key)
        assert [k for k, _ in tree.items()] == sorted(
            [50, 10, 90, 30, 70, 20, 80, 40, 60, 0])

    def test_range_uses_leaf_chain(self):
        tree = BPlusTreeStore(order=4)
        for key in range(100):
            tree.put(key, key * 2)
        assert tree.range(10, 14) == [(10, 20), (11, 22), (12, 24),
                                      (13, 26), (14, 28)]

    def test_depth_grows_slowly(self):
        tree = BPlusTreeStore(order=16)
        for key in range(5000):
            tree.put(key, key)
        assert tree.depth <= 5

    def test_delete_from_leaves(self):
        tree = BPlusTreeStore(order=4)
        for key in range(50):
            tree.put(key, key)
        for key in range(0, 50, 5):
            assert tree.delete(key)
        assert len(tree) == 40
        assert tree.get(5) is None
        assert tree.get(6) == 6


class TestMemcached:
    def test_eviction_when_full(self):
        store = MemcachedStore(capacity_bytes=8 * 1024, num_classes=2,
                               min_chunk=64)
        for i in range(1000):
            store.put(i, i)
        assert store.total_evictions > 0
        assert len(store) < 1000

    def test_lru_order(self):
        store = MemcachedStore(capacity_bytes=64 * 3 * 2, num_classes=2,
                               min_chunk=64)
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

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            MemcachedStore(capacity_bytes=0)

    def test_slab_class_selection(self):
        store = MemcachedStore(capacity_bytes=1024 * 1024, min_chunk=64,
                               num_classes=4)
        store.put(1, "x" * 50)    # fits class 0 (64B)
        store.put(2, "y" * 100)   # needs class 1 (128B)
        stats = store.slab_stats()
        assert stats[0][1] == 1
        assert stats[1][1] == 1

    def test_reclass_on_resize(self):
        store = MemcachedStore(capacity_bytes=1024 * 1024, min_chunk=64,
                               num_classes=4)
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
