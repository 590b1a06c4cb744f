"""Property-based tests: every store behaves like a Python dict under
the puts and gets the workloads issue."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.store import make_store
from tests.store.test_stores import in_order

KEYS = st.integers(min_value=0, max_value=500)
VALUES = st.integers(min_value=-10_000, max_value=10_000)

OPS = st.lists(
    st.one_of(
        st.tuples(st.just("put"), KEYS, VALUES),
        st.tuples(st.just("get"), KEYS, st.just(0)),
    ),
    max_size=200,
)


@pytest.mark.parametrize("store_name",
                         ["hashtable", "sortedmap", "btree", "bplustree"])
@given(ops=OPS)
@settings(max_examples=60, deadline=None)
def test_store_matches_dict_model(store_name, ops):
    """Interleaved puts/gets agree with a dict reference."""
    store = make_store(store_name)
    model = {}
    for op, key, value in ops:
        if op == "put":
            store.put(key, value)
            model[key] = value
        else:
            assert store.get(key) == model.get(key)
    assert len(store) == len(model)
    assert {key: store.get(key) for key in model} == model


@pytest.mark.parametrize("store_name", ["sortedmap", "btree", "bplustree"])
@given(keys=st.lists(KEYS, unique=True, max_size=150))
@settings(max_examples=40, deadline=None)
def test_ordered_stores_iterate_sorted(store_name, keys):
    store = make_store(store_name)
    for key in keys:
        store.put(key, key)
    assert in_order(store) == sorted(keys)


@given(ops=OPS)
@settings(max_examples=40, deadline=None)
def test_memcached_never_exceeds_capacity(ops):
    """The memcached store may evict, but never corrupts what it keeps."""
    store = make_store("memcached")
    model = {}
    for op, key, value in ops:
        if op == "put":
            store.put(key, value)
            model[key] = value
        else:
            got = store.get(key)
            # Eviction may lose the key, but a present value must be right.
            if got is not None:
                assert got == model.get(key)
    for _slab_chunk, used, max_chunks in store.slab_stats():
        assert used <= max_chunks


class HashTableMachine(RuleBasedStateMachine):
    """Stateful test of the open-addressing hash table, cleared as a
    restart clears it."""

    def __init__(self):
        super().__init__()
        self.table = make_store("hashtable")
        self.model = {}

    @rule(key=KEYS, value=VALUES)
    def put(self, key, value):
        self.table.put(key, value)
        self.model[key] = value

    @rule()
    def clear(self):
        self.table.clear()
        self.model.clear()

    @rule(key=KEYS)
    def get(self, key):
        assert self.table.get(key) == self.model.get(key)

    @invariant()
    def sizes_agree(self):
        assert len(self.table) == len(self.model)


TestHashTableStateful = HashTableMachine.TestCase
TestHashTableStateful.settings = settings(max_examples=25,
                                          stateful_step_count=50,
                                          deadline=None)
