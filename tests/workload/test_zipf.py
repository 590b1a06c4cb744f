"""Tests for the zipfian / YCSB workload generators."""

import hashlib
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, ClusterConfig
from repro.core.model import Consistency, DdpModel, Persistency
from repro.sim.rng import SeededStream
from repro.workload.ycsb import WORKLOADS, RequestStream, WorkloadSpec
from repro.workload.zipf import (
    ScrambledZipfianGenerator,
    ZipfianGenerator,
    fnv1a_64,
)


class TestZipfian:
    def test_ranks_in_range(self):
        gen = ZipfianGenerator(100, theta=0.99, rng=SeededStream(1))
        for _ in range(2000):
            assert 0 <= gen.next() < 100

    def test_rank_zero_most_popular(self):
        gen = ZipfianGenerator(1000, theta=0.99, rng=SeededStream(2))
        counts = {}
        for _ in range(20_000):
            rank = gen.next()
            counts[rank] = counts.get(rank, 0) + 1
        assert counts[0] == max(counts.values())
        # Zipf: rank 0 should get roughly 1/zeta of the mass.
        zeta = sum(1.0 / (i ** 0.99) for i in range(1, 1001))
        expected = 20_000 / zeta
        assert abs(counts[0] - expected) / expected < 0.15

    def test_skew_monotone_in_theta(self):
        """Higher theta concentrates more mass on the top rank."""
        def top_fraction(theta):
            gen = ZipfianGenerator(1000, theta=theta, rng=SeededStream(3))
            hits = sum(1 for _ in range(10_000) if gen.next() == 0)
            return hits / 10_000

        assert top_fraction(0.99) > top_fraction(0.5)

    def test_theta_validation(self):
        with pytest.raises(ValueError):
            ZipfianGenerator(100, theta=1.0)
        with pytest.raises(ValueError):
            ZipfianGenerator(100, theta=0.0)
        with pytest.raises(ValueError):
            ZipfianGenerator(0)

    def test_deterministic(self):
        a = ZipfianGenerator(500, rng=SeededStream(9))
        b = ZipfianGenerator(500, rng=SeededStream(9))
        assert [a.next() for _ in range(100)] == [b.next() for _ in range(100)]


class TestScrambled:
    def test_keys_in_range(self):
        gen = ScrambledZipfianGenerator(1000, rng=SeededStream(5))
        for _ in range(2000):
            assert 0 <= gen.next() < 1000

    def test_hot_keys_spread_out(self):
        """Scrambling moves the popular keys away from ids 0..k."""
        gen = ScrambledZipfianGenerator(10_000, rng=SeededStream(6))
        counts = {}
        for _ in range(20_000):
            key = gen.next()
            counts[key] = counts.get(key, 0) + 1
        hottest = max(counts, key=counts.get)
        assert hottest > 100  # would be ~0 without scrambling

    def test_fnv_hash_is_stable(self):
        assert fnv1a_64(0) == fnv1a_64(0)
        assert fnv1a_64(1) != fnv1a_64(2)


class TestWorkloadSpec:
    def test_paper_workloads_defined(self):
        assert WORKLOADS["A"].read_fraction == 0.50
        assert WORKLOADS["B"].read_fraction == 0.95
        assert WORKLOADS["W"].read_fraction == 0.05

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkloadSpec(name="bad", read_fraction=1.5)
        with pytest.raises(ValueError):
            WorkloadSpec(name="bad", read_fraction=0.5, key_space=0)

    def test_with_overrides(self):
        spec = WORKLOADS["A"].with_overrides(zipf_theta=0.5)
        assert spec.zipf_theta == 0.5
        assert spec.read_fraction == 0.50


class TestRequestStream:
    def test_read_fraction_respected(self):
        stream = RequestStream(WORKLOADS["B"], SeededStream(8))
        ops = [stream.next_request()[0] for _ in range(5000)]
        read_fraction = ops.count("read") / len(ops)
        assert abs(read_fraction - 0.95) < 0.02

    def test_write_values_unique(self):
        stream = RequestStream(WORKLOADS["W"], SeededStream(8))
        values = [value for op, _key, value in
                  (stream.next_request() for _ in range(200))
                  if op == "write"]
        assert len(values) == len(set(values))


@given(theta=st.floats(min_value=0.1, max_value=0.99),
       n=st.integers(min_value=2, max_value=2000))
@settings(max_examples=30, deadline=None)
def test_zipf_draws_always_valid(theta, n):
    gen = ZipfianGenerator(n, theta=theta, rng=SeededStream(0))
    for _ in range(50):
        key = gen.next()
        assert 0 <= key < n


# ---------------------------------------------------------------------------
# Block draws against the per-call implementations they replaced.  The
# references below are the d68d711 code, kept here because it is the
# definition of "the same stream": one RNG draw per call, in call order.
# ---------------------------------------------------------------------------

def _reference_fnv1a_64(value):
    data = value & 0xFFFFFFFFFFFFFFFF
    result = 0xCBF29CE484222325
    for _ in range(8):
        octet = data & 0xFF
        data >>= 8
        result ^= octet
        result = (result * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return result


def _reference_zipf_next(gen):
    """``ZipfianGenerator.next()``, one call per rank (the zeta/eta
    set-up is unchanged and read off the generator)."""
    u = gen.rng.random()
    uz = u * gen._zeta_n
    if uz < 1.0:
        rank = 0
    elif uz < 1.0 + 0.5 ** gen.theta:
        rank = 1
    else:
        rank = int(gen.item_count
                   * ((gen._eta * u - gen._eta + 1.0) ** gen._alpha))
    return min(rank, gen.item_count - 1)


def _reference_next(gen):
    if isinstance(gen, ScrambledZipfianGenerator):
        return (_reference_fnv1a_64(_reference_zipf_next(gen._zipf))
                % gen.item_count)
    return _reference_zipf_next(gen)


class _ReferenceStream:
    """``RequestStream`` drawing one key and one op kind per call."""

    def __init__(self, spec, rng):
        self.spec = spec
        self._op_rng = rng.fork("ops")
        self._keys = ScrambledZipfianGenerator(
            spec.key_space, spec.zipf_theta, rng.fork("keys"))
        self._value_counter = 0

    def next_request(self):
        key = _reference_next(self._keys)
        if self._op_rng.random() < self.spec.read_fraction:
            return ("read", key, None)
        self._value_counter += 1
        return ("write", key, self._value_counter)


def _make_generator(kind, item_count, theta, seed):
    cls = ZipfianGenerator if kind == "zipfian" else ScrambledZipfianGenerator
    return cls(item_count, theta, SeededStream(seed))


_ITEM_COUNTS = st.one_of(st.sampled_from([1, 2, 3]),
                         st.integers(min_value=1, max_value=5000))
_THETAS = st.floats(min_value=0.01, max_value=0.99)


@given(value=st.integers(min_value=-(1 << 70), max_value=1 << 70))
def test_fnv1a_64_equals_the_eight_round_reference(value):
    assert fnv1a_64(value) == _reference_fnv1a_64(value)


@given(kind=st.sampled_from(["zipfian", "scrambled"]),
       item_count=_ITEM_COUNTS, theta=_THETAS,
       seed=st.integers(min_value=0, max_value=2 ** 63),
       splits=st.lists(st.integers(min_value=0, max_value=70), max_size=8))
@settings(max_examples=150, deadline=None)
def test_next_block_equals_repeated_next(kind, item_count, theta, seed, splits):
    """However the draws are split into blocks (empty ones and single
    ``next()`` calls included), the keys are the per-call sequence."""
    blocked = _make_generator(kind, item_count, theta, seed)
    reference = _make_generator(kind, item_count, theta, seed)
    drawn = []
    for count in splits:
        block = blocked.next_block(count)
        assert len(block) == count
        drawn.extend(block)
        drawn.append(blocked.next())
    assert drawn == [_reference_next(reference) for _ in drawn]
    assert all(0 <= key < item_count for key in drawn)


@given(seed=st.integers(min_value=0, max_value=2 ** 63),
       read_fraction=st.sampled_from([0.0, 0.05, 0.5, 0.95, 1.0]),
       key_space=st.sampled_from([1, 2, 3, 100, 10_000]),
       schedule=st.lists(st.booleans(), max_size=150))
@settings(max_examples=60, deadline=None)
def test_interleaved_streams_return_the_reference_sequences(
        seed, read_fraction, key_space, schedule):
    """Two clients' streams forked from one root, read in an arbitrary
    interleaving: drawing ahead in one never moves the other, and write
    values are numbered in stream order."""
    spec = WorkloadSpec(name="x", read_fraction=read_fraction,
                        key_space=key_space)
    root, reference_root = SeededStream(seed), SeededStream(seed)
    streams = [RequestStream(spec, root.fork(f"client{i}")) for i in (0, 1)]
    references = [_ReferenceStream(spec, reference_root.fork(f"client{i}"))
                  for i in (0, 1)]
    got = ([], [])
    for which in schedule:
        got[which].append(streams[which].next_request())
    # Past the fourth refill of each (blocks of 4, 8, 16, 32, then 64).
    for which in (0, 1):
        while len(got[which]) <= 4 + 8 + 16 + 32:
            got[which].append(streams[which].next_request())
    for which in (0, 1):
        assert got[which] == [references[which].next_request()
                              for _ in got[which]]


def test_nothing_is_drawn_before_the_first_request():
    rng = SeededStream(11)
    before = (rng.fork("ops").getstate(), rng.fork("keys").getstate())
    stream = RequestStream(WORKLOADS["A"], rng)
    assert (stream._op_rng.getstate(), stream._keys._zipf.rng.getstate()) \
        == before


@pytest.mark.parametrize("workload,digest", [
    ("A", "e17dd4db34aade668b3901aead2d15c97cccbafad3d8322d8dfc7ee67d20709e"),
    ("B", "7e43f9efe9ed4d53489529bad6323158ec6c19c3dcf057911d611134228504db"),
    ("W", "9280401bbdf150182f6e43a939347a621f10b885e2daae41e47c9fe2e5a18828"),
])
def test_cluster_request_streams_are_pinned(workload, digest):
    """The first 64 requests of clients 0 and 57 of a seed-2021 cluster
    (equal at d68d711): a change to draw order fails here, under its own
    name, before it shows up as 25 unexplained golden digests."""
    cluster = Cluster(DdpModel(Consistency.CAUSAL, Persistency.EVENTUAL),
                      config=ClusterConfig(seed=2021),
                      workload=WORKLOADS[workload])
    requests = [[cluster.clients[client].stream.next_request()
                 for _ in range(64)] for client in (0, 57)]
    assert hashlib.sha256(repr(requests).encode()).hexdigest() == digest
