"""Tests for the cache hierarchy and the per-node memory facade."""

import pytest

from repro.memory.cache import CacheHierarchy, CacheLevel, CacheTiming, Llc
from repro.memory.hierarchy import MemoryHierarchy
from repro.sim.engine import Simulator
from repro.sim.rng import SeededStream


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def rng():
    return SeededStream(1)


class TestCacheLevel:
    def test_hit_ratio_bounds(self, sim, rng):
        with pytest.raises(ValueError):
            CacheLevel(sim, CacheTiming(64, 8, 2), 1.5, rng, "bad")

    def test_hit_ratio_converges(self, sim, rng):
        level = CacheLevel(sim, CacheTiming(64, 8, 2), 0.8, rng, "l1")
        for _ in range(5000):
            level.lookup()
        ratio = level.hits / (level.hits + level.misses)
        assert abs(ratio - 0.8) < 0.03

    def test_round_trip_ns_from_cycles(self):
        timing = CacheTiming(size_bytes=64, ways=8, round_trip_cycles=38)
        assert timing.round_trip_ns == pytest.approx(19.0)  # 2 GHz clock


class TestLlc:
    def test_ddio_region_is_ten_percent(self, sim, rng):
        llc = Llc(sim, cores=20, rng=rng)
        assert llc.ddio_capacity == int(llc.timing.size_bytes * 0.10)

    def test_ddio_deposit_and_spill(self, sim, rng):
        llc = Llc(sim, cores=1, rng=rng)
        chunk = llc.ddio_capacity
        assert llc.ddio_deposit(chunk)          # fills the region
        assert not llc.ddio_deposit(1)          # spills
        assert llc.ddio_spills == 1

    def test_ddio_consume_frees_space(self, sim, rng):
        llc = Llc(sim, cores=1, rng=rng)
        llc.ddio_deposit(llc.ddio_capacity)
        llc.ddio_consume(llc.ddio_capacity)
        assert llc.ddio_used == 0
        assert llc.ddio_deposit(64)

    def test_consume_never_negative(self, sim, rng):
        llc = Llc(sim, cores=1, rng=rng)
        llc.ddio_consume(1000)
        assert llc.ddio_used == 0


class TestCacheHierarchy:
    def test_access_latency_levels(self, sim, rng):
        hierarchy = CacheHierarchy(sim, rng, cores=20)
        hierarchy.l1.hit_ratio = 1.0
        latency, needs_dram = hierarchy.access_latency()
        assert latency == pytest.approx(1.0)
        assert not needs_dram

    def test_full_miss_requests_dram(self, sim, rng):
        hierarchy = CacheHierarchy(sim, rng, cores=20)
        for level in (hierarchy.l1, hierarchy.l2, hierarchy.llc.level):
            level.hit_ratio = 0.0
        latency, needs_dram = hierarchy.access_latency()
        assert latency == pytest.approx(19.0)
        assert needs_dram


class TestMemoryHierarchy:
    def test_persist_uses_nvm(self, sim, rng):
        memory = MemoryHierarchy(sim, rng)

        def proc():
            yield from memory.persist(5)

        sim.process(proc())
        sim.run()
        assert memory.nvm.persists == 1
        assert sim.now == pytest.approx(400.0)

    def test_volatile_update_via_ddio(self, sim, rng):
        memory = MemoryHierarchy(sim, rng)

        def proc():
            yield from memory.volatile_update(5, 64, via_ddio=True)

        sim.process(proc())
        sim.run()
        assert memory.caches.llc.ddio_deposits == 1
        assert sim.now == pytest.approx(19.0)

    def test_consume_ddio(self, sim, rng):
        memory = MemoryHierarchy(sim, rng)

        def proc():
            yield from memory.volatile_update(5, 64, via_ddio=True)

        sim.process(proc())
        sim.run()
        memory.consume_ddio(64)
        assert memory.caches.llc.ddio_used == 0

    def test_nvm_pressure_reflects_outstanding(self, sim, rng):
        memory = MemoryHierarchy(sim, rng)

        def proc():
            yield from memory.persist(1)

        sim.process(proc())
        sim.process(proc())
        sim.run(until=10)
        assert memory.nvm_pressure == 2

    def test_nvm_read_for_recovery(self, sim, rng):
        memory = MemoryHierarchy(sim, rng)

        def proc():
            yield from memory.nvm_read(9)

        sim.process(proc())
        sim.run()
        assert memory.nvm.reads == 1
