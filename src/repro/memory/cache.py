"""Cache hierarchy model: L1/L2 private caches and a shared LLC with DDIO.

The paper's servers (Table 5) have per-core L1 (2-cycle RT) and L2
(12-cycle RT) caches and a shared LLC (38-cycle RT) of which 10% is
reserved for Data Direct I/O (DDIO) so the NIC can deposit incoming
replica updates directly into the LLC without a memory round trip.

We model caches at *timing* granularity, not content granularity: the
key-value payloads live in the stores (:mod:`repro.store`); the cache
model answers "how long does this access take and does DDIO have room".
Each level hits with a fixed ratio, drawn per access.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

from repro.sim.engine import Simulator
from repro.sim.rng import SeededStream

__all__ = ["CacheTiming", "CacheLevel", "Llc", "CacheHierarchy"]

CYCLE_NS = 0.5
"""Nanoseconds per cycle at the paper's 2 GHz clock."""


@dataclass(frozen=True)
class CacheTiming:
    """Size/latency of one cache level (Table 5)."""

    size_bytes: int
    ways: int
    round_trip_cycles: int

    @property
    def round_trip_ns(self) -> float:
        return self.round_trip_cycles * CYCLE_NS


L1_TIMING = CacheTiming(size_bytes=64 * 1024, ways=8, round_trip_cycles=2)
L2_TIMING = CacheTiming(size_bytes=512 * 1024, ways=8, round_trip_cycles=12)
LLC_TIMING_PER_CORE = CacheTiming(size_bytes=2 * 1024 * 1024, ways=16,
                                  round_trip_cycles=38)

L1_HIT = 0.90
L2_HIT = 0.70
LLC_HIT = 0.85
DDIO_FRACTION = 0.10
"""Share of the LLC reserved for DDIO deposits."""


class CacheLevel:
    """One cache level with a fixed hit ratio drawn per access."""

    def __init__(self, sim: Simulator, timing: CacheTiming, hit_ratio: float,
                 rng: SeededStream, name: str):
        if not 0.0 <= hit_ratio <= 1.0:
            raise ValueError(f"hit ratio out of range: {hit_ratio}")
        self.sim = sim
        self.timing = timing
        # Read on every access: a plain attribute, as on ``Llc``.
        self.round_trip_ns = timing.round_trip_ns
        self.hit_ratio = hit_ratio
        # Asked for here, so the stream's generator is seeded in the build.
        self._random = rng.random
        self.name = name
        self.hits = 0
        self.misses = 0

    def lookup(self) -> bool:
        """Draw a hit/miss for one access and record it."""
        hit = self._random() < self.hit_ratio
        if hit:
            self.hits += 1
        else:
            self.misses += 1
        return hit


class Llc:
    """Shared last-level cache with a DDIO region.

    The DDIO region is a byte budget (:data:`DDIO_FRACTION` of the LLC).
    The NIC deposits incoming updates here; if the region is full the
    deposit spills to DRAM, costing a memory access instead of an LLC
    access.  Entries are freed when the protocol engine consumes the
    update.
    """

    def __init__(self, sim: Simulator, cores: int, rng: SeededStream):
        self.sim = sim
        total = LLC_TIMING_PER_CORE.size_bytes * cores
        self.timing = CacheTiming(size_bytes=total, ways=LLC_TIMING_PER_CORE.ways,
                                  round_trip_cycles=LLC_TIMING_PER_CORE.round_trip_cycles)
        self.level = CacheLevel(sim, self.timing, LLC_HIT, rng, "llc")
        # Read on every DDIO deposit: a plain attribute, not a property
        # chain (the timing is frozen).
        self.round_trip_ns = self.timing.round_trip_ns
        self.ddio_capacity = int(total * DDIO_FRACTION)
        self.ddio_used = 0
        self.ddio_deposits = 0
        self.ddio_spills = 0

    def ddio_deposit(self, size_bytes: int) -> bool:
        """Try to place an incoming NIC payload into the DDIO region.

        Returns True on success; False means the payload spilled to DRAM
        and the caller should charge a DRAM access.
        """
        self.ddio_deposits += 1
        if self.ddio_used + size_bytes <= self.ddio_capacity:
            self.ddio_used += size_bytes
            return True
        self.ddio_spills += 1
        return False

    def ddio_consume(self, size_bytes: int) -> None:
        """Free DDIO space after the protocol engine ingests an update."""
        used = self.ddio_used - size_bytes
        self.ddio_used = used if used > 0 else 0


class CacheHierarchy:
    """Private L1/L2 plus the shared LLC, as a timing oracle.

    ``access_ns`` walks the hierarchy: L1 hit -> 1 ns; else L2 hit ->
    6 ns; else LLC hit -> 19 ns; else a DRAM access is required and the
    caller is told so (the node model then charges the DRAM device).
    """

    def __init__(self, sim: Simulator, rng: SeededStream, cores: int):
        self.sim = sim
        self.l1 = CacheLevel(sim, L1_TIMING, L1_HIT, rng.fork("l1"), "l1")
        self.l2 = CacheLevel(sim, L2_TIMING, L2_HIT, rng.fork("l2"), "l2")
        self.llc = Llc(sim, cores, rng.fork("llc"))

    def access_latency(self) -> tuple:
        """Return ``(latency_ns, needs_dram)`` for one data access."""
        if self.l1.lookup():
            return (self.l1.round_trip_ns, False)
        if self.l2.lookup():
            return (self.l2.round_trip_ns, False)
        if self.llc.level.lookup():
            return (self.llc.round_trip_ns, False)
        return (self.llc.round_trip_ns, True)

    def access(self, dram) -> Generator:
        """Process: one hierarchy access, charging DRAM on a full miss."""
        latency, needs_dram = self.access_latency()
        yield latency
        if needs_dram:
            yield from dram.read(0)
