"""Deterministic random-number utilities.

Every stochastic component (workload generators, service-time jitter,
crash injection) draws from a :class:`SeededStream` forked from a single
root seed, so whole-cluster simulations are reproducible bit-for-bit and
independent components do not perturb each other's streams.
"""

from __future__ import annotations

import hashlib
import random

__all__ = ["SeededStream"]


class SeededStream:
    """A named, forkable wrapper around :class:`random.Random`.

    Forking derives a child stream whose seed is a stable hash of the
    parent seed and the child name, so adding a new consumer does not
    shift the draws seen by existing consumers.

    ``random`` is the generator's own bound method, set per instance:
    the hot draw (zipf rank, op kind, one per cache level) pays no
    pass-through frame.  ``setstate`` rewinds that same generator in
    place, so the binding survives it.
    """

    def __init__(self, seed: int, name: str = "root"):
        self.seed = seed
        self.name = name
        self._random = random.Random(seed)
        self.random = self._random.random

    def fork(self, name: str) -> SeededStream:
        """Derive an independent child stream keyed by ``name``."""
        # Built-in hash() is salted per process (PYTHONHASHSEED), which
        # would make same-seed runs differ between invocations; a real
        # hash keeps forked seeds identical everywhere.
        digest = hashlib.blake2b(f"{self.seed}\x00{name}".encode(),
                                 digest_size=8).digest()
        child_seed = int.from_bytes(digest, "big") & 0x7FFFFFFFFFFFFFFF
        return SeededStream(child_seed, f"{self.name}/{name}")

    # Thin pass-throughs (explicit, so the public surface is visible).

    def randint(self, low: int, high: int) -> int:
        return self._random.randint(low, high)

    def choice(self, seq):
        return self._random.choice(seq)

    def shuffle(self, seq) -> None:
        self._random.shuffle(seq)

    def expovariate(self, rate: float) -> float:
        return self._random.expovariate(rate)

    def uniform(self, low: float, high: float) -> float:
        return self._random.uniform(low, high)

    def gauss(self, mu: float, sigma: float) -> float:
        return self._random.gauss(mu, sigma)

    def sample(self, population, k: int):
        return self._random.sample(population, k)

    def getstate(self):
        return self._random.getstate()

    def setstate(self, state) -> None:
        self._random.setstate(state)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SeededStream(name={self.name!r}, seed={self.seed})"
