"""Deterministic random-number utilities.

Every stochastic component (workload generators, service-time jitter,
crash injection) draws from a :class:`SeededStream` forked from a single
root seed, so whole-cluster simulations are reproducible bit-for-bit and
independent components do not perturb each other's streams.  A stream
is its seed: a fork hashes its parent's seed with the child's name.

A stream builds its :class:`random.Random` only when a draw method is
first asked for: a stream that is only forked from (a cluster's root, a
node's memory, a client's) never seeds a Mersenne Twister.  Consumers
ask for their draw method when they are built, so the generators a run
draws from are still seeded in the build, not in the run.
"""

from __future__ import annotations

import functools
import hashlib
import random

__all__ = ["SeededStream"]

#: The generator's methods a stream hands out as its own: the draws,
#: plus the state calls that read and rewind them.
_DRAWS = frozenset({"random", "randint", "choice", "shuffle", "expovariate",
                    "uniform", "gauss", "sample", "getstate", "setstate"})


@functools.lru_cache(maxsize=2048, typed=True)
def _child_seed(seed: int, name: str) -> int:
    # Built-in hash() is salted per process (PYTHONHASHSEED), which
    # would make same-seed runs differ between invocations; a real
    # hash keeps forked seeds identical everywhere.  Pure in its
    # arguments, so a sweep that builds the same seed's streams once
    # per cell hashes each (seed, name) once per process.
    digest = hashlib.blake2b(f"{seed}\x00{name}".encode(),
                             digest_size=8).digest()
    return int.from_bytes(digest, "big") & 0x7FFFFFFFFFFFFFFF


class SeededStream:
    """A forkable wrapper around :class:`random.Random`, held as its seed.

    Forking derives a child stream whose seed is a stable hash of the
    parent seed and the child name, so adding a new consumer does not
    shift the draws seen by existing consumers.  ``name`` labels a root
    stream; no seed depends on it, so it is not kept.

    The draw methods (``random``, ``randint``, ``choice``, ``shuffle``,
    ``expovariate``, ``uniform``, ``gauss``, ``sample``) and the state
    calls (``getstate``, ``setstate``) are the generator's own bound
    methods, set per instance the first time each is asked for: the hot
    draw (zipf rank, op kind, one per cache level) pays no pass-through
    frame.  The first of them asked for also builds the generator
    (``_random``); ``setstate`` rewinds it in place, so every binding
    survives it.
    """

    def __init__(self, seed: int, name: str = ""):
        self.seed = seed

    def __getattr__(self, attr: str):
        # Reached only for what the instance does not hold yet: the
        # generator, or a draw method not asked for before.
        if attr != "_random" and attr not in _DRAWS:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {attr!r}")
        generator = self.__dict__.get("_random")
        if generator is None:
            generator = self._random = random.Random(self.seed)
        if attr == "_random":
            return generator
        method = getattr(generator, attr)
        setattr(self, attr, method)
        return method

    def fork(self, name: str) -> SeededStream:
        """Derive an independent child stream keyed by ``name``."""
        return SeededStream(_child_seed(self.seed, name))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SeededStream(seed={self.seed})"
