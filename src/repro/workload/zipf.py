"""Zipfian key-choice generator, after the YCSB implementation.

Uses the Gray et al. "Quickly generating billion-record synthetic
databases" rejection-free method that YCSB uses: constant-time draws
after an O(n)-ish zeta precomputation.

Also provides the *scrambled* variant YCSB uses by default, which hashes
the rank so that popular keys are spread over the key space instead of
clustering at low ids.
"""

from __future__ import annotations

import functools
from typing import List, Optional

from repro.analysis.metrics import fold_sum
from repro.sim.rng import SeededStream

__all__ = ["ZipfianGenerator", "ScrambledZipfianGenerator", "fnv1a_64"]

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK_64 = 0xFFFFFFFFFFFFFFFF


def fnv1a_64(value: int) -> int:
    """64-bit FNV-1a hash of an integer (YCSB's scramble function)."""
    result = _FNV_OFFSET
    for octet in (value & _MASK_64).to_bytes(8, "little"):
        result = ((result ^ octet) * _FNV_PRIME) & _MASK_64
    return result


class ZipfianGenerator:
    """Zipf-distributed ranks in ``[0, item_count)``.

    ``theta`` is the skew (YCSB default 0.99; 0 = uniform-ish).
    """

    def __init__(self, item_count: int, theta: float = 0.99,
                 rng: SeededStream = None):
        if item_count < 1:
            raise ValueError(f"item_count must be >= 1, got {item_count}")
        if not 0.0 < theta < 1.0:
            raise ValueError(f"theta must be in (0, 1), got {theta}")
        self.item_count = item_count
        self.theta = theta
        self.rng = rng or SeededStream(0)
        # Asked for here, so the stream's generator is seeded in the build.
        self._random = self.rng.random
        self._zeta2 = self._zeta_static(2, theta)
        self._alpha = 1.0 / (1.0 - theta)
        self._zeta_n = self._zeta_static(item_count, theta)
        self._eta = self._compute_eta()

    @staticmethod
    @functools.lru_cache(maxsize=32)
    def _zeta_static(n: int, theta: float) -> float:
        # Pure in (n, theta), and every client of a cluster asks for the
        # same pair: one 10 000-term sum per process, not per client.
        # A fold: ``sum()`` rounds differently from CPython 3.12 on.
        return fold_sum(1.0 / (i ** theta) for i in range(1, n + 1))

    def _compute_eta(self) -> float:
        if self.item_count <= 2:
            # With <= 2 items, draws resolve in the closed-form branches
            # of next_rank and eta is never consulted meaningfully.
            return 0.0
        return ((1.0 - (2.0 / self.item_count) ** (1.0 - self.theta))
                / (1.0 - self._zeta2 / self._zeta_n))

    def next_block(self, count: int) -> List[int]:
        """Draw ``count`` ranks clamped to the item space; rank 0 is the
        most popular.  One ``u`` per rank, in order: a block is what
        ``count`` single draws would have returned."""
        random = self._random
        zeta_n, eta, alpha = self._zeta_n, self._eta, self._alpha
        second = 1.0 + 0.5 ** self.theta
        item_count = self.item_count
        last = item_count - 1
        ranks = []
        for _ in range(count):
            u = random()
            uz = u * zeta_n
            if uz < 1.0:
                rank = 0
            elif uz < second:
                rank = 1
            else:
                rank = int(item_count * ((eta * u - eta + 1.0) ** alpha))
            ranks.append(rank if rank < last else last)
        return ranks

    def next(self) -> int:
        return self.next_block(1)[0]


@functools.lru_cache(maxsize=4)
def _scramble_memo(item_count: int) -> List[Optional[int]]:
    """The rank -> key table of one key space: one slot per rank, None
    until the rank is first drawn, so a draw indexes it by rank.

    The scramble is pure in ``(rank, item_count)`` and costs more than
    the draw it follows, and every client of a cluster draws over the
    same key space with the same few hot ranks: they share one table,
    8 bytes per key of the space (80 KB at 10 000 keys).  A table
    evicted here lives on only in the generators already holding it.
    """
    return [None] * item_count


class ScrambledZipfianGenerator:
    """Zipfian ranks scrambled over the key space (YCSB default)."""

    def __init__(self, item_count: int, theta: float = 0.99,
                 rng: SeededStream = None):
        self._zipf = ZipfianGenerator(item_count, theta, rng)
        self.item_count = item_count
        self._scrambled = _scramble_memo(item_count)

    def next_block(self, count: int) -> List[int]:
        item_count, scrambled = self.item_count, self._scrambled
        ranks = self._zipf.next_block(count)
        for rank in ranks:
            if scrambled[rank] is None:
                scrambled[rank] = fnv1a_64(rank) % item_count
        return [scrambled[rank] for rank in ranks]

    def next(self) -> int:
        return self.next_block(1)[0]

