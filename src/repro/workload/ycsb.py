"""YCSB-style workload definitions (paper Section 7).

The paper evaluates with YCSB workload A (50% reads / 50% writes),
workload B (95% reads / 5% writes), and a custom write-heavy
"workload W" (5% reads / 95% writes), all over zipfian key choice.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.rng import SeededStream
from repro.workload.zipf import ScrambledZipfianGenerator

__all__ = ["WorkloadSpec", "WORKLOADS", "RequestStream"]


@dataclass(frozen=True)
class WorkloadSpec:
    """A read/write mix over a key space."""

    name: str
    read_fraction: float
    key_space: int = 10_000
    zipf_theta: float = 0.99

    def __post_init__(self):
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ValueError(f"read_fraction out of range: {self.read_fraction}")
        if self.key_space < 1:
            raise ValueError(f"key_space must be >= 1: {self.key_space}")

    def with_overrides(self, **changes) -> WorkloadSpec:
        """A copy with some fields replaced (for sensitivity sweeps)."""
        import dataclasses
        return dataclasses.replace(self, **changes)


WORKLOADS = {
    # The paper's three mixes (Figure 9).
    "A": WorkloadSpec(name="A", read_fraction=0.50),
    "B": WorkloadSpec(name="B", read_fraction=0.95),
    "W": WorkloadSpec(name="W", read_fraction=0.05),
    # Classic YCSB C (read-only) for completeness.
    "C": WorkloadSpec(name="C", read_fraction=1.00),
}


#: Block sizes of a stream's draw-ahead: the first block, doubling to the
#: cap.  A run's clients complete from ~10 to a few hundred requests
#: each, so doubling keeps what a short-lived client overdraws to about
#: what it consumed, and the cap bounds what a long-lived one holds.
_FIRST_BLOCK = 4
_BLOCK_CAP = 64


class RequestStream:
    """Deterministic per-client stream of (op, key) requests.

    Keys and op kinds are drawn a block ahead; each request is still
    put together when it is handed out, so write values are numbered in
    stream order and a request tuple lives no longer than the request.
    Drawing ahead is exact, not approximate: the stream is the only
    consumer of its two forks (``"ops"``, ``"keys"``), so drawing early
    moves no other stream's values.  Blocks start at 4 requests and
    double to a cap of 64; nothing is drawn until the first request is
    asked for.
    """

    def __init__(self, spec: WorkloadSpec, rng: SeededStream):
        self.spec = spec
        self._op_rng = rng.fork("ops")
        # Asked for here, so the stream's generator is seeded in the build.
        self._op_random = self._op_rng.random
        self._keys = ScrambledZipfianGenerator(spec.key_space, spec.zipf_theta,
                                               rng.fork("keys"))
        self._value_counter = 0
        # Drawn ahead, handed out from the end (``list.pop()`` is the
        # cheap one): the keys, and beside each whether it is a read.
        self._keys_ahead: list = []
        self._reads_ahead: list = []
        self._block_size = _FIRST_BLOCK

    def _refill(self) -> None:
        size = self._block_size
        self._block_size = min(size * 2, _BLOCK_CAP)
        random, read_fraction = self._op_random, self.spec.read_fraction
        self._keys_ahead = self._keys.next_block(size)
        self._keys_ahead.reverse()
        self._reads_ahead = [random() < read_fraction for _ in range(size)]
        self._reads_ahead.reverse()

    def next_request(self):
        """Return ("read", key, None) or ("write", key, value)."""
        if not self._keys_ahead:
            self._refill()
        key = self._keys_ahead.pop()
        if self._reads_ahead.pop():
            return ("read", key, None)
        self._value_counter += 1
        return ("write", key, self._value_counter)
