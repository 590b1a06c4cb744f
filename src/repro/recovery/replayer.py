"""Simulating the recovery process itself (paper Section 9).

"Irrespective of the DDP model, a recovery algorithm is invoked on a
crash.  The complexity of the recovery is higher in the weaker models
than in the stricter ones" — strict models leave every node with the
same persistent view (one scan, no reconciliation), while weak models
diverge and may need a voting round.

:class:`RecoveryReplayer` measures that cost in simulated time:

1. **Scan** — each node reads every durable entry from its NVM
   (140 ns reads, queued at the real banked device, so large images and
   few banks genuinely take longer).
2. **Digest exchange** — nodes exchange per-key version digests
   (one broadcast round; bytes proportional to the image size).
3. **Resolution** — divergent keys need value shipping: one message per
   divergent key; the voting strategy adds a second full round.

The recovered state itself comes from :mod:`repro.recovery.recovery`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

from repro.core.messages import CAUHIST_ENTRY_BYTES, VALUE_BYTES
from repro.recovery.recovery import (
    RecoveredState,
    recover_latest,
    recover_majority,
    recovery_divergence,
)

__all__ = ["RecoveryReport", "RecoveryReplayer"]

DIGEST_ENTRY_BYTES = CAUHIST_ENTRY_BYTES


@dataclass(frozen=True)
class RecoveryReport:
    """Timing and outcome of one simulated recovery."""

    strategy: str
    scan_ns: float
    reconcile_ns: float
    divergent_keys: int
    total_keys: int
    state: RecoveredState

    @property
    def total_ns(self) -> float:
        return self.scan_ns + self.reconcile_ns

    @property
    def divergence_fraction(self) -> float:
        return self.divergent_keys / max(self.total_keys, 1)


class RecoveryReplayer:
    """Replays recovery on a crashed cluster, in simulated time."""

    def __init__(self, cluster):
        self.cluster = cluster

    # -- phase 1: NVM scans ------------------------------------------------------

    def _scan_node(self, node) -> Generator:
        log = self.cluster.nvm_log
        for key in log.durable_keys(node.node_id):
            yield from node.memory.nvm_read(key)

    def _run_scans(self) -> float:
        sim = self.cluster.sim
        start = sim.now
        scans = [sim.process(self._scan_node(node), name=f"recover{node.node_id}")
                 for node in self.cluster.nodes]
        sim.run_until_complete(sim.all_of(scans))
        return sim.now - start

    # -- phase 2/3: reconciliation ---------------------------------------------------

    def _reconcile_ns(self, divergent: int, total: int, rounds: int) -> float:
        network = self.cluster.network.config
        digest_bytes = total * DIGEST_ENTRY_BYTES
        serialization = digest_bytes / network.bandwidth_bytes_per_ns
        per_round = network.round_trip_ns + serialization
        resolution = divergent * (VALUE_BYTES / network.bandwidth_bytes_per_ns)
        return rounds * per_round + resolution

    # -- entry point ----------------------------------------------------------------------

    def simulate(self, strategy: str = "latest") -> RecoveryReport:
        """Run recovery on the (crashed) cluster; advances simulated time
        by the scan duration and returns the full report."""
        sim = self.cluster.sim
        tracer = getattr(self.cluster, "tracer", None)
        tracing = tracer is not None and tracer.enabled
        node_ids = [node.node_id for node in self.cluster.nodes]
        log = self.cluster.nvm_log

        scan_ns = self._run_scans()
        if tracing:
            tracer.emit(sim.now, "recovery_scan", dur=scan_ns,
                        nodes=len(node_ids))

        divergence = recovery_divergence(log, node_ids)
        divergent = sum(1 for count in divergence.values() if count > 1)
        total = len(log.all_keys())

        if strategy == "latest":
            state = recover_latest(log, node_ids, tracer=tracer, now=sim.now)
            rounds = 1
        elif strategy == "majority":
            state = recover_majority(log, node_ids, tracer=tracer,
                                     now=sim.now)
            rounds = 2  # vote collection + decision dissemination
        else:
            raise ValueError(f"unknown recovery strategy {strategy!r}")

        reconcile_ns = self._reconcile_ns(divergent, total, rounds)
        if tracing:
            # Reconciliation is modeled analytically, not stepped through
            # the kernel: place the span after the scan on the timeline.
            tracer.emit(sim.now + reconcile_ns, "recovery_reconcile",
                        dur=reconcile_ns, strategy=strategy,
                        divergent_keys=divergent, total_keys=total)
        return RecoveryReport(strategy=strategy, scan_ns=scan_ns,
                              reconcile_ns=reconcile_ns,
                              divergent_keys=divergent, total_keys=total,
                              state=state)
