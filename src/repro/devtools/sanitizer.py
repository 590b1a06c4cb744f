"""Dynamic tie-batch sanitizer: does same-timestamp delivery order leak
into protocol state?

The protocols rest on per-key logical timestamps with last-writer-wins,
so message handlers that run at the same simulated instant on different
nodes should commute.  This module checks that on real runs: a
:class:`TieBatchSanitizer` is an :class:`~repro.sim.engine.Instrument`
(it shares the kernel's one ``sim.instrument`` slot with
``KernelProfile``; off-path free) and observes every *tie batch*, the
set of heap entries due at one identical timestamp.  In sanitizing mode
it deterministically permutes each batch's processing order with a
:class:`~repro.sim.rng.SeededStream` (Fisher–Yates), and :func:`sweep`
asserts that the final protocol-state digest is byte-identical to the
unpermuted baseline for every DDP model.  What it is shown to catch — a
cross-node shared global — and what the goldens catch instead is
measured in ``tests/integration/test_order_mutants.py``.

Re-keying, not a second loop
----------------------------
The kernel has one run loop and the sanitizer does not replace it.  Its
``before_pop(heap)`` hook fires before every pop; when the head's
``(when, sequence)`` lies past the last batch seen, it pops every entry
tied at that timestamp (runs taken apart into their calls), lets
:meth:`~TieBatchSanitizer.observe` record and permute them, and pushes
them back under the *same sorted sequence numbers*, dealt out in the
permuted order, for the ordinary loop to pop.
Entries scheduled while the batch runs carry larger sequence numbers
and form the next batch, as they would pop later on a bare run.  The
heap thus stays authoritative for ``until``, ``queue_depth`` and
``step()``, and an event failing mid-batch leaves the rest queued.
This hook is the one place outside ``sim/engine.py`` that knows the
queue is a binary heap of ``(when, sequence, entry)`` tuples — the
contract a replacement queue must honour: stable among equal
timestamps, push with an explicit sequence key, and an entry that is a
list is a run of calls whose member *i* stands for
``(when, sequence + i, [member])``.

What gets permuted — and what must stay seq-stable
--------------------------------------------------
Only ``msg_delivery`` entries are reordered (among the positions they
occupy in the batch); other event kinds keep their insertion-sequence
order.  A delivery is a network *landing* — a call ``Network.send``
schedules, of a function labelled ``msg_delivery``
(:func:`~repro.sim.engine.entry_kind`) whose arguments lead with the
message and its destination NIC — or, for code that reads a NIC inbox,
the ``Nic.receive()`` event.  Delivery order *is* handler co-scheduling
order, the dimension last-writer-wins makes free.  The remaining kinds —
process continuations, timeouts inside memory accesses, resource
grants — encode *intra*-handler progress, and their relative order
decides FIFO admission at shared timing resources (NVM bank queues,
DDIO capacity): reordering those legitimately swaps per-op latencies
and cascades through the closed-loop clients into genuinely different
(all individually valid) trajectories.  Hence what a replacement event
queue must honour: it may break delivery ties between *different nodes*
freely but MUST preserve insertion order among equal-timestamp
continuations (i.e. be a *stable* priority queue).

Landings tied at one *destination* are schedule state too: their order
is FIFO admission at the node's protocol workers and, through the
handlers, at its memory.  So a tie is permuted the way one
dispatcher per node used to take it — in *waves*: every node's first
simultaneous arrival in shuffled node order, then every node's second,
and so on; a node's own arrivals never trade places.  Wider scopes were
tried and are not certificates but noise: shuffling one node's
arrivals, or interleaving nodes freely across waves, flips which of two
lock-stepped coordinators broadcasts first, hence the arrival order of
their INVs at a third node, hence the NVM-bank queue there — a
different valid trajectory (``<Transactional, Strict>`` takes one on
half of all seeds), not a protocol-state divergence.

The sweep runs fixed work, not fixed duration: every client carries a
request budget (``Client.max_requests``) and the cluster drains to
quiescence, so all runs execute the identical operation multiset and
a cut-off cannot catch in-flight tails mid-persist.

What the digest covers — and what it deliberately does not
----------------------------------------------------------
:func:`cluster_digest` hashes the *converged protocol state*: per-key
applied / locally-persisted / cluster-persisted versions and values at
every node, the KV-store contents backing reads, and the durable-log
replay state.  Wall-clock-shaped outputs (the drain completion time,
per-op latency attribution, peak queue depths) may legitimately differ
between permutations and are excluded; the handbook chapter spells out
this contract.

Each batch also records which message types tied together, so a
divergence is reported with the pairs the diverging run observed.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.sim.engine import Instrument, entry_kind
from repro.sim.rng import SeededStream

__all__ = [
    "TieBatchSanitizer",
    "SweepResult",
    "CellResult",
    "cluster_digest",
    "sweep",
]


class TieBatchSanitizer(Instrument):
    """Observe (and optionally permute) same-timestamp pop batches.

    ``seed=None`` is *record* mode: batches are observed, order is
    untouched, and the run is byte-identical to a plain one.  With a
    seed, the ``msg_delivery`` entries of every batch are shuffled in
    place among the positions they occupy (Fisher–Yates over the
    delivery sub-sequence), exploring one alternative handler
    co-scheduling order per seed.  Non-delivery entries never move:
    their seq order is the stable-queue invariant, not a freedom (see
    the module docstring).
    """

    def __init__(self, seed: Optional[int] = None):
        self.seed = seed
        self._rng = (SeededStream(seed, "tie-sanitizer")
                     if seed is not None else None)
        self.batches = 0
        """Tie batches observed (size >= 2)."""
        self.events_tied = 0
        self.max_batch = 0
        self.permuted = 0
        """Batches whose order actually changed."""
        self.pair_counts: Dict[Tuple[str, str], int] = {}
        """Sorted (label, label) -> co-occurrence count.  Labels are
        message-type names for deliveries, event kinds otherwise."""
        self._batch_end: Tuple[float, int] = (-1.0, -1)
        """``(when, sequence)`` of the last entry of the last batch seen."""

    def before_pop(self, heap: List[tuple]) -> None:
        """At the head of a new tie batch, observe it and re-key it on
        the heap in the observed order (see the module docstring)."""
        if heap[0][:2] <= self._batch_end:
            return  # still inside the batch already observed
        when = heap[0][0]
        batch = []
        while heap and heap[0][0] == when:
            _when, sequence, entry = heapq.heappop(heap)
            if entry.__class__ is list:  # a run: its calls tie one by one
                batch.extend((when, sequence + i, [call])
                             for i, call in enumerate(entry))
            else:
                batch.append((when, sequence, entry))
        sequences = [entry[1] for entry in batch]
        self._batch_end = (when, sequences[-1])
        if len(batch) > 1:
            self.observe(when, batch)
        for sequence, entry in zip(sequences, batch):
            heapq.heappush(heap, (when, sequence, entry[2]))

    @staticmethod
    def _landing(event) -> tuple:
        """``(message, destination)`` of a ``msg_delivery`` entry.

        A network landing (a run of one call,
        ``Network._land(message, dst_nic, ...)``) names both; an inbox
        ``Nic.receive()`` event carries the message as its value and is
        its own destination (a reader has one ``get`` pending at a time).
        """
        if event.__class__ is list:
            args = event[0][1]
            return args[0], args[1]
        return event._value, event

    @classmethod
    def _label(cls, event) -> str:
        kind = entry_kind(event)
        if kind == "msg_delivery":
            msg_type = getattr(cls._landing(event)[0], "msg_type", None)
            if msg_type is not None:
                return msg_type.name
        return f"kind:{kind}"

    def observe(self, when: float, batch: List[tuple]) -> None:
        """Record one tie batch; permute it in place when sanitizing."""
        self.batches += 1
        self.events_tied += len(batch)
        if len(batch) > self.max_batch:
            self.max_batch = len(batch)
        labels = sorted(self._label(entry[2]) for entry in batch)
        for a, b in itertools.combinations_with_replacement(
                sorted(set(labels)), 2):
            if a == b and labels.count(a) < 2:
                continue
            key = (a, b)
            self.pair_counts[key] = self.pair_counts.get(key, 0) + 1
        if self._rng is None:
            return
        slots = [i for i, (_when, _seq, event) in enumerate(batch)
                 if entry_kind(event) == "msg_delivery"]
        if len(slots) < 2:
            return
        before = [batch[i] for i in slots]
        # Wave by wave, as one dispatcher per node used to take a tie:
        # every node's first simultaneous arrival (in shuffled node
        # order), then every node's second, ...  A node's own arrivals
        # thus keep their insertion order — its FIFO, not a freedom.
        # (id() is a safe key here: ``batch`` keeps every destination
        # alive for as long as ``arrived`` exists.)
        waves: List[List[tuple]] = []
        arrived: Dict[int, int] = {}
        for entry in before:
            destination = id(self._landing(entry[2])[1])
            rank = arrived.get(destination, 0)
            arrived[destination] = rank + 1
            if rank == len(waves):
                waves.append([])
            waves[rank].append(entry)
        deliveries: List[tuple] = []
        for wave in waves:
            self._rng.shuffle(wave)
            deliveries.extend(wave)
        for slot, entry in zip(slots, deliveries):
            batch[slot] = entry
        if deliveries != before:
            self.permuted += 1

    def observed_pairs(self) -> List[Tuple[str, str]]:
        return sorted(self.pair_counts)


def cluster_digest(cluster) -> str:
    """Blake2b over the cluster's converged protocol state (hex)."""
    h = hashlib.blake2b(digest_size=16)

    def feed(*parts) -> None:
        for part in parts:
            h.update(repr(part).encode())
            h.update(b"\x1f")

    # Deliberately no sim.now: drain completion time is wall-clock-
    # shaped (queue admission order), not protocol state.
    for engine in cluster.engines:
        feed("node", engine.node_id, getattr(engine, "_alive", True))
        for key in sorted(engine.replicas.keys()):
            replica = engine.replicas.get(key)
            feed(key, replica.applied_version, replica.applied_value,
                 replica.persisted_version, replica.persisted_value,
                 replica.cluster_persisted_version)
            if engine.store is not None:
                feed(engine.store.get(key))
    log = getattr(cluster, "nvm_log", None)
    if log is not None:
        for node_id in range(cluster.config.servers):
            for key in sorted(log.durable_keys(node_id)):
                entry = log.durable_entry(node_id, key)
                feed("log", node_id, key, entry.version, entry.value,
                     entry.scope_id)
    return h.hexdigest()


@dataclass
class CellResult:
    """One DDP model cell's sanitizer verdict."""

    model: str
    baseline_digest: str
    batches: int
    max_batch: int
    seeds: Dict[int, str] = field(default_factory=dict)
    """Permutation seed -> digest."""
    permuted: Dict[int, int] = field(default_factory=dict)
    observed_pairs: List[Tuple[str, str]] = field(default_factory=list)

    @property
    def diverged(self) -> List[int]:
        return sorted(seed for seed, digest in self.seeds.items()
                      if digest != self.baseline_digest)

    @property
    def vacuous(self) -> bool:
        """Seeds ran but none ever reordered a batch: the byte-identity
        below certifies nothing (a checker that cannot perturb passes
        silently), so the cell fails."""
        return bool(self.permuted) and not any(self.permuted.values())

    @property
    def ok(self) -> bool:
        return not self.diverged and not self.vacuous


@dataclass
class SweepResult:
    """All cells' verdicts."""

    cells: List[CellResult]
    ops_per_client: int
    seeds: List[int]

    @property
    def ok(self) -> bool:
        return all(cell.ok for cell in self.cells)

    @property
    def diverged(self) -> List[CellResult]:
        return [cell for cell in self.cells if cell.diverged]

    @property
    def vacuous(self) -> List[CellResult]:
        return [cell for cell in self.cells if cell.vacuous]

    def to_dict(self) -> Dict:
        from repro.obs.schemas import ORDER_SWEEP_SCHEMA
        return {
            "schema": ORDER_SWEEP_SCHEMA,
            "ops_per_client": self.ops_per_client,
            "seeds": list(self.seeds),
            "ok": self.ok,
            "cells": [{
                "model": cell.model,
                "ok": cell.ok,
                "baseline_digest": cell.baseline_digest,
                "batches": cell.batches,
                "max_batch": cell.max_batch,
                "digests": {str(seed): digest
                            for seed, digest in sorted(cell.seeds.items())},
                "permuted": {str(seed): count
                             for seed, count in sorted(cell.permuted.items())},
                "diverged_seeds": cell.diverged,
                "vacuous": cell.vacuous,
                "observed_pairs": [list(p) for p in cell.observed_pairs],
            } for cell in self.cells],
        }


def _run_once(model, ops_per_client: int, servers: int, clients: int,
              run_seed: int, sanitizer: TieBatchSanitizer):
    """One fixed-work cluster run with the sanitizer attached.

    Every client gets the same request budget and the simulation drains
    to quiescence, so the operation multiset is permutation-invariant
    and the digest compares converged states, not cut-off snapshots.
    """
    from repro.cluster.cluster import Cluster
    from repro.cluster.config import ClusterConfig
    from repro.workload.ycsb import WORKLOADS

    config = ClusterConfig(servers=servers, clients_per_server=clients,
                           seed=run_seed)
    cluster = Cluster(model, config=config, workload=WORKLOADS["A"])
    for client in cluster.clients:
        client.max_requests = ops_per_client
    sanitizer.attach(cluster.sim)
    cluster.start()
    cluster.sim.run()
    return cluster_digest(cluster)


def sweep(models=None, ops_per_client: int = 30,
          seeds: Iterable[int] = (1, 2, 3, 4),
          servers: int = 3, clients: int = 2,
          run_seed: int = 2021) -> SweepResult:
    """Run every model once unpermuted and once per permutation seed,
    asserting digest identity.  Defaults are CI-smoke sized."""
    from repro.core.model import all_ddp_models

    if models is None:
        models = all_ddp_models()
    seeds = list(seeds)
    cells = []
    for model in models:
        recorder = TieBatchSanitizer(seed=None)
        baseline = _run_once(model, ops_per_client, servers, clients,
                             run_seed, recorder)
        cell = CellResult(model=str(model), baseline_digest=baseline,
                          batches=recorder.batches,
                          max_batch=recorder.max_batch,
                          observed_pairs=recorder.observed_pairs())
        for seed in seeds:
            permuter = TieBatchSanitizer(seed=seed)
            cell.seeds[seed] = _run_once(model, ops_per_client, servers,
                                         clients, run_seed, permuter)
            cell.permuted[seed] = permuter.permuted
        cells.append(cell)
    return SweepResult(cells=cells, ops_per_client=ops_per_client,
                       seeds=seeds)
