"""Dynamic tie-batch sanitizer: does same-timestamp delivery order leak
into protocol state?

The protocols rest on per-key logical timestamps with last-writer-wins,
so message handlers that run at the same simulated instant on different
nodes should commute.  This module checks that on real runs: a
:class:`TieBatchSanitizer` is an :class:`~repro.sim.engine.Instrument`
(it shares the kernel's one ``sim.instrument`` slot with
``KernelProfile``; off-path free) and observes every *tie batch*, the
queued entries due at one identical timestamp.  In sanitizing mode it
deterministically permutes each batch's processing order with a
:class:`~repro.sim.rng.SeededStream` (Fisher–Yates), and :func:`sweep`
asserts that the final protocol-state digest is byte-identical to the
unpermuted baseline for every DDP model.  What it is shown to catch — a
cross-node shared global — and what the goldens catch instead is
measured in ``tests/integration/test_order_mutants.py``.

In place, not a second loop
---------------------------
The kernel has one run loop and the sanitizer does not replace it.  The
kernel's queue is a list of entries per instant, run in push order, and
a batch is the not-yet-run tail of an instant's list when the loop
first reaches it: the whole list when ``before_pop(times, entries)``
hands over a new instant, and then — once ``after_event`` has counted
that batch's last entry — whatever the batch appended to its own
instant, which forms the next batch, as it would run later on a bare
loop.  :meth:`~TieBatchSanitizer.observe` records the batch and
permutes its delivery slots, and the slice goes back into the list in
place; the loop's iterator then reads the permuted order.  The kernel
stays authoritative for ``until``, ``queue_depth`` and ``step()``, and
an entry raising mid-batch leaves the rest of its instant queued (the
kernel trims what ran, so a resumed pass finds the batch's unrun
entries at the head of the list).  The queue contract this rests on:
an instant's entries run in push order — a *stable* queue — and its
list can be permuted in place ahead of the loop.

What gets permuted — and what must stay in push order
-----------------------------------------------------
Only ``msg_delivery`` entries are reordered (among the positions they
occupy in the batch); other event kinds keep their push order.  A
delivery is a network *landing* — a call ``Network.send`` schedules,
of a function labelled ``msg_delivery``
(:func:`~repro.sim.engine.entry_kind`) whose arguments lead with the
message and its destination NIC — or, for code that reads a NIC inbox,
the ``Nic.receive()`` event.  Delivery order *is* handler co-scheduling
order, the dimension last-writer-wins makes free.  The remaining kinds —
process continuations, timeouts inside memory accesses, resource
grants — encode *intra*-handler progress, and their relative order
decides FIFO admission at shared timing resources (NVM bank queues,
DDIO capacity): reordering those legitimately swaps per-op latencies
and cascades through the closed-loop clients into genuinely different
(all individually valid) trajectories.  Hence what the kernel's queue
honours: delivery ties between *different nodes* may be broken freely,
but same-instant continuations run in push order (a *stable* queue).

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
    """Observe (and optionally permute) same-timestamp tie batches.

    ``seed=None`` is *record* mode: batches are observed, order is
    untouched, and the run is byte-identical to a plain one.  With a
    seed, the ``msg_delivery`` entries of every batch are shuffled in
    place among the positions they occupy (Fisher–Yates over the
    delivery sub-sequence), exploring one alternative handler
    co-scheduling order per seed.  Non-delivery entries never move:
    their push order is the stable-queue invariant, not a freedom (see
    the module docstring).
    """

    def __init__(self, seed: Optional[int] = None):
        self.seed = seed
        self._shuffle = (SeededStream(seed).shuffle
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
        self._entries: Optional[list] = None
        """The list of the instant the current batch belongs to."""
        self._end = self._left = 0
        """Index just past the current batch in that list, and how many
        of its entries have not run yet."""

    def before_pop(self, times: List[float], entries: list) -> None:
        """A new instant's whole list is a batch; a resumed one still
        has the current batch's unrun entries at its head."""
        if entries is self._entries:
            self._end = self._left
        else:
            self._entries = entries
            self._take_batch(0)

    def after_event(self, entry) -> None:
        """The batch's last entry ran: what it appended is the next."""
        self._left -= 1
        if not self._left:
            self._take_batch(self._end)

    def _take_batch(self, start: int) -> None:
        entries = self._entries
        batch = entries[start:]
        self._end, self._left = len(entries), len(batch)
        if len(batch) > 1:
            self.observe(batch)
            entries[start:] = batch

    @staticmethod
    def _landing(entry) -> tuple:
        """``(message, destination)`` of a ``msg_delivery`` entry.

        A network landing (the call ``Network._land(message, dst_nic,
        ...)``) names both; an inbox ``Nic.receive()`` event carries the
        message as its value and is its own destination (a reader has
        one ``get`` pending at a time).
        """
        if entry.__class__ is tuple:
            args = entry[1]
            return args[0], args[1]
        return entry._value, entry

    @classmethod
    def _label(cls, event) -> str:
        kind = entry_kind(event)
        if kind == "msg_delivery":
            msg_type = getattr(cls._landing(event)[0], "msg_type", None)
            if msg_type is not None:
                return msg_type.name
        return f"kind:{kind}"

    def observe(self, batch: list) -> None:
        """Record one tie batch (queued entries, in push order); permute
        it in place when sanitizing."""
        self.batches += 1
        self.events_tied += len(batch)
        if len(batch) > self.max_batch:
            self.max_batch = len(batch)
        labels = sorted(self._label(entry) for entry in batch)
        for a, b in itertools.combinations_with_replacement(
                sorted(set(labels)), 2):
            if a == b and labels.count(a) < 2:
                continue
            key = (a, b)
            self.pair_counts[key] = self.pair_counts.get(key, 0) + 1
        if self._shuffle is None:
            return
        slots = [i for i, entry in enumerate(batch)
                 if entry_kind(entry) == "msg_delivery"]
        if len(slots) < 2:
            return
        before = [batch[i] for i in slots]
        # Wave by wave, as one dispatcher per node used to take a tie:
        # every node's first simultaneous arrival (in shuffled node
        # order), then every node's second, ...  A node's own arrivals
        # thus keep their push order — its FIFO, not a freedom.
        # (id() is a safe key here: ``batch`` keeps every destination
        # alive for as long as ``arrived`` exists.)
        waves: List[list] = []
        arrived: Dict[int, int] = {}
        for entry in before:
            destination = id(self._landing(entry)[1])
            rank = arrived.get(destination, 0)
            arrived[destination] = rank + 1
            if rank == len(waves):
                waves.append([])
            waves[rank].append(entry)
        deliveries: list = []
        for wave in waves:
            self._shuffle(wave)
            deliveries.extend(wave)
        for slot, entry in zip(slots, deliveries):
            batch[slot] = entry
        if any(a is not b for a, b in zip(deliveries, before)):
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
        feed("node", engine.node_id, engine.alive)
        for key in sorted(engine.replicas.keys()):
            replica = engine.replicas.peek(key)
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
        """No seed reordered a batch — none ran, or none that ran
        permuted anything: the byte-identity below certifies nothing (a
        checker that cannot perturb passes silently), so the cell
        fails."""
        return not any(self.permuted.values())

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
