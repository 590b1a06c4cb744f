"""One way a test builds, runs, drains and watches a cell.

:func:`run` builds a cell (model, shape, seed, workload, fault plan),
runs it and drains it if asked; :func:`run_watched` drives a built
cluster under a :class:`Watch`.  The end-of-run checks the fault and
matrix tests share live here too, and :func:`idle` and :func:`run_op`
for tests that drive a cluster's operations by hand.
"""

import gc
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.analysis.metrics import Summary
from repro.audit import audit_history
from repro.cluster.cluster import Cluster
from repro.cluster.config import ClusterConfig
from repro.core.model import DdpModel
from repro.faults import FaultInjector, load_fault_plan
from repro.faults.plan import plan_from_crash_specs
from repro.obs import (HealthMonitor, HistoryRecorder, KernelProfile,
                       build_run_report, recovered_from_cluster)
from repro.workload.ycsb import WORKLOADS

#: The matrix tests' cluster: 3 servers x 4 clients, no store costs.
SMALL = ClusterConfig(servers=3, clients_per_server=4, store_type=None)
DURATION = 40_000.0
#: How long the clients' last requests may take to finish once every
#: client was asked to stop.  Transactional runs with 18 clients per
#: server need up to ~0.5 ms (they abort and retry on the way out).
DRAIN_LIMIT = 2_000_000.0


@dataclass
class Run:
    cluster: Cluster
    summary: Summary


def fault_plan(plan, seed: int):
    """A ``--crash`` spec or a list of them (seeded with ``seed``), a
    plan dict as ``--faults`` reads it, a ``FaultPlan`` or None."""
    if isinstance(plan, (str, list)):
        return plan_from_crash_specs(
            [plan] if isinstance(plan, str) else plan, seed=seed)
    return load_fault_plan(dict(plan)) if isinstance(plan, dict) else plan


def build(model: DdpModel, config=SMALL, workload=WORKLOADS["A"], plan=None,
          history=False, cluster_class=Cluster, **shape) -> Cluster:
    """The cell's cluster: ``plan`` (see :func:`fault_plan`) injected,
    a history recorded if asked; ``cluster_class`` may be the leader or
    hybrid cluster, and ``shape`` its own arguments."""
    plan = fault_plan(plan, config.seed)
    faults = None if plan is None else FaultInjector(plan)
    history = HistoryRecorder() if history else None
    return cluster_class(model, config=config, workload=workload,
                         faults=faults, history=history, **shape)


def run(model: DdpModel, duration: float = DURATION,
        warmup: Optional[float] = None, drained: bool = False,
        **cell) -> Run:
    """Build the cell (``cell``: :func:`build`'s arguments) and run it
    for ``duration`` after ``warmup`` (default a tenth of it)."""
    cluster = build(model, **cell)
    summary = cluster.run(duration, warmup_ns=(duration / 10 if warmup is None
                                               else warmup))
    if drained:
        drain(cluster)
    return Run(cluster, summary)


def idle(model: DdpModel, servers: int = 3, cluster_class=Cluster,
         **observers) -> Cluster:
    """A started cluster with no clients and no store costs, whose
    operations a test drives by hand (:func:`run_op`)."""
    cluster = cluster_class(model, config=ClusterConfig(
        servers=servers, clients_per_server=0, store_type=None), **observers)
    cluster.start()
    return cluster


def run_op(cluster: Cluster, generator) -> tuple:
    """Drive one client operation to completion: (value, latency)."""
    sim, start = cluster.sim, cluster.sim.now
    value = sim.run_until_complete(sim.process(generator))
    return value, sim.now - start


def observed_sections(model, build, **target):
    """Run a variant under profile + monitor + history; return its run
    report (non-empty sections asserted), audited against ``target``
    (default: the cluster's own model)."""
    recorder = HistoryRecorder()
    cluster = build(profile=KernelProfile(), monitor=HealthMonitor(),
                    history=recorder)
    summary = cluster.run(60_000, 6_000)
    recorder.meta = {"consistency": model.consistency.value,
                     "persistency": model.persistency.value}
    recorder.recovered = recovered_from_cluster(cluster)
    report = build_run_report(
        summary, cluster.metrics, 10_000.0, profile=cluster.profile,
        monitor=cluster.monitor,
        audit=audit_history(recorder.history(), **target))
    assert report["profile"]["events_processed"] > 0
    assert report["profile"]["scheduling"]["messages_handled"] > 0
    assert report["health"]["samples"] > 0
    assert report["health"]["violations"]["total"] == 0
    assert report["audit"]["usable"]
    assert report["audit"]["history"]["ops"] > 0
    return report


def rig_to_crash(monkeypatch, *cell):
    """Make every cell whose ``(consistency, persistency, seed)`` starts
    with ``cell`` raise inside its worker.  The pool forks its workers
    after the patch, so they run the rigged recipe too."""
    from repro.obs import sweep

    real = sweep.observed_run

    def observed_run(spec, *args, **kwargs):
        if (spec.consistency, spec.persistency, spec.seed)[:len(cell)] \
                == cell:
            raise RuntimeError(f"rigged crash for cell {spec.label}")
        return real(spec, *args, **kwargs)

    monkeypatch.setattr(sweep, "observed_run", observed_run)


def drain(cluster: Cluster, limit: float = DRAIN_LIMIT) -> None:
    """Stop every client and run until nothing is left to run: a cell
    still busy ``limit`` later (a livelock), or a client still running,
    fails by name."""
    model = cluster.model
    for client in cluster.clients:
        client.request_stop()
    sim = cluster.sim
    sim.run(until=sim.now + limit)
    assert sim.peek() == float("inf"), (
        f"{model}: events still queued {limit / 1e6:g} ms after "
        f"the clients were stopped")
    alive = [client.client_id for client in cluster.clients
             if client.process.is_alive]
    assert not alive, f"{model}: clients {alive} still running"


def diverged_keys(cluster: Cluster) -> list:
    """(key, applied versions) for every key the nodes' replicas do not
    agree on, in key order."""
    keys = set().union(*(engine.replicas.keys() for engine in cluster.engines))
    versions = ((key, {engine.replicas.peek(key).applied_version
                       for engine in cluster.engines})
                for key in sorted(keys))
    return [(key, seen) for key, seen in versions if len(seen) != 1]


def stale_store_entries(cluster: Cluster) -> list:
    """(node, key) pairs where a node's store does not read back its
    replica's applied value, for every key the node saw; and each node
    whose store holds more keys than it built replicas (every put
    follows a mutation, which builds the key's replica)."""
    stale = [(engine.node_id, key) for engine in cluster.engines
             for key in engine.replicas.keys()
             if engine.store.get(key) != engine.replicas.peek(key).applied_value]
    return stale + [(engine.node_id, "a key no replica holds")
                    for engine in cluster.engines
                    if len(engine.store) > sum(1 for _ in engine.replicas)]


def collect_to_idle() -> None:
    """Collect until two passes in a row find nothing.  A pass whose
    finalizers leave a reference to the garbage in an object they made
    (a wake pushed into a fresh list of a dropped simulator's queue: why
    ``Resource.release`` hands nothing on from a closed holder) keeps
    all of it and reports 0; the next pass frees it, since an
    object is finalized once.  So one quiet pass does not show the heap
    idle, and a later check would count what it kept as its own."""
    quiet = 0
    while quiet < 2:
        quiet = 0 if gc.collect() else quiet + 1


def cyclic_garbage(run: Callable[[], Any]) -> Counter:
    """Type names of the unreachable objects ``run()`` leaves behind,
    counted with the collector paused and every unreachable object
    saved, while whatever ``run`` closes over is still alive.  A test
    that calls it asks for the ``frozen_session`` fixture, so these
    collections walk only what the test made, not the whole session."""
    collect_to_idle()   # what the test's earlier cells left
    saved = gc.garbage[:]
    del gc.garbage[:]
    enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run()
        gc.collect()
        return Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage[:] = saved
        if enabled:
            gc.enable()


class Watch:
    """Counts what a crashed node, or its ended incarnation, still did."""

    def __init__(self, cluster: Cluster):
        self.cluster = cluster
        self.sim = cluster.sim
        self.crashed_at = {node.node_id: [] for node in cluster.nodes}
        self.restarted_at = {node.node_id: [] for node in cluster.nodes}
        self.down = {}        # node -> (nvm persists, banks busy) at the crash
        self.records = Counter()
        self.acts = Counter()
        self.sent = {}        # id(message) -> (message, src, send time)
        self.discarded = {}   # id(replica) -> a replica a restart dropped
        for node in cluster.nodes:
            self._watch(node.engine)
        network, log = cluster.network, cluster.nvm_log
        send, record, commit = network.send, log.record, log.commit_scope

        def watched_send(src, dst, message, size_bytes, delivered=None):
            nic = network.nic(src)
            before = nic.messages_sent
            send(src, dst, message, size_bytes, delivered)
            if src in self.down:
                self.acts["sends while down"] += nic.messages_sent - before
            self.sent[id(message)] = (message, src, self.sim.now)

        def watched_record(node_id, *args, **kwargs):
            if node_id in self.down:
                self.records[node_id] += 1
            record(node_id, *args, **kwargs)

        def watched_commit(node_id, scope_id):
            if node_id in self.down:
                self.acts["scope commits while down"] += 1
            commit(node_id, scope_id)

        network.send = watched_send
        log.record = watched_record
        log.commit_scope = watched_commit

    def _ended_since(self, node_id: int, since: float,
                     restarts: bool = False) -> bool:
        times = (self.restarted_at if restarts else self.crashed_at)[node_id]
        return any(at >= since for at in times)

    def _watch(self, engine) -> None:
        node_id, nvm = engine.node_id, engine.memory.nvm
        crash, restart, arrival = engine.crash, engine.restart, engine._on_arrival
        persist_then = nvm.persist_then

        def watched_crash():
            crash()
            self.crashed_at[node_id].append(self.sim.now)
            self.down[node_id] = (nvm.persists, nvm.outstanding)

        def watched_restart(entries):
            self.settle(node_id)
            self.discarded.update((id(r), r) for r in engine.replicas)
            restart(entries)
            self.restarted_at[node_id].append(self.sim.now)

        def watched_persist_then(address, fn, *args):
            if any(id(arg) in self.discarded for arg in args):
                self.acts["persists of a discarded replica"] += 1
            persist_then(address, fn, *args)

        def watched_arrival(message):
            if node_id in self.down:
                self.acts["landed at a down node"] += 1
            _message, src, sent_at = self.sent[id(message)]
            if (self._ended_since(node_id, sent_at)
                    or self._ended_since(src, sent_at, restarts=True)):
                self.acts["landed on an ended connection"] += 1
            arrival(message)

        def watched(handler):
            def handle(message, arrived_ns, *args):
                if self._ended_since(node_id, arrived_ns):
                    self.acts["handled after the receiver crashed"] += 1
                return handler(message, arrived_ns, *args)
            return handle

        engine.crash, engine.restart = watched_crash, watched_restart
        engine._on_arrival = watched_arrival
        nvm.persist_then = watched_persist_then
        engine._handlers = {label: watched(handler)
                            for label, handler in engine._handlers.items()}

    def settle(self, node_id: int) -> None:
        """The node comes back (or the run ends): close its down time."""
        persists, banks_busy = self.down.pop(node_id)
        nvm = self.cluster.nodes[node_id].memory.nvm
        self.acts["persists admitted while down"] += nvm.persists - persists
        if self.records[node_id] > banks_busy:
            self.acts["records not admitted before the crash"] += (
                self.records[node_id] - banks_busy)
        self.records[node_id] = 0

    def verdict(self) -> Counter:
        for node_id in list(self.down):
            self.settle(node_id)
        return +self.acts


def run_watched(cluster: Cluster, drive: Callable[[], Any]) -> Counter:
    """The :class:`Watch` counts of ``drive()`` on ``cluster``."""
    watch = Watch(cluster)
    drive()
    return watch.verdict()
