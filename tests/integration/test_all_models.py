"""Integration: every one of the 25 DDP models runs a live workload and
honors cross-cutting protocol invariants.

These runs use a small cluster (3 servers, 4 clients each) and a short
horizon so the full matrix stays fast; the heavier calibrated runs live
in benchmarks/.
"""

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.config import ClusterConfig
from repro.core.model import Consistency as C, DdpModel, Persistency as P, all_ddp_models
from repro.faults import FaultInjector
from repro.faults.plan import plan_from_crash_specs
from repro.workload.ycsb import WORKLOADS

SMALL = ClusterConfig(servers=3, clients_per_server=4, store_type=None)
DURATION = 40_000.0
#: How long the clients' last requests may take to finish once every
#: client was asked to stop.  Transactional runs with 18 clients per
#: server need up to ~0.5 ms (they abort and retry on the way out).
DRAIN_LIMIT = 2_000_000.0


def run_model(model, workload=None, config=SMALL, duration=DURATION,
              crash=None):
    """Build and run one cell; ``crash`` is a ``--crash`` spec."""
    faults = (None if crash is None else
              FaultInjector(plan_from_crash_specs([crash], seed=config.seed)))
    cluster = Cluster(model, config=config,
                      workload=workload or WORKLOADS["A"], faults=faults)
    summary = cluster.run(duration_ns=duration, warmup_ns=duration / 10)
    return cluster, summary


def stale_store_entries(cluster):
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


def drain(cluster, model):
    """Stop every client and run until nothing is left to run: a cell
    still busy ``DRAIN_LIMIT`` later (a livelock) fails by name."""
    for client in cluster.clients:
        client.request_stop()
    sim = cluster.sim
    sim.run(until=sim.now + DRAIN_LIMIT)
    assert sim.peek() == float("inf"), (
        f"{model}: events still queued {DRAIN_LIMIT / 1e6:g} ms after "
        f"the clients were stopped")
    alive = [client.client_id for client in cluster.clients
             if client.process.is_alive]
    assert not alive, f"{model}: clients {alive} still running"


#: Transactional cells at 18 clients per server over three seeds: the
#: shape whose drains run longest.
BUSY_TRANSACTIONAL = [
    pytest.param(model,
                 ClusterConfig(servers=3, clients_per_server=18, seed=seed),
                 60_000.0, id=f"{model} 54 clients seed {seed}")
    for model in (DdpModel(C.TRANSACTIONAL, p) for p in P)
    for seed in (2021, 7, 11)]


#: Every cell with one node crashed at 20 us and restarted 15 us later,
#: over three seeds: the restarted node must catch up.
CRASHED = [
    pytest.param(model,
                 ClusterConfig(servers=3, clients_per_server=2, seed=seed),
                 60_000.0, "1@20+15", id=f"{model} crash 1@20+15 seed {seed}")
    for model in all_ddp_models() for seed in (2021, 7, 11)]


@pytest.mark.parametrize("model", all_ddp_models(), ids=str)
def test_model_makes_progress(model):
    cluster, summary = run_model(model)
    assert summary.requests > 0, f"{model} completed no requests"
    assert summary.throughput_ops_per_s > 0


@pytest.mark.parametrize("model, config, duration, crash", [
    *(pytest.param(model, SMALL, DURATION, None, id=str(model))
      for model in all_ddp_models()),
    *(pytest.param(*param.values, None, id=param.id)
      for param in BUSY_TRANSACTIONAL),
    *CRASHED])
def test_replicas_converge_after_quiesce(model, config, duration, crash):
    """Once clients stop and the system drains, all volatile replicas
    agree on every key (eventual convergence, which every model in the
    matrix promises at minimum) — a restarted one too."""
    cluster, _ = run_model(model, config=config, duration=duration,
                           crash=crash)
    drain(cluster, model)
    keys = set()
    for engine in cluster.engines:
        keys.update(engine.replicas.keys())
    mismatches = []
    for key in keys:
        versions = {engine.replicas.get(key).applied_version
                    for engine in cluster.engines}
        if len(versions) != 1:
            mismatches.append((key, versions))
    assert not mismatches, f"{model}: diverged keys {mismatches[:5]}"


@pytest.mark.parametrize("model", all_ddp_models(), ids=str)
def test_no_dangling_transients_after_quiesce(model):
    cluster, _ = run_model(model)
    drain(cluster, model)
    for engine in cluster.engines:
        for replica in engine.replicas:
            assert not replica.transient, (
                f"{model}: key {replica.key} stuck transient at node "
                f"{engine.node_id}")


@pytest.mark.parametrize("model", all_ddp_models(), ids=str)
def test_persisted_never_ahead_of_applied_except_strict(model):
    """Durability can only lead visibility under Strict persistency
    (which may persist before the volatile replica updates), or when a
    squashed transaction's write was reverted after an eager/lazy
    background persist already made it durable (NVM cannot un-persist)."""
    cluster, _ = run_model(model)
    if model.persistency is P.STRICT:
        return
    if (model.consistency is C.TRANSACTIONAL
            and model.persistency in (P.READ_ENFORCED, P.EVENTUAL)):
        return
    for engine in cluster.engines:
        for replica in engine.replicas:
            assert replica.persisted_version <= replica.applied_version, (
                f"{model}: node {engine.node_id} key {replica.key}")


@pytest.mark.parametrize("model, crash", [
    *(pytest.param(model, None, id=str(model)) for model in all_ddp_models()),
    *(pytest.param(model, "1@20+15", id=f"{model} crash 1@20+15")
      for model in all_ddp_models())])
def test_each_store_holds_its_replicas_applied_value(model, crash):
    """At the end of a run every node's store holds, for each key it
    stores, the value its replica applied: the last-writer-wins winner,
    not the last INV or UPD to land — on a restarted node too, whose
    store the restart rebuilt and the catch-up filled."""
    config = ClusterConfig(servers=3, clients_per_server=4, seed=2021)
    if crash is None:
        cluster, _ = run_model(model, config=config, duration=30_000.0)
    else:
        cluster, _ = run_model(model, config=config, duration=60_000.0,
                               crash=crash)
        drain(cluster, model)
    stale = stale_store_entries(cluster)
    assert not stale, f"{model}: stale (node, key) in the store {stale[:5]}"


@pytest.mark.parametrize("persistency", list(P), ids=lambda p: p.value)
def test_synchronous_like_models_persist_during_run(persistency):
    model = DdpModel(C.LINEARIZABLE, persistency)
    cluster, summary = run_model(model)
    if persistency in (P.STRICT, P.SYNCHRONOUS, P.READ_ENFORCED):
        assert summary.persists > 0
    # Scope/Eventual persist later or lazily; no assertion either way.


def test_transactional_conflicts_detected_under_contention():
    model = DdpModel(C.TRANSACTIONAL, P.SYNCHRONOUS)
    config = ClusterConfig(servers=3, clients_per_server=6, store_type=None)
    hot = WORKLOADS["A"].with_overrides(key_space=50)
    cluster, summary = run_model(model, workload=hot, config=config)
    assert summary.txn_commits > 0
    assert summary.txn_conflicts > 0


def test_causal_buffering_higher_under_synchronous_than_eventual():
    """Paper Section 8.1.2: Causal+Synchronous needs far more buffered
    writes than Causal+Eventual."""
    sync_cluster, sync_summary = run_model(DdpModel(C.CAUSAL, P.SYNCHRONOUS))
    evt_cluster, evt_summary = run_model(DdpModel(C.CAUSAL, P.EVENTUAL))
    assert sync_summary.causal_buffer_peak >= evt_summary.causal_buffer_peak


def test_scope_models_persist_and_log_scope_entries():
    model = DdpModel(C.LINEARIZABLE, P.SCOPE)
    cluster, summary = run_model(model)
    assert summary.persists > 0
    assert cluster.nvm_log.total_records > 0
