"""Integration: every one of the 25 DDP models runs a live workload and
honors cross-cutting protocol invariants.

These runs use a small cluster (3 servers, 4 clients each) and a short
horizon so the full matrix stays fast; the heavier calibrated runs live
in benchmarks/.
"""

import pytest

from repro.cluster.config import ClusterConfig
from repro.core.model import Consistency as C, DdpModel, Persistency as P, all_ddp_models
from repro.workload.ycsb import WORKLOADS
from tests import harness
from tests.harness import DURATION, SMALL, diverged_keys, stale_store_entries


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
    summary = harness.run(model).summary
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
    cluster = harness.run(model, duration, config=config, plan=crash,
                          drained=True).cluster
    diverged = diverged_keys(cluster)
    assert not diverged, f"{model}: diverged keys {diverged[:5]}"


@pytest.mark.parametrize("model", all_ddp_models(), ids=str)
def test_no_dangling_transients_after_quiesce(model):
    cluster = harness.run(model, drained=True).cluster
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
    cluster = harness.run(model).cluster
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
        cluster = harness.run(model, 30_000.0, config=config).cluster
    else:
        cluster = harness.run(model, 60_000.0, config=config, plan=crash,
                              drained=True).cluster
    stale = stale_store_entries(cluster)
    assert not stale, f"{model}: stale (node, key) in the store {stale[:5]}"


@pytest.mark.parametrize("persistency", list(P), ids=lambda p: p.value)
def test_synchronous_like_models_persist_during_run(persistency):
    summary = harness.run(DdpModel(C.LINEARIZABLE, persistency)).summary
    if persistency in (P.STRICT, P.SYNCHRONOUS, P.READ_ENFORCED):
        assert summary.persists > 0
    # Scope/Eventual persist later or lazily; no assertion either way.


def test_transactional_conflicts_detected_under_contention():
    model = DdpModel(C.TRANSACTIONAL, P.SYNCHRONOUS)
    config = ClusterConfig(servers=3, clients_per_server=6, store_type=None)
    hot = WORKLOADS["A"].with_overrides(key_space=50)
    summary = harness.run(model, config=config, workload=hot).summary
    assert summary.txn_commits > 0
    assert summary.txn_conflicts > 0


def test_causal_buffering_higher_under_synchronous_than_eventual():
    """Paper Section 8.1.2: Causal+Synchronous needs far more buffered
    writes than Causal+Eventual."""
    sync_summary = harness.run(DdpModel(C.CAUSAL, P.SYNCHRONOUS)).summary
    evt_summary = harness.run(DdpModel(C.CAUSAL, P.EVENTUAL)).summary
    assert sync_summary.causal_buffer_peak >= evt_summary.causal_buffer_peak


def test_scope_models_persist_and_log_scope_entries():
    run = harness.run(DdpModel(C.LINEARIZABLE, P.SCOPE))
    assert run.summary.persists > 0
    assert run.cluster.nvm_log.total_records > 0
