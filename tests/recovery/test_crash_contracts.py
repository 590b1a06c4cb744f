"""End-to-end crash tests: each DDP model's durability contract.

A small cluster runs a scripted workload; the whole cluster then loses
its volatile state ("a failure of the entire system", the paper's worst
case); recovery runs from the NVM images; and the model's Table 2/4
durability contract is checked:

* Strict / <Linearizable|Transactional, Synchronous>: completed writes
  are never lost (non-stale reads across the crash).
* Read-Enforced persistency: every value *read* before the crash is
  recoverable (unread writes may be lost).
* Scope: committed scopes are recovered all-or-nothing.
* <Causal, Synchronous>: reads return persisted versions, so read
  values are recoverable.
* Eventual: no guarantee — the test only checks recovery runs.
"""

import pytest

from repro.core.context import ClientContext
from repro.core.model import Consistency as C, DdpModel, Persistency as P
from repro.faults.validate import (
    check_completed_writes_recovered,
    check_read_values_recovered,
    check_scope_atomicity,
)
from repro.recovery.recovery import recover_latest
from tests.harness import idle, run_op


def build(consistency, persistency):
    return idle(DdpModel(consistency, persistency))


class ScriptedClient:
    """Drives ops on one engine, recording completed writes and reads."""

    def __init__(self, cluster, node=0, client_id=0):
        self.cluster = cluster
        self.engine = cluster.engines[node]
        self.ctx = ClientContext(client_id, node)
        self.completed_writes = []   # (key, version)
        self.observed_reads = []     # (key, version)

    def write(self, key, value):
        run_op(self.cluster, self.engine.client_write(self.ctx, key, value))
        replica = self.engine.replicas.get(key)
        self.completed_writes.append((key, replica.applied_version))

    def read(self, key):
        value, _ = run_op(self.cluster, self.engine.client_read(self.ctx, key))
        replica = self.engine.replicas.get(key)
        if self.engine.ppolicy.read_returns_persisted \
                and not self.engine.cpolicy.uses_inv:
            version = replica.persisted_version
        else:
            version = replica.applied_version
        self.observed_reads.append((key, version))
        return value


@pytest.mark.parametrize("consistency,persistency", [
    (C.LINEARIZABLE, P.SYNCHRONOUS),
    (C.LINEARIZABLE, P.STRICT),
    (C.READ_ENFORCED, P.STRICT),
    (C.EVENTUAL, P.STRICT),
])
def test_completed_writes_survive_full_crash(consistency, persistency):
    cluster = build(consistency, persistency)
    client = ScriptedClient(cluster)
    for i in range(20):
        client.write(i % 7, f"value-{i}")
    cluster.crash_all()
    recovered = recover_latest(cluster.nvm_log, range(3))
    result = check_completed_writes_recovered(recovered,
                                              client.completed_writes)
    assert result.ok, result.details


@pytest.mark.parametrize("consistency", [C.LINEARIZABLE, C.READ_ENFORCED,
                                         C.CAUSAL, C.EVENTUAL])
def test_read_enforced_persistency_read_values_survive(consistency):
    cluster = build(consistency, P.READ_ENFORCED)
    client = ScriptedClient(cluster)
    for i in range(12):
        client.write(i % 5, f"v{i}")
        client.read(i % 5)
    cluster.crash_all()
    recovered = recover_latest(cluster.nvm_log, range(3))
    result = check_read_values_recovered(recovered, client.observed_reads)
    assert result.ok, result.details


def test_causal_synchronous_read_values_survive():
    """<Causal, Synchronous>: reads return only persisted versions, so
    everything ever read is recoverable even though recent writes may
    not be."""
    cluster = build(C.CAUSAL, P.SYNCHRONOUS)
    client = ScriptedClient(cluster)
    for i in range(15):
        client.write(i % 4, f"v{i}")
        client.read(i % 4)
    cluster.crash_all()
    recovered = recover_latest(cluster.nvm_log, range(3))
    result = check_read_values_recovered(recovered, client.observed_reads)
    assert result.ok, result.details


def test_eventual_eventual_may_lose_unpersisted_writes():
    """<Eventual, Eventual> offers no durability: a crash immediately
    after writes loses them (lazy persists never ran)."""
    cluster = build(C.EVENTUAL, P.EVENTUAL)
    client = ScriptedClient(cluster)
    client.write(1, "volatile-only")
    cluster.crash_all()   # before the lazy persist delay elapses
    recovered = recover_latest(cluster.nvm_log, range(3))
    assert recovered.version_of(1) == (0, -1)


def test_scope_atomicity_across_crash():
    cluster = build(C.LINEARIZABLE, P.SCOPE)
    client = ScriptedClient(cluster)
    # Scope 1: complete and persisted.
    client.write(1, "a")
    client.write(2, "b")
    first_scope = client.ctx.current_scope_id
    first_writes = list(client.ctx.scope_writes)
    run_op(cluster, client.engine.client_persist_scope(client.ctx))
    # Scope 2: written but never persisted — lost on the crash.
    client.write(3, "c")
    second_writes = [(3, cluster.engines[0].replicas.get(3).applied_version)]
    cluster.crash_all()

    result = check_scope_atomicity(cluster.nvm_log, range(3),
                                   {first_scope: first_writes})
    assert result.ok, result.details
    recovered = recover_latest(cluster.nvm_log, range(3))
    assert recovered.value_of(1) == "a"
    assert recovered.value_of(2) == "b"
    for key, version in second_writes:
        assert recovered.version_of(key) < version


def restart_all(cluster):
    sim = cluster.sim
    sim.run_until_complete(sim.all_of(
        [cluster.restart_node(node.node_id) for node in cluster.nodes]))


def test_strict_models_have_no_recovery_divergence():
    """Section 9: strict models leave every node with the same
    persistent view, so recovery is trivial: nothing to fetch."""
    cluster = build(C.LINEARIZABLE, P.STRICT)
    client = ScriptedClient(cluster)
    for i in range(10):
        client.write(i, f"v{i}")
    cluster.crash_all()
    images = [recover_latest(cluster.nvm_log, [node]).entries
              for node in range(3)]
    assert images[0] == images[1] == images[2]
    restart_all(cluster)
    assert [e.time_to_serve.fetched for e in cluster.engines] == [0, 0, 0]


def test_weak_models_can_diverge_and_catch_up_reconciles_them():
    cluster = build(C.EVENTUAL, P.SYNCHRONOUS)
    client = ScriptedClient(cluster)
    client.write(1, "x")
    # Crash once the coordinator's persist (Synchronous persists at the
    # local visibility point) is done, before the lazy propagation.
    cluster.sim.run(until=cluster.sim.now + 1_000.0)
    cluster.crash_all()
    latest = recover_latest(cluster.nvm_log, range(3))
    assert any(recover_latest(cluster.nvm_log, [node]).version_of(1)
               < latest.version_of(1) for node in range(3))
    restart_all(cluster)
    # Every node serves the newest durable version again.
    for engine in cluster.engines:
        assert engine.replicas.peek(1).applied_version \
            == latest.version_of(1)


@pytest.mark.parametrize("consistency", [C.EVENTUAL, C.CAUSAL])
def test_a_version_only_its_coordinators_nvm_kept_wins_everywhere(
        consistency):
    """The coordinator persists a key's second write at its visibility
    point and the whole cluster crashes before the UPD lands: the
    peers' images hold the first write.  After the restarts every node
    holds the newest durable version, the coordinator too, and no
    replica is durable ahead of what it applied."""
    cluster = build(consistency, P.SYNCHRONOUS)
    client = ScriptedClient(cluster)
    client.write(1, "x")
    cluster.sim.run(until=cluster.sim.now + 10_000.0)
    client.write(1, "y")
    # Durable at the coordinator, not yet at the peers.
    cluster.sim.run(until=cluster.sim.now + 500.0)
    cluster.crash_all()
    latest = recover_latest(cluster.nvm_log, range(3))
    images = [recover_latest(cluster.nvm_log, [node]).version_of(1)
              for node in range(3)]
    assert images[0] == latest.version_of(1) > images[1] > (0, -1)
    restart_all(cluster)
    for engine in cluster.engines:
        replica = engine.replicas.peek(1)
        assert replica.applied_version == latest.version_of(1)
        assert replica.applied_version >= replica.persisted_version


def test_single_node_crash_leaves_cluster_running():
    cluster = build(C.CAUSAL, P.SYNCHRONOUS)
    client = ScriptedClient(cluster, node=0)
    client.write(1, "before")
    cluster.fail_node(2)
    # Writes through a healthy coordinator still complete (UPD-based
    # causal protocol needs no ACKs from the dead node).
    client.write(2, "after")
    assert cluster.engines[0].replicas.get(2).applied_value == "after"
