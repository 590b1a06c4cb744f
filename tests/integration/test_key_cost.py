"""What a key costs: only the containers its run uses.

A ``KeyReplica`` builds its wait queue (a ``Condition``) when something
first waits on the key, its invalidation set at the key's first INV and
its undo log at the key's first transactional write.  These tests count
what is built, not bytes, so they hold on any interpreter: a cell that
never waits, invalidates or runs a transaction builds none of the
three, and the engine's crash paths read only what already exists.
"""

import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.core.engine import ProtocolNode
from repro.core.model import Consistency, DdpModel, Persistency
from repro.faults import FaultInjector, plan_from_crash_specs
from repro.sim import sync
from repro.workload.ycsb import WORKLOADS

LIN_SYNC = DdpModel(Consistency.LINEARIZABLE, Persistency.SYNCHRONOUS)
CAUSAL_EVENTUAL = DdpModel(Consistency.CAUSAL, Persistency.EVENTUAL)

#: The lazily built containers, by slot.
CONTAINERS = ("_condition", "_invs", "_undo")


def built(replica):
    """The containers ``replica`` holds (every one, where they are
    built with the replica)."""
    return {name for name in CONTAINERS
            if getattr(replica, name, True) is not None}


def replicas(cluster):
    return [replica for engine in cluster.engines
            for replica in engine.replicas]


def _cluster(model, workload, faults=None):
    return Cluster(model, config=ClusterConfig(servers=3,
                                               clients_per_server=2,
                                               seed=2021),
                   workload=WORKLOADS[workload], faults=faults)


@pytest.fixture
def waited(monkeypatch):
    """Every ``Condition`` something waited on, by either kind of waiter."""
    conditions = set()
    wait_for, call_when = sync.Condition.wait_for, sync.Condition.call_when

    def recording_wait_for(self, *args):
        conditions.add(self)
        return wait_for(self, *args)

    def recording_call_when(self, *args):
        conditions.add(self)
        return call_when(self, *args)

    monkeypatch.setattr(sync.Condition, "wait_for", recording_wait_for)
    monkeypatch.setattr(sync.Condition, "call_when", recording_call_when)
    return conditions


def test_a_read_mostly_causal_run_builds_no_container():
    cluster = _cluster(CAUSAL_EVENTUAL, "B")
    cluster.run(20_000.0)
    assert cluster.metrics.summarize(cluster.sim.now).requests > 0
    assert replicas(cluster)
    assert [built(r) for r in replicas(cluster) if built(r)] == []


def test_a_linearizable_run_builds_a_wait_queue_only_where_it_waited(
        waited):
    cluster = _cluster(LIN_SYNC, "A")
    cluster.run(20_000.0)
    everything = replicas(cluster)
    queues = {r._condition for r in everything if "_condition" in built(r)}
    assert queues == waited
    assert 0 < len(queues) < len(everything)
    # No transaction ran, so no key keeps an undo log.
    assert not any("_undo" in built(r) for r in everything)


def test_the_crash_paths_build_nothing(monkeypatch, waited):
    """The restart's sweep of dead waiters and the survivors' orphan
    scan read every key; neither may build a container, and the
    recovered table starts with none."""
    restart, scan = ProtocolNode.restart, ProtocolNode._abandon_remote_coordinator
    seen = {"restarts": 0, "scans": 0}

    def checked_restart(self, recovered_entries):
        discarded = list(self.replicas)
        before = [built(r) for r in discarded]
        restart(self, recovered_entries)
        assert [built(r) for r in discarded] == before
        assert len(self.replicas) > 0
        assert not any(built(r) for r in self.replicas)
        seen["restarts"] += 1

    def checked_scan(self, crashed):
        before = [(r, built(r)) for r in self.replicas]
        scan(self, crashed)
        assert [(r, built(r)) for r in self.replicas] == before
        seen["scans"] += 1

    monkeypatch.setattr(ProtocolNode, "restart", checked_restart)
    monkeypatch.setattr(ProtocolNode, "_abandon_remote_coordinator",
                        checked_scan)
    injector = FaultInjector(plan_from_crash_specs(["1@20+15"], seed=2021))
    cluster = _cluster(LIN_SYNC, "A", faults=injector)
    cluster.run(60_000.0)
    assert (injector.crashes, injector.restarts) == (1, 1)
    assert seen == {"restarts": 1, "scans": 2}
    assert {r._condition for r in replicas(cluster)
            if "_condition" in built(r)} <= waited


def test_a_condition_has_no_instance_dict():
    condition = sync.Condition(None)
    assert not hasattr(condition, "__dict__")
    with pytest.raises(AttributeError):
        condition.name = "key1"
