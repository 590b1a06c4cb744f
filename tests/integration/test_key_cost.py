"""What a key costs: only the containers its run uses.

A key a node has only read has no ``KeyReplica``: the table maps it to
the shared ``NEVER_WRITTEN`` stand-in, and the first mutation builds
the replica.  A ``KeyReplica`` holds a wait queue (a ``Condition``)
only while something waits on the key, its invalidation set from the
key's first INV to its last and its undo log from the key's first
transactional write.  These tests count what is built, not bytes,
so they hold on any interpreter: a read-only run builds no replica, a
cell that never waits, invalidates or runs a transaction builds none of
the three containers, and the engine's crash paths read only what
already exists.  What a request costs is counted here too: a run keeps
its completed requests as packed rows and builds no object for them;
what a pending timer costs: its incarnation and data, flat in the
FIFO its delay and callee share; and what idle shared state costs: a
resource that never queued holds no FIFO, and the scramble table holds
a key only at the ranks drawn.
"""

from collections import Counter, deque

import pytest

from repro.analysis.metrics import OpRecord
from repro.cluster import ClusterConfig
from repro.core import replica as replica_module
from repro.core.context import ClientContext
from repro.core.engine import LAZY_PERSIST_DELAY_NS, ProtocolNode
from repro.core.model import Consistency, DdpModel, Persistency
from repro.core.replica import NEVER_WRITTEN, ZERO_VERSION, KeyReplica
from repro.hybrid.cluster import HybridCluster
from repro.sim import sync
from repro.workload import zipf
from repro.workload.ycsb import WORKLOADS
from tests import harness
from tests.harness import drain, idle

LIN_SYNC = DdpModel(Consistency.LINEARIZABLE, Persistency.SYNCHRONOUS)
CAUSAL_EVENTUAL = DdpModel(Consistency.CAUSAL, Persistency.EVENTUAL)
EVENTUAL_EVENTUAL = DdpModel(Consistency.EVENTUAL, Persistency.EVENTUAL)
RE_RE = DdpModel(Consistency.READ_ENFORCED, Persistency.READ_ENFORCED)
TXN_SCOPE = DdpModel(Consistency.TRANSACTIONAL, Persistency.SCOPE)

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


def _cluster(model, workload, plan=None):
    return harness.build(model, ClusterConfig(servers=3, clients_per_server=2),
                         WORKLOADS[workload], plan)


@pytest.fixture
def constructed(monkeypatch):
    """Every ``KeyReplica`` built, in build order."""
    built_replicas = []
    init = KeyReplica.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built_replicas.append(self)

    monkeypatch.setattr(replica_module.KeyReplica, "__init__",
                        recording_init)
    return built_replicas


def holds_state(replica):
    """Whether ``replica`` holds a version, an INV, a persist request, a
    wait or an undo — what a key must hold to have a replica."""
    return (replica.applied_version != ZERO_VERSION
            or replica.persisted_version != ZERO_VERSION
            or replica.cluster_persisted_version != ZERO_VERSION
            or replica.persist_requested != ZERO_VERSION
            or any(getattr(replica, name) is not None
                   for name in CONTAINERS))


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


@pytest.mark.parametrize("model", [LIN_SYNC, TXN_SCOPE], ids=str)
def test_a_wait_queue_lives_only_while_something_waits(model, waited):
    """Mid-run, every key holding a wait queue has a waiter parked on
    it, and a wait built each queue; once the run drains, no key holds
    one.  ``<Transactional, Scope>`` also waits on what already holds
    (ENDX, a scope's persists): such a wait keeps no queue."""
    cluster = _cluster(model, "A")
    cluster.run(20_000.0)
    everything = replicas(cluster)
    queued = [r for r in everything if r._condition is not None]
    assert all(r.waiters for r in queued)
    assert {r._condition for r in queued} <= waited
    assert len(queued) < len(waited)
    if model == LIN_SYNC:
        # No transaction ran, so no key keeps an undo log.
        assert not any("_undo" in built(r) for r in everything)
    drain(cluster, limit=1_000_000.0)
    assert [r for r in replicas(cluster) if r._condition is not None] == []


def test_a_resource_that_never_queued_holds_no_queue(monkeypatch):
    """An NVM bank or worker pool builds its waiter FIFO at the first
    wait that queues; one that never queued holds none."""
    resources = []
    init = sync.Resource.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        resources.append(self)

    monkeypatch.setattr(sync.Resource, "__init__", recording_init)
    cluster = _cluster(LIN_SYNC, "A")
    cluster.run(20_000.0)
    idle_ones = [r for r in resources if r.peak_queue_len == 0]
    assert idle_ones and all(r._waiters == () for r in idle_ones)
    assert all(isinstance(r._waiters, deque)
               for r in resources if r.peak_queue_len > 0)
    bank = sync.Resource(cluster.sim, 1)
    assert bank.park("first") is False and bank._waiters == ()
    assert bank.park("second") is True
    assert list(bank._waiters) == ["second"] and bank.queue_len == 1


def test_the_scramble_table_holds_a_key_only_at_drawn_ranks(monkeypatch):
    """The key spaces' shared scramble table is one slot per rank: None
    until the rank is drawn, then the rank's scrambled key."""
    drawn = set()
    next_block = zipf.ZipfianGenerator.next_block

    def recording_next_block(self, count):
        ranks = next_block(self, count)
        drawn.update(ranks)
        return ranks

    monkeypatch.setattr(zipf.ZipfianGenerator, "next_block",
                        recording_next_block)
    zipf._scramble_memo.cache_clear()
    cluster = _cluster(CAUSAL_EVENTUAL, "B")
    cluster.run(20_000.0)
    key_space = WORKLOADS["B"].key_space
    table = zipf._scramble_memo(key_space)
    assert isinstance(table, list) and len(table) == key_space
    assert {rank for rank, key in enumerate(table) if key is not None} \
        == drawn
    assert 0 < len(drawn) < key_space
    assert all(table[rank] == zipf.fnv1a_64(rank) % key_space
               for rank in drawn)
    assert cluster.clients[0].stream._keys._scrambled is table


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
    cluster = _cluster(LIN_SYNC, "A", "1@20+15")
    injector = cluster.faults
    cluster.run(60_000.0)
    assert (injector.crashes, injector.restarts) == (1, 1)
    assert seen == {"restarts": 1, "scans": 2}
    assert {r._condition for r in replicas(cluster)
            if "_condition" in built(r)} <= waited


@pytest.mark.parametrize("model", [CAUSAL_EVENTUAL, LIN_SYNC, RE_RE],
                         ids=str)
def test_a_read_only_run_builds_no_replica(model, constructed):
    cluster = _cluster(model, "C")
    cluster.run(20_000.0)
    assert cluster.metrics.summarize(cluster.sim.now).requests > 0
    assert constructed == []
    for engine in cluster.engines:
        keys = engine.replicas.keys()
        assert keys, f"node {engine.node_id} read no key"
        assert {engine.replicas.peek(key) for key in keys} == {NEVER_WRITTEN}
        assert list(engine.replicas) == []


@pytest.mark.parametrize("model", [CAUSAL_EVENTUAL, LIN_SYNC], ids=str)
def test_a_mixed_run_builds_a_replica_only_where_a_key_holds_state(
        model, constructed):
    cluster = _cluster(model, "B")
    cluster.run(20_000.0)
    drain(cluster, limit=1_000_000.0)
    everything = replicas(cluster)
    assert sorted(map(id, constructed)) == sorted(map(id, everything))
    assert [r for r in everything if not holds_state(r)] == []
    read_only = [key for engine in cluster.engines
                 for key in engine.replicas.keys()
                 if engine.replicas.peek(key) is NEVER_WRITTEN]
    assert 0 < len(everything) and 0 < len(read_only)


@pytest.mark.parametrize("model", [CAUSAL_EVENTUAL, LIN_SYNC], ids=str)
def test_a_write_landing_during_a_read_of_an_unwritten_key_is_seen(
        model, monkeypatch):
    """The read peeks the stand-in before its memory access; a write
    that builds the key's replica during that access must be what the
    read samples, as if the read had held the replica all along."""
    cluster = idle(model)
    sim, engine = cluster.sim, cluster.engines[1]
    caches = engine.memory.caches
    slow_first = iter([(50_000.0, False)])
    access = caches.access_latency
    monkeypatch.setattr(caches, "access_latency",
                        lambda: next(slow_first, None) or access())
    reader = ClientContext(0, 1)
    read = sim.process(engine.client_read(reader, 7))
    sim.run(until=10_000.0)
    assert engine.replicas.peek(7) is NEVER_WRITTEN
    writer = ClientContext(1, 1)
    sim.process(engine.client_write(writer, 7, "v"))
    assert sim.run_until_complete(read) == "v"
    assert reader.last_read_version == writer.last_write_version


def test_an_invalidation_set_lives_only_while_an_inv_is_outstanding():
    cluster = _cluster(LIN_SYNC, "A")
    cluster.run(20_000.0)
    everything = replicas(cluster)
    assert all((r._invs is not None) == r.transient for r in everything)
    assert any(r.transient for r in everything)
    drain(cluster, limit=1_000_000.0)
    assert not any(r._invs is not None for r in replicas(cluster))


@pytest.mark.parametrize("mutation", [
    lambda r: r.apply((1, 0), "v"),
    lambda r: r.mark_persisted((1, 0), "v"),
    lambda r: r.mark_cluster_persisted((1, 0)),
    lambda r: r.begin_inv(1024),
    lambda r: r.end_inv(1024),
    lambda r: r.record_undo((1, 0)),
    lambda r: r.wait_for(lambda: True),
    lambda r: r.inflight_invs,
    lambda r: r.txn_undo,
], ids=["apply", "persist", "cluster_persist", "begin_inv", "end_inv",
        "undo", "wait", "inflight_invs", "txn_undo"])
def test_the_stand_in_refuses_every_mutation(mutation):
    with pytest.raises(TypeError, match="stand-in"):
        mutation(NEVER_WRITTEN)
    with pytest.raises(AttributeError):
        NEVER_WRITTEN.persist_requested = (1, 0)
    assert NEVER_WRITTEN.applied_version == ZERO_VERSION
    assert not NEVER_WRITTEN.transient


def test_a_mutation_replaces_the_stand_in_in_place():
    table = replica_module.ReplicaTable(sim=None, node_id=0)
    assert table.peek(3) is NEVER_WRITTEN and table.peek(1) is NEVER_WRITTEN
    replica = table.get(3)
    assert isinstance(replica, KeyReplica) and replica.key == 3
    assert table.peek(3) is replica and table.get(3) is replica
    assert table.keys() == [3, 1] and len(table) == 2
    assert list(table) == [replica]


def test_a_run_keeps_no_object_per_request(monkeypatch):
    """Completed requests live in ``Metrics``' packed rows: a run and
    its summary build no ``OpRecord`` row; reading ``Metrics.ops``
    does, one per row read."""
    rows = []
    new = OpRecord.__new__

    def recording_new(cls, *args, **kwargs):
        rows.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(OpRecord, "__new__", recording_new)
    cluster = _cluster(CAUSAL_EVENTUAL, "B")
    summary = cluster.run(20_000.0)
    assert summary.requests > 0 and rows == []
    assert cluster.metrics.ops[0].op_type in ("read", "write")
    assert len(rows) == 1


def test_a_condition_has_no_instance_dict():
    condition = sync.Condition(None)
    assert not hasattr(condition, "__dict__")
    with pytest.raises(AttributeError):
        condition.name = "key1"


def pending_timers(sim):
    """Every queued ``ProtocolNode._later`` entry."""
    return [entry for entries in sim._queue.values() for entry in entries
            if entry.__class__ is tuple
            and getattr(entry[0], "__func__", None) is ProtocolNode._fire]


#: Each shape, and the callees its pending timers must include.
TIMER_SHAPES = {
    # Every applied write's lazy persist, none fired yet: the run is
    # shorter than LAZY_PERSIST_DELAY_NS.
    "causal-eventual": (lambda: _cluster(CAUSAL_EVENTUAL, "A"),
                        {"_request_persist"}),
    "eventual-eventual": (lambda: _cluster(EVENTUAL_EVENTUAL, "A"),
                          {"_request_persist", "_broadcast"}),
    # Only a plan that can lose messages arms the round watchdogs.
    "watchdogs": (lambda: _cluster(LIN_SYNC, "A", {"seed": 2021, "events": [
        {"kind": "drop", "at_us": 20, "duration_us": 1,
         "probability": 0.5}]}), {"_check_round"}),
    "hybrid": (lambda: HybridCluster(
        EVENTUAL_EVENTUAL, groups=2, servers_per_group=2,
        config=ClusterConfig(servers=4, clients_per_server=2, seed=2021),
        workload=WORKLOADS["A"]), {"_send_remote"}),
}


@pytest.mark.parametrize("shape", TIMER_SHAPES)
def test_a_pending_timer_holds_data_not_bound_methods(shape):
    """A pending timer is its FIFO's one prebuilt kernel call, the same
    object for every timer of its (delay, callee), and that FIFO holds
    one flat item per timer: the node's incarnation, then the callee's
    arguments — no bound method and no per-timer tuple."""
    build, callees = TIMER_SHAPES[shape]
    cluster = build()
    cluster.run(0.8 * LAZY_PERSIST_DELAY_NS)
    pending = Counter(map(id, pending_timers(cluster.sim)))
    seen = set()
    for node in cluster.engines:
        for (_delay, callee), (fifo, call) in node._timers.items():
            fire, (held, fn, arity) = call
            assert fire == node._fire and held is fifo and fn is callee
            width = 1 + len(arity)
            assert len(fifo) == width * pending.pop(id(call), 0)
            items = list(fifo)
            assert all(token is node.nic.incarnation
                       for token in items[::width])
            for item in items:
                assert not callable(item)
                assert not (isinstance(item, tuple)
                            and any(map(callable, item)))
            if fifo:
                seen.add(callee.__name__)
    assert not pending, "a pending timer that is no FIFO's prebuilt call"
    assert callees <= seen
