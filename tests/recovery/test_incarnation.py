"""A crash ends the node's incarnation: nothing it set in motion acts.

The persistence domain (DESIGN.md, Section 9): a persist a bank had
admitted when the node crashed completes, as under ADR; a persist still
waiting on a timer, a drain or a process is never issued, the node
sends nothing, a message its ended incarnation received and had not
handled is lost, and so is one on the wire to it, or from it once it
restarted (what a crashed node had on the wire still lands while it is
down: its peers must all get a broadcast or none).  Held over the 25
cells at seeds 2021, 7 and 11, in two shapes:

* ``1@20+15`` — node 1 crashed at 20 us and restarted 15 us later
  (3 servers x 4 clients, YCSB-A, 60 us, 6 us warm-up);
* ``crash_all`` — every node crashed at 30 us (3 x 2 clients) and the
  simulation drained, with nobody restarted.

:class:`tests.harness.Watch` counts, per node and independently of how
the engine enforces it: messages put on the wire and persists admitted
while the node is down; NVM log records and scope commits while it is
down beyond what its banks held at the crash; messages handed to a node
that crashed since they were sent, or from a node that restarted since,
and messages handled after their receiver crashed.

Then every cell restarts its whole cluster at the crash instant, as
``repro recover`` does, with nothing drained first: every recovery
finishes, the nodes converge and each store holds its replica's value —
and the same counts hold, with the persists admitted after the restart
for a replica the restart discarded (a lazy persist's timer, say).  The
restart's image counts what the banks held at the crash, so once the
cluster drains no node's NVM image is ahead of its own replica.  A
crash during a catch-up ends that recovery too, and the lazy persists
an ended incarnation armed still fire in their FIFO but issue nothing.
"""

from collections import Counter

import pytest

from repro.cluster.config import ClusterConfig
from repro.core.engine import LAZY_PERSIST_DELAY_NS
from repro.core.model import (Consistency, DdpModel, Persistency,
                              all_ddp_models)
from repro.recovery.recovery import recover_latest
from repro.store.hashtable import HashTableStore
from repro.workload.ycsb import WORKLOADS
from tests import harness
from tests.harness import (diverged_keys, drain, run_watched,
                           stale_store_entries)

SEEDS = (2021, 7, 11)
CELLS = [pytest.param(model, seed, id=f"{model} seed {seed}")
         for model in all_ddp_models() for seed in SEEDS]


@pytest.mark.parametrize("model, seed", CELLS)
def test_a_crashed_node_acts_no_more(model, seed):
    cluster = harness.build(model, plan="1@20+15", config=ClusterConfig(
        servers=3, clients_per_server=4, seed=seed))
    acts = run_watched(cluster, lambda: (
        cluster.run(60_000.0, warmup_ns=6_000.0), drain(cluster)))
    assert (cluster.faults.crashes, cluster.faults.restarts) == (1, 1)
    assert acts == Counter(), f"{model}: 1@20+15 {dict(acts)}"

    cluster = harness.build(model, config=ClusterConfig(
        servers=3, clients_per_server=2, seed=seed))

    def crash_all_and_drain():
        cluster.run(30_000.0)
        cluster.crash_all()
        cluster.sim.run()

    acts = run_watched(cluster, crash_all_and_drain)
    assert acts == Counter(), f"{model}: crash_all {dict(acts)}"


@pytest.mark.parametrize("model, seed", CELLS)
def test_a_restart_at_the_crash_instant_recovers(model, seed):
    """Nothing of the ended incarnations lands after the restart — an
    INV that did would leave its key transient for good, and the peers'
    catch-up waiting on it."""
    cluster = harness.build(model, config=ClusterConfig(
        servers=3, clients_per_server=2, seed=seed))
    recoveries = []

    def crash_all_and_restart():
        cluster.run(30_000.0)
        cluster.crash_all()
        recoveries.extend(cluster.restart_node(node.node_id)
                          for node in cluster.nodes)
        cluster.sim.run(until=cluster.sim.now + 100_000.0)

    acts = run_watched(cluster, crash_all_and_restart)
    unfinished = [node.node_id for node, recovery
                  in zip(cluster.nodes, recoveries) if recovery.is_alive]
    assert not unfinished, f"{model}: nodes {unfinished} never served again"
    assert acts == Counter(), f"{model}: {dict(acts)}"
    drain(cluster)
    diverged = diverged_keys(cluster)
    assert not diverged, f"{model}: diverged keys {diverged[:5]}"
    stale = stale_store_entries(cluster)
    assert not stale, f"{model}: stale (node, key) in the store {stale[:5]}"


@pytest.mark.parametrize("model, seed", CELLS)
def test_a_restart_at_the_crash_instant_keeps_what_the_banks_admitted(
        model, seed):
    """A drain persist a bank admitted before the crash lands after it,
    durable (ADR), so the restart's image holds it: once every node of
    a crashed cluster has restarted at the crash instant and recovered,
    and the cluster has drained, no node's NVM image is ahead of its own
    replica on any key (3 x 4 clients, YCSB-A, 30 us)."""
    cluster = harness.run(model, 30_000.0, config=ClusterConfig(
        servers=3, clients_per_server=4, seed=seed)).cluster
    cluster.crash_all()
    recoveries = [cluster.restart_node(node.node_id)
                  for node in cluster.nodes]
    while any(recovery.is_alive for recovery in recoveries):
        cluster.sim.step()
    drain(cluster)
    ahead = {engine.node_id: [
        key for key, (version, _value)
        in recover_latest(cluster.nvm_log, [engine.node_id]).entries.items()
        if version > engine.replicas.peek(key).applied_version]
        for engine in cluster.engines}
    assert not any(ahead.values()), f"{model}: image keys ahead {ahead}"


@pytest.mark.parametrize("model", all_ddp_models(), ids=str)
def test_a_crash_during_the_catch_up_ends_it(model):
    """Node 1 crashes again 0.3 us into its catch-up: the crash ends that
    recovery (its clients stay cut off), and the next restart's recovery
    serves them again."""
    cluster = harness.build(model, plan=["1@20+5", "1@25.3+10"],
                            config=ClusterConfig(servers=3,
                                                 clients_per_server=4))
    node, ended = cluster.nodes[1], []
    fail_node = cluster.fail_node

    def watched_fail_node(node_id):
        ended.append(node.recovery is not None and node.recovery.is_alive)
        return fail_node(node_id)

    cluster.fail_node = watched_fail_node
    cluster.run(80_000.0, warmup_ns=8_000.0)
    assert ended == [False, True]
    assert not node.recovery.is_alive and node.engine.time_to_serve
    drain(cluster)


@pytest.mark.parametrize("model", all_ddp_models(), ids=str)
def test_a_restart_rebuilds_the_store_as_a_fresh_one(model):
    """After a whole-cluster crash, node 1's restarted hashtable holds
    exactly the image its restart installs and is laid out as a fresh
    table filled with that image in key order: the same capacity and,
    for every image key and every 97th key, the same lookup cost.  Deleting the crashed
    incarnation's keys one by one instead would keep its capacity and
    leave tombstones in the probe runs."""
    cluster = harness.run(model, 30_000.0, config=ClusterConfig(
        servers=3, clients_per_server=4)).cluster
    cluster.crash_all()
    engine, images = cluster.nodes[1].engine, []
    restart = engine.restart
    engine.restart = lambda image: (images.append(image), restart(image))
    cluster.restart_node(1)
    [image] = images
    store, fresh = cluster.nodes[1].store, HashTableStore()
    for key in sorted(image):
        fresh.put(key, image[key][1])
    probed = sorted(image.keys() | set(range(0, WORKLOADS["A"].key_space, 97)))
    assert len(store) == len(image)
    assert store.capacity == fresh.capacity
    assert ([store.read_cost(key) for key in probed]
            == [fresh.read_cost(key) for key in probed]), model


def test_a_lazy_persist_fifo_outlives_a_crash():
    """Node 1's lazy persists share one FIFO across its crash and
    restart: under ``<Causal, Eventual>`` the timers its ended
    incarnation armed still fire but issue nothing, so its NVM records
    after the crash are what its banks held then and what the new
    incarnation asked for; and the new incarnation's lazy persists are
    issued at their apply + ``LAZY_PERSIST_DELAY_NS``, in arming
    order."""
    model = DdpModel(Consistency.CAUSAL, Persistency.EVENTUAL)
    cluster = harness.build(model, config=ClusterConfig(servers=3,
                                                        clients_per_server=4))
    sim, engine, log = cluster.sim, cluster.nodes[1].engine, cluster.nvm_log
    armed, issued, records = [], [], []
    place, request, record = (engine._place_persist,
                              engine._request_persist, log.record)

    def watched_place(replica, version, value, placed):
        if placed == "lazy":
            armed.append((sim.now, engine.nic.incarnation, replica.key,
                          version))
        place(replica, version, value, placed)

    def watched_request(replica, version, value, trigger):
        if trigger == "lazy":
            issued.append((sim.now, replica.key, version))
        request(replica, version, value, trigger)

    def watched_record(node_id, key, version, value, **kwargs):
        if node_id == 1:
            records.append((key, version))
        record(node_id, key, version, value, **kwargs)

    engine._place_persist = watched_place
    engine._request_persist = watched_request
    log.record = watched_record
    cluster.run(30_000.0)
    crash, before = sim.now, (len(issued), len(records))
    cluster.fail_node(1)
    in_banks = {(key, version) for key, (version, _value)
                in engine.in_banks.items()}
    recovery = cluster.restart_node(1)
    sim.run(until=crash + 40_000.0)
    assert not recovery.is_alive

    ended = [at for at, token, _key, _version in armed
             if token is not engine.nic.incarnation
             and at + LAZY_PERSIST_DELAY_NS > crash]
    due = [(at + LAZY_PERSIST_DELAY_NS, key, version)
           for at, token, key, version in armed
           if token is engine.nic.incarnation
           and at + LAZY_PERSIST_DELAY_NS <= sim.now]
    assert ended and due
    assert issued[before[0]:] == due
    asked = in_banks | {(key, version) for _at, key, version in due}
    assert set(records[before[1]:]) <= asked
