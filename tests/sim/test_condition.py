"""Callback waiters on :class:`~repro.sim.sync.Condition`.

A caller that is not a process (a callback handler waiting for a local
persist) registers ``fn(*args)`` with :meth:`Condition.call_when`
instead of an event.  The call is pushed with ``call_at(now, ...)``
exactly where the event's ``succeed()`` would have queued it, so both
kinds of waiter keep one FIFO and no entry moves.
"""

from repro.cluster.cluster import Cluster
from repro.cluster.config import ClusterConfig
from repro.core.model import Consistency as C, DdpModel, Persistency as P
from repro.sim.engine import Simulator
from repro.sim.sync import Condition
from repro.workload.ycsb import WORKLOADS
from tests.harness import cyclic_garbage


def test_a_true_predicate_is_pushed_at_now_behind_what_is_queued_there():
    sim, ran = Simulator(), []
    condition = Condition(sim)

    def at_five():
        sim.call_at(sim.now, ran.append, "queued first")
        condition.call_when(lambda: True, ran.append, "waiter")
        assert sim._queue[5.0][1:] == [(ran.append, ("queued before",)),
                                       (ran.append, ("queued first",)),
                                       (ran.append, ("waiter",))]

    sim.call_at(5.0, at_five)
    sim.call_at(5.0, ran.append, "queued before")
    sim.run()
    assert ran == ["queued before", "queued first", "waiter"]
    assert condition.waiter_count == 0


def test_one_notify_wakes_event_and_callback_waiters_in_registration_order():
    sim, woke, state = Simulator(), [], {"ready": False}
    condition = Condition(sim)

    def ready():
        return state["ready"]

    def process(name):
        yield condition.wait_for(ready)
        woke.append(name)

    sim.process(process("event 1"))
    sim.run()
    condition.call_when(ready, woke.append, "call 1")
    sim.process(process("event 2"))
    sim.run()
    condition.call_when(ready, woke.append, "call 2")
    first, _, second, _ = [waiter for _, waiter in condition.waiters]

    def flip():
        state["ready"] = True
        condition.notify()
        # The instant's list: this call, then one entry per waiter.
        assert sim._queue[sim.now][1:] == [
            first, (woke.append, ("call 1",)),
            second, (woke.append, ("call 2",))]

    sim.call_at(10.0, flip)
    sim.run()
    assert woke == ["event 1", "call 1", "event 2", "call 2"]
    assert condition.waiter_count == 0


def test_an_unsatisfied_callback_waiter_stays_queued_across_notifies():
    sim, woke, state = Simulator(), [], {"n": 0}
    condition = Condition(sim)
    condition.call_when(lambda: state["n"] >= 3, woke.append, "done")
    for _ in range(2):
        state["n"] += 1
        condition.notify()
        sim.run()
        assert woke == [] and condition.waiter_count == 1
    state["n"] += 1
    condition.notify()
    assert condition.waiter_count == 0
    sim.run()
    assert woke == ["done"]


def test_a_restart_drops_the_discarded_tables_callback_waiters(frozen_session):
    """A follower parked on its persist before ACK (Synchronous) when
    its node crash-restarts: the discarded table keeps no continuation,
    and the run leaves nothing for the collector."""
    cluster = Cluster(DdpModel(C.LINEARIZABLE, P.SYNCHRONOUS),
                      config=ClusterConfig(servers=3, clients_per_server=2,
                                           seed=2021),
                      workload=WORKLOADS["A"])
    for client in cluster.clients:
        client.max_requests = 10
    cluster.start()

    def parked():
        for engine in cluster.engines:
            for replica in engine.replicas:
                if any(waiter.__class__ is tuple
                       for _, waiter in replica.waiters):
                    return engine, replica
        return None

    while parked() is None:
        cluster.sim.step()
    engine, replica = parked()
    discarded = engine.replicas

    def crash_restart_and_drain():
        cluster.fail_node(engine.node_id)
        cluster.restart_node(engine.node_id)
        assert engine.replicas is not discarded
        assert [waiter for _, waiter in replica.waiters
                if waiter.__class__ is tuple] == []
        cluster.sim.run()

    # The persist it waited for was still in the key's write-pending
    # slot, not at a bank: the crash ended it (DESIGN.md, the
    # persistence domain), so it never lands on the old replica.
    assert replica.persist_target is not None
    assert cyclic_garbage(crash_restart_and_drain) == {}
    assert replica.persisted_version < replica.applied_version
