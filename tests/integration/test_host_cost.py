"""What a protocol message costs the host, beyond simulated time.

Guards on the message path that no simulated number shows:

* **Frames per message and per read.**  Every hop of a message — a
  landing, a handler's entry, a send — is a call the kernel or the
  network makes; the plumbing between them (per-call objects, a
  delivery helper, ``Enum`` hashing, per-send property reads, notifying
  nobody, the NVM grant relay) was cut to at most one frame per hop.  A
  client read is one generator: a worker grant, two sleeps.
  Python-level ``call`` events, counted with ``sys.setprofile``
  (cProfile would also count C calls, which differ between Python
  versions), per message or per completed read of a small fixed-work
  run must stay under the measured value + 10 %, as
  ``MESSAGE_COST_CEILINGS`` holds kernel events per message.
* **No event per wait.**  A client read or write sleeps, and queues
  for a worker, on its process's one prebuilt wake: no ``Timeout`` and
  no grant ``Event`` is built on the client path.
* **No cyclic garbage.**  Everything a round, a stall or a landing
  allocates is freed by reference counting when it ends: a crash-restart
  plus lossy run — watchdogs re-arming, resends, clients interrupted
  mid-stall, a replica table discarded — leaves nothing for the
  collector, and neither does any of the 25 cells, bare or with every
  observer attached.  That is what lets the run loop pause the
  collector (``Simulator._drive``): a cycle made inside a run would
  live until the loop returns.  The check runs in a frozen session
  (the ``frozen_session`` fixture), so it walks only what the test
  made, and is itself shown to report every cycle a run leaves.
* **A dropped cluster goes in one collection.**  A cluster is cyclic,
  so the collector frees it, closing its suspended generators; a
  holder's ``finally: release()`` then hands the unit to nobody, so
  nothing the close pushes keeps the cluster for another pass.
"""

import gc
import sys
from collections import Counter

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.config import ClusterConfig
from repro.core.engine import REQUEST_WORKERS, ProtocolNode
from repro.core.model import (Consistency as C, DdpModel, Persistency as P,
                              all_ddp_models)
from repro.core.replica import KeyReplica
from repro.hybrid.cluster import HybridCluster
from repro.obs import HealthMonitor, HistoryRecorder, KernelProfile
from repro.sim.engine import Process, Simulator
from repro.sim.sync import Resource
from repro.sim.trace import Tracer
from repro.variants.leader import LeaderCluster
from repro.workload.ycsb import WORKLOADS
from tests.harness import build, collect_to_idle, cyclic_garbage

LIN_SYNC = DdpModel(C.LINEARIZABLE, P.SYNCHRONOUS)
CAUSAL_EVENTUAL = DdpModel(C.CAUSAL, P.EVENTUAL)
#: ACK_p / VAL_p rounds, the Strict UPD round, transactions and scopes.
RE_RE = DdpModel(C.READ_ENFORCED, P.READ_ENFORCED)
CAUSAL_STRICT = DdpModel(C.CAUSAL, P.STRICT)
TXN_SCOPE = DdpModel(C.TRANSACTIONAL, P.SCOPE)

#: Python frames per message on 3 servers x 2 clients, 10 YCSB-A
#: requests per client, seed 2021, drained: measured (CPython 3.11.7)
#: plus 10 %.  The per-hop plumbing cut from the message path cost
#: 68.2 / 137.8 frames per message on the first two cells; before the
#: read chain and the NVM grant relay were cut, all five cost 52.25 /
#: 110.22 / 46.45 / 79.88 / 53.82.
FRAME_CEILINGS = {
    str(LIN_SYNC): 48.4,           # measured 43.98
    str(CAUSAL_EVENTUAL): 98.3,    # measured 89.34
    str(RE_RE): 45.6,              # measured 41.43
    str(CAUSAL_STRICT): 75.8,      # measured 68.92
    str(TXN_SCOPE): 56.5,          # measured 51.38
}

#: Python frames per completed request of the same run on YCSB-C (all
#: reads), measured (CPython 3.11.7) plus 10 %: 45.78 / 46.78 before
#: the client's read chain was one generator, 23.87 / 24.87 before its
#: two sleeps waited on the process's wake instead of a ``Timeout``.
READ_FRAME_CEILINGS = {
    str(CAUSAL_EVENTUAL): 21.9,    # measured 19.88
    str(LIN_SYNC): 23.0,           # measured 20.88
}


def python_frames(model: DdpModel, workload: str = "A"):
    """Python frames a drained fixed-work run makes, with the run's
    cluster (to divide by what it did)."""
    cluster = build(model, ClusterConfig(servers=3, clients_per_server=2),
                    WORKLOADS[workload])
    for client in cluster.clients:
        client.max_requests = 10
    cluster.start()
    frames = 0

    def count(_frame, event, _arg):
        nonlocal frames
        if event == "call":
            frames += 1

    # Collect what earlier tests left first: a collection firing inside
    # the window would finalize their clusters' suspended generators,
    # and every such close() is a frame this run never made.
    gc.collect()
    sys.setprofile(count)
    try:
        cluster.sim.run()
    finally:
        sys.setprofile(None)
    return frames, cluster


@pytest.mark.parametrize("model", [LIN_SYNC, CAUSAL_EVENTUAL, RE_RE,
                                   CAUSAL_STRICT, TXN_SCOPE], ids=str)
def test_python_frames_per_message_stay_under_the_ceiling(model):
    frames, cluster = python_frames(model)
    # Drained with no faults: every message sent was handled.
    frames /= cluster.network.total_messages
    assert frames <= FRAME_CEILINGS[str(model)], (str(model), frames)


@pytest.mark.parametrize("model", [CAUSAL_EVENTUAL, LIN_SYNC], ids=str)
def test_python_frames_per_read_stay_under_the_ceiling(model):
    frames, cluster = python_frames(model, workload="C")
    reads = sum(client.completed_requests for client in cluster.clients)
    assert reads == 60 and cluster.network.total_messages == 0
    frames /= reads
    assert frames <= READ_FRAME_CEILINGS[str(model)], (str(model), frames)


def test_client_reads_and_writes_build_no_timeout_and_no_grant_event():
    """A client read or write sleeps, and queues for a request worker,
    on its process's one wake: it builds no ``Timeout`` and no grant
    ``Event``, contended or not (20 clients share 12 workers here)."""
    cluster = build(CAUSAL_EVENTUAL, ClusterConfig(servers=3),
                    WORKLOADS["B"])
    client_ops = {ProtocolNode.client_read.__code__,
                  ProtocolNode.client_write.__code__}
    builders = {Simulator.timeout.__code__: "Timeout",
                Resource.acquire.__code__: "grant Event"}
    built = Counter()

    def count(frame, event, _arg):
        if event != "call" or frame.f_code not in builders:
            return
        caller = frame.f_back
        while caller is not None:
            if caller.f_code in client_ops:
                built[builders[frame.f_code]] += 1
                return
            caller = caller.f_back

    sys.setprofile(count)
    try:
        summary = cluster.run(5_000.0, warmup_ns=500.0)
    finally:
        sys.setprofile(None)
    assert summary.mean_read_ns > 0 and summary.mean_write_ns > 0
    assert max(engine.request_workers.peak_queue_len
               for engine in cluster.engines) > 0
    assert built == Counter()


class Loop(list):
    """A list that holds itself: garbage only the collector frees."""

    __slots__ = ()


def test_the_garbage_check_sees_every_cycle_a_run_makes(frozen_session):
    """Inside the frozen session, a process that leaves one
    self-referencing list per step is reported with exactly those lists:
    the freeze hides what the session held before the test, not what
    the test's runs make."""
    assert gc.get_freeze_count() > 0
    sim = Simulator()

    def leaky():
        for _ in range(7):
            loop = Loop()
            loop.append(loop)
            yield 1.0

    sim.process(leaky())
    assert cyclic_garbage(sim.run) == Counter({"Loop": 7})
    assert sim.now == 7.0


def test_a_crash_restart_lossy_run_leaves_no_cyclic_garbage(frozen_session):
    """Watched rounds (any run with a membership) re-arm their watchdog
    with a method call, not a closure over itself; a restart drops the
    stalls its crash interrupted."""
    # The crash at 21 us catches a read of node 1 stalled on a key
    # another writer's INV holds Invalid.
    cluster = build(LIN_SYNC, ClusterConfig(servers=3, clients_per_server=5),
                    plan={"seed": 2021, "events": [
        {"kind": "crash", "node": 1, "at_us": 21.0, "restart_after_us": 10.0},
        {"kind": "drop", "at_us": 30.0, "duration_us": 15.0,
         "probability": 0.05}]})
    leaked = cyclic_garbage(lambda: cluster.run(60_000.0, warmup_ns=6_000.0))
    engines = cluster.engines
    # The run exercised what used to leak: watchdogs fired and resent.
    assert sum(engine.round_resends for engine in engines) > 0
    assert "AckRound" not in leaked
    assert leaked == Counter()


@pytest.mark.parametrize("observed", [False, True], ids=["bare", "observed"])
def test_no_cell_leaves_cyclic_garbage(observed, frozen_session):
    """Every cell, 3 servers x 2 clients for 10 us, bare and with a
    tracer, a kernel profile, a health monitor and a history recorder
    attached — and, bare, the five transactional cells at the default
    shape (5 servers x 20 clients, 150 us), where aborts and retries
    pile up: the collector the run loop pauses has nothing to find."""
    small = ClusterConfig(servers=3, clients_per_server=2, seed=2021)
    cells = [(model, small, 10_000.0) for model in all_ddp_models()]
    if not observed:
        cells += [(DdpModel(C.TRANSACTIONAL, p), ClusterConfig(), 150_000.0)
                  for p in P]
    leaks = {}
    for model, config, duration in cells:
        observers = dict(tracer=Tracer(), profile=KernelProfile(),
                         monitor=HealthMonitor(), history=HistoryRecorder()
                         ) if observed else {}
        cluster = Cluster(model, config=config, workload=WORKLOADS["A"],
                          **observers)
        summaries = []
        leaked = cyclic_garbage(lambda c=cluster, d=duration: summaries.append(
            c.run(d, warmup_ns=d / 10)))
        assert summaries[0].requests > 0, str(model)
        if leaked:
            leaks[f"{model} {config.servers}x{config.clients_per_server}"] = leaked
    assert leaks == {}


def test_a_dropped_cluster_is_freed_by_one_collection(frozen_session):
    """Every cell, and the leader and hybrid deployments under two
    models, at 3 servers x 16 clients for 5 us: more clients than
    request workers, so most runs stop with clients queued for one.
    After ``del``, one ``gc.collect()`` leaves no ``KeyReplica`` and no
    ``Process``: closing a holder that a client waits behind pushes
    nothing that keeps the cluster for a second pass."""
    crowded = ClusterConfig(servers=3, clients_per_server=16, seed=2021)
    assert crowded.clients_per_server > REQUEST_WORKERS
    runs = [(Cluster, model) for model in all_ddp_models()]
    runs += [(deployment, model)
             for deployment in (LeaderCluster, HybridCluster)
             for model in (LIN_SYNC, CAUSAL_EVENTUAL)]
    queued, kept = 0, {}
    for cluster_class, model in runs:
        cluster = build(model, crowded, cluster_class=cluster_class)
        cluster.run(5_000.0, warmup_ns=500.0)
        queued += any(engine.request_workers.queue_len
                      for engine in cluster.engines)
        del cluster
        gc.collect()
        left = Counter(type(obj).__name__ for obj in gc.get_objects()
                       if isinstance(obj, (KeyReplica, Process)))
        if left:
            kept[f"{cluster_class.__name__} {model}"] = left
        collect_to_idle()
    # The case guarded: a run that stops with a queue (all but the
    # Transactional cells that queue nobody at 5 us).
    assert queued >= len(runs) - 5
    assert kept == {}


def test_the_run_loop_pauses_the_collector_and_restores_it():
    """Paused inside the loop, as it was after ``run()``, ``step()``,
    an entry that raised and a nested drive; left off if it was off."""
    sim, seen = Simulator(), []

    def look():
        seen.append(gc.isenabled())

    def nested():
        sim.run(until=sim.now)
        look()

    def boom():
        raise RuntimeError("boom")

    enabled = gc.isenabled()
    gc.enable()
    try:
        for when, fn in ((1.0, look), (1.0, boom), (2.0, look),
                         (3.0, nested), (4.0, look)):
            sim.call_at(when, fn)
        with pytest.raises(RuntimeError):
            sim.run()
        assert gc.isenabled() and seen == [False]
        sim.step()
        assert gc.isenabled() and seen == [False, False]
        sim.run()
        assert gc.isenabled() and seen == [False] * 4
        gc.disable()
        sim.call_at(5.0, look)
        sim.run()
        assert not gc.isenabled() and seen == [False] * 5
    finally:
        if enabled:
            gc.enable()
        else:
            gc.disable()
