"""Tracing must observe the simulation, never perturb it.

Two properties the whole subsystem depends on:

* running with a tracer attached produces *exactly* the run that
  running without one does (same summary, same store state, same
  simulated clock); and
* the same seed produces byte-identical trace artifacts, so traces
  diff cleanly across code changes.
"""

import dataclasses
import os
import pathlib
import subprocess
import sys

import pytest

import repro
import repro.obs.monitor as monitor_module

from repro.cluster.cluster import Cluster
from repro.cluster.config import ClusterConfig
from repro.core.model import Consistency, DdpModel, Persistency, all_ddp_models
from repro.devtools.sanitizer import TieBatchSanitizer, cluster_digest
from repro.obs import (ChromeTraceSink, FanoutTracer, HealthMonitor,
                       JourneyTracker, KernelProfile)
from repro.sim.trace import NullTracer, Tracer
from repro.workload.ycsb import WORKLOADS
from tests import harness

MODELS = [
    DdpModel(Consistency.LINEARIZABLE, Persistency.SYNCHRONOUS),
    DdpModel(Consistency.CAUSAL, Persistency.EVENTUAL),
    DdpModel(Consistency.TRANSACTIONAL, Persistency.STRICT),
]

#: The 25 cells at 3 servers x 2 clients, 30 us, folded into one
#: sha256 of each cell's ``cluster_digest``, final clock and Summary.
_MATRIX_DIGEST = """
import dataclasses, hashlib, json
from repro.cluster import Cluster, ClusterConfig
from repro.core.model import all_ddp_models
from repro.devtools.sanitizer import cluster_digest
from repro.workload.ycsb import WORKLOADS

digest = hashlib.sha256()
for model in all_ddp_models():
    cluster = Cluster(model, config=ClusterConfig(
        servers=3, clients_per_server=2, seed=2021),
        workload=WORKLOADS["A"])
    summary = cluster.run(30_000.0, warmup_ns=3_000.0)
    digest.update(json.dumps([cluster_digest(cluster), cluster.sim.now,
                              dataclasses.asdict(summary)]).encode())
print(digest.hexdigest())
"""


def _run(model, tracer=None, profile=None, monitor=None, seed=2021,
         faults=None, history=None, instrument=None):
    config = ClusterConfig(servers=3, clients_per_server=3, seed=seed)
    cluster = Cluster(model, config=config, workload=WORKLOADS["A"],
                      tracer=tracer, profile=profile, monitor=monitor,
                      faults=faults, history=history)
    if instrument is not None:
        instrument.attach(cluster.sim)
    summary = cluster.run(40_000.0, warmup_ns=4_000.0)
    stores = [
        {replica.key: (replica.applied_version, replica.applied_value,
                       replica.persisted_version, replica.persisted_value)
         for replica in engine.replicas}
        for engine in cluster.engines
    ]
    return cluster, summary, stores


def _traced(path, model, meta=None, **kwargs):
    """The bytes of the Chrome trace a run streams to ``path``, and the
    cluster it ran."""
    sink = ChromeTraceSink(str(path))
    cluster, _, _ = _run(model, tracer=sink, **kwargs)
    sink.close(meta=meta)
    return path.read_bytes(), cluster


class TestTracingDoesNotPerturb:
    @pytest.mark.parametrize("model", MODELS, ids=str)
    def test_summary_store_and_clock_identical(self, model):
        cluster_off, summary_off, stores_off = _run(model)
        tracer = FanoutTracer([Tracer(), JourneyTracker(3)])
        cluster_on, summary_on, stores_on = _run(model, tracer=tracer)
        assert len(tracer) > 0, "tracer saw nothing; wiring is broken"
        assert dataclasses.asdict(summary_off) == \
            pytest.approx(dataclasses.asdict(summary_on), nan_ok=True)
        assert stores_off == stores_on
        assert cluster_off.sim.now == cluster_on.sim.now

    @pytest.mark.parametrize("model", MODELS, ids=str)
    def test_journey_tracking_does_not_perturb(self, model):
        """A JourneyTracker attached (alone or fanned out with the other
        sinks) reproduces the untracked run exactly — journey tracking
        off is the seed behavior, on is purely observational."""
        cluster_off, summary_off, stores_off = _run(model)
        journeys = JourneyTracker(3)
        tracer = FanoutTracer([Tracer(), journeys])
        cluster_on, summary_on, stores_on = _run(model, tracer=tracer)
        assert journeys.journeys, "journey tracker saw no writes"
        assert dataclasses.asdict(summary_off) == \
            pytest.approx(dataclasses.asdict(summary_on), nan_ok=True)
        assert stores_off == stores_on
        assert cluster_off.sim.now == cluster_on.sim.now

    @pytest.mark.parametrize("model", MODELS, ids=str)
    def test_health_monitoring_does_not_perturb(self, model, monkeypatch):
        """A monitored run reproduces the unmonitored run exactly.

        The monitor schedules its own ticks on the simulation clock, so
        this is the strongest non-perturbation claim in the suite: extra
        kernel events may consume sequence numbers but must not reorder
        or retime anyone else's."""
        cluster_off, summary_off, stores_off = _run(model)
        monkeypatch.setattr(monitor_module, "INTERVAL_NS", 2_000.0)
        monitor = HealthMonitor()
        cluster_on, summary_on, stores_on = _run(model, monitor=monitor)
        assert len(monitor) > 0, "monitor never sampled; wiring is broken"
        assert dataclasses.asdict(summary_off) == \
            pytest.approx(dataclasses.asdict(summary_on), nan_ok=True)
        assert stores_off == stores_on
        assert cluster_off.sim.now == cluster_on.sim.now

    def test_health_monitoring_trace_byte_identical(self, tmp_path,
                                                    monkeypatch):
        """The trace a monitored run records is byte-for-byte the trace
        an unmonitored run records — monitoring changes nothing the
        tracer can see (the acceptance bar for `--health`)."""
        model = DdpModel(Consistency.CAUSAL, Persistency.SYNCHRONOUS)
        monkeypatch.setattr(monitor_module, "INTERVAL_NS", 2_000.0)
        contents = []
        for monitored in (False, True):
            monitor = HealthMonitor() if monitored else None
            trace, _ = _traced(tmp_path / f"m{monitored}.json", model,
                               monitor=monitor)
            contents.append(trace)
        assert contents[0] == contents[1]

    def test_profiling_does_not_perturb(self):
        model = MODELS[1]
        _, summary_off, stores_off = _run(model)
        profile = KernelProfile()
        _, summary_on, stores_on = _run(model, profile=profile)
        assert profile.events_processed > 0
        assert dataclasses.asdict(summary_off) == \
            pytest.approx(dataclasses.asdict(summary_on), nan_ok=True)
        assert stores_off == stores_on

    @pytest.mark.parametrize("model", MODELS, ids=str)
    @pytest.mark.parametrize("make", [
        lambda: None, KernelProfile, lambda: TieBatchSanitizer(seed=None),
    ], ids=["bare", "profile", "sanitizer"])
    def test_one_loop_whatever_the_instrument(self, model, make):
        """Bare, profiled and tie-batch-recorded runs go through the one
        kernel loop: same converged state, same summary, same clock."""
        cluster_off, summary_off, _ = _run(model)
        instrument = make()
        cluster_on, summary_on, _ = _run(model, instrument=instrument)
        assert cluster_on.sim.instrument is instrument
        assert cluster_digest(cluster_off) == cluster_digest(cluster_on)
        assert dataclasses.asdict(summary_off) == \
            pytest.approx(dataclasses.asdict(summary_on), nan_ok=True)
        assert cluster_off.sim.now == cluster_on.sim.now

    @pytest.mark.parametrize("model", MODELS, ids=str)
    def test_profiled_trace_byte_identical(self, model, tmp_path):
        """The acceptance bar for the performance observatory: a run
        with the full attribution profiler attached — per-kind wall
        bucketing in the step loop, the per-MsgType handler driver in
        dispatch — records byte-for-byte the trace of an unprofiled run.
        The counters observe the schedule; they never become part of it."""
        contents = []
        for profiled in (False, True):
            profile = KernelProfile() if profiled else None
            trace, _ = _traced(tmp_path / f"p{profiled}.json", model,
                               profile=profile)
            contents.append(trace)
            if profiled:
                attribution = profile.snapshot()["attribution"]
                assert attribution["by_event_kind"], \
                    "profiler saw no events; wiring is broken"
                assert attribution["by_msg_type"], \
                    "handler driver never engaged; wiring is broken"
        assert contents[0] == contents[1]


class _RaisingTracer(NullTracer):
    """Disabled like the default tracer, and loud if anything calls it
    anyway: every emit site must sit behind ``tracer.enabled``."""

    def emit(self, *args, **kwargs):
        raise AssertionError("emit on a disabled tracer")


def _tracing_off_cluster(cell):
    """One of the 25 cells with a crash-restart (``--crash 1@10+5``), or
    a leader or hybrid deployment: every engine class, the fault and
    recovery paths, all on a disabled tracer."""
    from repro.hybrid.cluster import HybridCluster
    from repro.variants.leader import LeaderCluster

    common = dict(config=ClusterConfig(servers=3, clients_per_server=2),
                  tracer=_RaisingTracer())
    lin_sync = DdpModel(Consistency.LINEARIZABLE, Persistency.SYNCHRONOUS)
    if cell == "leader":
        return harness.build(lin_sync, cluster_class=LeaderCluster, **common)
    if cell == "hybrid":
        return harness.build(lin_sync, cluster_class=HybridCluster,
                             groups=2, servers_per_group=2, **common)
    return harness.build(cell, plan="1@10+5", **common)


class TestTracingOff:
    @pytest.mark.parametrize("cell", [*all_ddp_models(), "leader", "hybrid"],
                             ids=str)
    def test_no_emit_reaches_a_disabled_tracer(self, cell):
        summary = _tracing_off_cluster(cell).run(30_000.0, warmup_ns=3_000.0)
        assert summary.requests > 0 and summary.total_messages > 0


class TestHistoryRecorderEquivalence:
    """The audit history recorder is a pure observer at the client
    boundary: attached, it reproduces the unrecorded run exactly (the
    acceptance bar for `--history-out` / `--audit`)."""

    @pytest.mark.parametrize("model", MODELS, ids=str)
    def test_recorder_does_not_perturb(self, model):
        from repro.obs.history import HistoryRecorder

        cluster_off, summary_off, stores_off = _run(model)
        recorder = HistoryRecorder()
        cluster_on, summary_on, stores_on = _run(model, history=recorder)
        assert len(recorder) > 0, "recorder saw nothing; wiring is broken"
        assert dataclasses.asdict(summary_off) == \
            pytest.approx(dataclasses.asdict(summary_on), nan_ok=True)
        assert stores_off == stores_on
        assert cluster_off.sim.now == cluster_on.sim.now

    def test_recorder_trace_byte_identical(self, tmp_path):
        from repro.obs.history import HistoryRecorder

        model = DdpModel(Consistency.CAUSAL, Persistency.SYNCHRONOUS)
        contents = []
        for recorded in (False, True):
            recorder = HistoryRecorder() if recorded else None
            trace, _ = _traced(tmp_path / f"h{recorded}.json", model,
                               history=recorder)
            contents.append(trace)
        assert contents[0] == contents[1]


class TestFaultInjectionEquivalence:
    """The injector obeys the same discipline as the monitor: attached
    but idle, it changes nothing; active, it is exactly reproducible."""

    @pytest.mark.parametrize("model", MODELS, ids=str)
    def test_empty_plan_does_not_perturb(self, model):
        """A fault injector with an empty plan — membership wired,
        round watchdogs armed, network hook absent — reproduces the
        uninjected run exactly."""
        from repro.faults import FaultInjector, FaultPlan

        cluster_off, summary_off, stores_off = _run(model)
        cluster_on, summary_on, stores_on = _run(
            model, faults=FaultInjector(FaultPlan()))
        assert cluster_on.membership is not None
        assert dataclasses.asdict(summary_off) == \
            pytest.approx(dataclasses.asdict(summary_on), nan_ok=True)
        assert stores_off == stores_on
        assert cluster_off.sim.now == cluster_on.sim.now

    def test_empty_plan_trace_byte_identical(self, tmp_path):
        """The acceptance bar for `--faults`: a fault-free run with the
        injector attached records byte-for-byte the trace of a plain
        run, even though every protocol round armed a timeout watchdog."""
        from repro.faults import FaultInjector, FaultPlan

        model = DdpModel(Consistency.LINEARIZABLE, Persistency.SYNCHRONOUS)
        contents = []
        for injected in (False, True):
            faults = FaultInjector(FaultPlan()) if injected else None
            trace, _ = _traced(tmp_path / f"f{injected}.json", model,
                               faults=faults)
            contents.append(trace)
        assert contents[0] == contents[1]

    @pytest.mark.parametrize("model", MODELS, ids=str)
    def test_same_seed_same_plan_byte_identical(self, model, tmp_path):
        """Same workload seed + same fault plan => byte-identical traces,
        across a plan that exercises crash-restart, message loss, and
        duplication (the deterministic-replay guarantee).  The loss
        window is long enough that round watchdogs back off past their
        first resend, so a host-dependent backoff cannot hide."""
        from repro.faults import FaultInjector, load_fault_plan

        plan_dict = {
            "seed": 9,
            "events": [
                {"kind": "drop", "at_us": 6, "duration_us": 20,
                 "probability": 0.3},
                {"kind": "duplicate", "at_us": 10, "duration_us": 8,
                 "probability": 0.2},
                {"kind": "crash", "node": 1, "at_us": 18,
                 "restart_after_us": 10},
            ],
        }
        contents, resends = [], []
        for run in ("a", "b"):
            injector = FaultInjector(load_fault_plan(dict(plan_dict)))
            trace, cluster = _traced(tmp_path / f"{run}.json", model,
                                     faults=injector)
            assert injector.crashes == 1 and injector.restarts == 1
            resends.append(sum(e.round_resends for e in cluster.engines))
            contents.append(trace)
        assert contents[0] == contents[1]
        # Causal updates run no ACK round, so nothing there resends.
        assert resends[0] == resends[1]
        assert (resends[0] > 0) == (model.consistency is not Consistency.CAUSAL)


class TestTraceDeterminism:
    def test_same_seed_byte_identical_trace(self, tmp_path):
        model = DdpModel(Consistency.CAUSAL, Persistency.EVENTUAL)
        contents = [
            _traced(tmp_path / f"{run}.json", model,
                    meta={"model": str(model), "seed": 2021})[0]
            for run in ("a", "b")]
        assert contents[0] == contents[1]

    def test_different_seed_differs(self, tmp_path):
        model = DdpModel(Consistency.CAUSAL, Persistency.EVENTUAL)
        contents = [_traced(tmp_path / f"s{seed}.json", model, seed=seed)[0]
                    for seed in (2021, 2022)]
        assert contents[0] != contents[1]

    def test_fork_seeds_survive_hash_randomization(self):
        """fork() must not use the per-process salted builtin hash();
        pin a derived seed so any regression fails on every run."""
        from repro.sim.rng import SeededStream

        child = SeededStream(2021).fork("client0")
        grandchild = SeededStream(7).fork("a").fork("b")
        assert child.seed == 6884590832609390355
        assert grandchild.seed == 5479018391769822667

    def test_cells_survive_hash_randomization(self):
        """No simulated result may depend on the salted builtin hash():
        the 25 cells, run in two interpreters with different
        PYTHONHASHSEED, end in one digest of state, clock and Summary."""
        src = str(pathlib.Path(repro.__file__).resolve().parents[1])
        digests = []
        for hashseed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=hashseed,
                       PYTHONPATH=os.pathsep.join(
                           filter(None, (src, os.environ.get("PYTHONPATH")))))
            done = subprocess.run([sys.executable, "-c", _MATRIX_DIGEST],
                                  env=env, capture_output=True, text=True,
                                  check=True, timeout=300)
            digests.append(done.stdout)
        assert len(digests[0].strip()) == 64 and digests[0] == digests[1]
