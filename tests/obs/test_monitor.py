"""Tests for the online health monitor.

Real-cluster runs pin down the sampling cadence, bounded storage, and
determinism; a minimal fake cluster drives the invariant probes into
violation on purpose (a healthy simulation never violates them, so the
recording path needs a rigged one).
"""

import pytest

import repro.obs.monitor as monitor_module
from repro.cluster.config import ClusterConfig
from repro.core.model import Consistency, DdpModel, Persistency
from repro.obs import (HealthMonitor, JourneyTracker, health_chrome_events,
                       health_json)
from repro.sim.engine import Simulator
from repro.sim.trace import Tracer
from tests import harness


@pytest.fixture(autouse=True)
def _two_us_interval(monkeypatch):
    """Sample every 2 us: 20 samples in a 40 us run."""
    monkeypatch.setattr(monitor_module, "INTERVAL_NS", 2_000.0)


def _monitored_run(model=None, monitor=None, seed=2021,
                   duration_ns=40_000.0):
    model = model or DdpModel(Consistency.CAUSAL, Persistency.SYNCHRONOUS)
    if monitor is None:  # empty monitors are falsy (__len__ == 0)
        monitor = HealthMonitor()
    config = ClusterConfig(servers=3, clients_per_server=3, seed=seed)
    return harness.run(model, duration_ns, 4_000.0, config=config,
                       monitor=monitor).cluster, monitor


class TestSampling:
    def test_samples_on_the_simulation_clock(self):
        _, monitor = _monitored_run()
        # 40 us run, 2 us interval: ticks at 2, 4, ..., 40 us.
        assert len(monitor) == 20
        times = [s.time_ns for s in monitor.samples]
        assert times == [2_000.0 * (i + 1) for i in range(20)]

    def test_sample_shape_tracks_cluster_size(self):
        cluster, monitor = _monitored_run()
        n = len(cluster.nodes)
        for sample in monitor.samples:
            assert len(sample.nvm_outstanding) == n
            assert len(sample.nvm_banks_busy) == n
            assert len(sample.causal_buffer) == n
            assert len(sample.inflight_writes) == n
            assert len(sample.inflight_rounds) == n

    def test_a_loaded_run_shows_pressure(self):
        _, monitor = _monitored_run()
        assert monitor.peak_event_queue_depth > 0
        assert monitor.peak_nvm_outstanding > 0
        hot = monitor.top_keys_total()
        assert hot, "no hot keys observed on a write-heavy workload"
        # Hottest first, deterministic tie-break by key.
        counts = [count for _key, count in hot]
        assert counts == sorted(counts, reverse=True)

    def test_healthy_run_has_no_violations(self):
        _, monitor = _monitored_run()
        assert monitor.violations_total == 0
        assert monitor.violations == []

    def test_same_seed_same_health(self):
        _, first = _monitored_run()
        _, second = _monitored_run()
        assert health_json(first) == health_json(second)

    def test_bounded_samples_count_dropped(self, monkeypatch):
        monkeypatch.setattr(monitor_module, "MAX_SAMPLES", 5)
        _, monitor = _monitored_run()
        assert len(monitor) == 5
        assert monitor.dropped == 15

    def test_stop_ends_sampling(self):
        cluster, monitor = _monitored_run()
        taken = len(monitor)
        cluster.sim.run(until=cluster.sim.now + 20_000.0)
        assert len(monitor) == taken
        assert monitor.stopped_at_ns == 40_000.0

    def test_watch_echoes_dropped_counters(self):
        tracer, journey = Tracer(), JourneyTracker(3)
        # Neither drops anything; losses set on them are what gets echoed.
        tracer.dropped, journey.dropped = 7, 3
        monitor = HealthMonitor()
        monitor.watch(tracer=tracer, journey=journey)
        model = DdpModel(Consistency.CAUSAL, Persistency.SYNCHRONOUS)
        from repro.obs import FanoutTracer
        harness.run(model, config=ClusterConfig(servers=3, clients_per_server=3),
                    tracer=FanoutTracer([tracer, journey]), monitor=monitor)
        last = monitor.samples[-1]
        assert (last.tracer_dropped, last.journey_dropped) == (7, 3)

    def test_top_k_zero_disables_the_sketch(self, monkeypatch):
        monkeypatch.setattr(monitor_module, "TOP_K", 0)
        _, monitor = _monitored_run()
        assert all(s.top_keys == () for s in monitor.samples)
        assert monitor.top_keys_total() == []

    def test_double_attach_rejected(self):
        cluster, monitor = _monitored_run()
        with pytest.raises(RuntimeError):
            monitor.attach(cluster)


class TestProbeConfiguration:
    """Which probes a cell is held to is the contract table's ``probes``
    column, pinned for all 25 cells in ``tests/core/test_contracts.py``."""

    @pytest.mark.parametrize("model", [
        DdpModel(Consistency.LINEARIZABLE, Persistency.SYNCHRONOUS),
        DdpModel(Consistency.TRANSACTIONAL, Persistency.STRICT),
        DdpModel(Consistency.EVENTUAL, Persistency.EVENTUAL),
    ], ids=str)
    def test_enabled_probes_stay_clean_across_models(self, model):
        _, monitor = _monitored_run(model=model)
        assert monitor.violations_total == 0


# -- rigged cluster for the violation path ----------------------------------

class _FakeReplica:
    def __init__(self, key):
        self.key = key
        self.applied_version = (0, 0)
        self.persisted_version = (0, 0)


class _FakeEngine:
    causal_buffer_len = 0
    outstanding_write_count = 0
    inflight_round_count = 0

    def __init__(self):
        self.replicas = [_FakeReplica(1)]


class _FakeNvm:
    outstanding = 0
    banks_busy = 0


class _FakeMemory:
    nvm = _FakeNvm()


class _FakeNode:
    memory = _FakeMemory()


class _FakeCluster:
    def __init__(self, model):
        self.sim = Simulator()
        self.model = model
        self.engines = [_FakeEngine()]
        self.nodes = [_FakeNode()]


@pytest.fixture
def _ten_ns_interval(monkeypatch):
    """Sample every 10 ns, to catch a rigged replica at once."""
    monkeypatch.setattr(monitor_module, "INTERVAL_NS", 10.0)


@pytest.mark.usefixtures("_ten_ns_interval")
class TestInvariantProbes:
    def _rigged(self, model=None):
        cluster = _FakeCluster(model or DdpModel(Consistency.CAUSAL,
                                                 Persistency.SYNCHRONOUS))
        monitor = HealthMonitor()
        monitor.attach(cluster)
        return cluster, monitor, cluster.engines[0].replicas[0]

    def test_applied_regression_is_caught(self):
        cluster, monitor, replica = self._rigged()
        replica.applied_version = (2, 0)
        replica.persisted_version = (2, 0)
        cluster.sim.call_at(15.0, lambda: setattr(replica,
                                                  "applied_version", (1, 0)))
        cluster.sim.run(until=25.0)
        probes = [v.probe for v in monitor.violations]
        assert "applied_monotonic" in probes
        violation = monitor.violations[0]
        assert (violation.node, violation.key) == (0, 1)
        assert "(2, 0) -> (1, 0)" in violation.detail

    def test_persisted_regression_is_caught(self):
        cluster, monitor, replica = self._rigged()
        replica.applied_version = (3, 0)
        replica.persisted_version = (3, 0)
        cluster.sim.call_at(15.0, lambda: setattr(replica,
                                                  "persisted_version",
                                                  (2, 0)))
        cluster.sim.run(until=25.0)
        assert any(v.probe == "persisted_monotonic"
                   for v in monitor.violations)

    def test_persisted_ahead_of_applied_is_caught(self):
        cluster, monitor, replica = self._rigged()
        replica.applied_version = (1, 0)
        replica.persisted_version = (2, 0)
        cluster.sim.run(until=15.0)
        assert any(v.probe == "vp_before_dp" for v in monitor.violations)

    def test_disabled_probe_stays_silent(self):
        model = DdpModel(Consistency.TRANSACTIONAL, Persistency.STRICT)
        cluster, monitor, replica = self._rigged(model)
        replica.applied_version = (1, 0)
        replica.persisted_version = (5, 0)  # would violate vp_before_dp
        cluster.sim.run(until=35.0)
        assert monitor.violations_total == 0

    def test_violations_are_bounded(self, monkeypatch):
        monkeypatch.setattr(monitor_module, "MAX_VIOLATIONS", 2)
        cluster, monitor, replica = self._rigged()
        replica.applied_version = (1, 0)
        replica.persisted_version = (9, 0)  # violates at every tick
        cluster.sim.run(until=55.0)
        assert len(monitor.violations) == 2
        assert monitor.violations_dropped == 3
        assert monitor.violations_total == 5

    def test_violations_surface_in_samples_and_json(self):
        cluster, monitor, replica = self._rigged()
        replica.applied_version = (1, 0)
        replica.persisted_version = (2, 0)
        cluster.sim.run(until=25.0)
        assert monitor.samples[-1].violations_total > 0
        doc = health_json(monitor)
        assert doc["violations"]["total"] == monitor.violations_total
        assert doc["violations"]["events"][0]["probe"] == "vp_before_dp"


class TestExportShaping:
    def test_health_json_shape(self):
        cluster, monitor = _monitored_run()
        doc = health_json(monitor)
        assert doc["interval_ns"] == 2_000.0
        assert doc["samples"] == len(monitor)
        assert doc["dropped"] == 0
        series = doc["series"]
        assert len(series["time_ns"]) == len(monitor)
        assert len(series["event_queue_depth"]) == len(monitor)
        assert set(series["per_node"]) == {"0", "1", "2"}
        for node_series in series["per_node"].values():
            assert set(node_series) == {"nvm_outstanding", "nvm_banks_busy",
                                        "causal_buffer", "inflight_writes",
                                        "inflight_rounds"}
        assert doc["probes"] == monitor.probes
        assert doc["top_keys"] == [[k, c]
                                   for k, c in monitor.top_keys_total()]

    def test_chrome_counter_events(self):
        cluster, monitor = _monitored_run()
        events = health_chrome_events(monitor)
        kernel = [e for e in events if e["name"] == "health.kernel"]
        pressure = [e for e in events if e["name"] == "health.pressure"]
        assert len(kernel) == len(monitor)
        assert len(pressure) == len(monitor) * len(cluster.nodes)
        assert all(e["ph"] == "C" for e in kernel + pressure)
        assert all(e["pid"] == 0 for e in kernel)
        assert {e["pid"] for e in pressure} == {1, 2, 3}
        # Counters ride the dedicated health lane.
        from repro.obs.export import _lane_of
        assert {e["tid"] for e in events} == {_lane_of("health")}

    @pytest.mark.usefixtures("_ten_ns_interval")
    def test_violations_export_as_instants(self):
        cluster = _FakeCluster(DdpModel(Consistency.CAUSAL,
                                        Persistency.SYNCHRONOUS))
        monitor = HealthMonitor()
        monitor.attach(cluster)
        replica = cluster.engines[0].replicas[0]
        replica.applied_version = (1, 0)
        replica.persisted_version = (2, 0)
        cluster.sim.run(until=15.0)
        instants = [e for e in health_chrome_events(monitor)
                    if e["name"] == "health_violation"]
        assert instants
        assert instants[0]["ph"] == "i"
        assert instants[0]["args"]["probe"] == "vp_before_dp"
