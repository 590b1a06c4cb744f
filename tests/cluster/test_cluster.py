"""Tests for cluster assembly and the run harness."""

import dataclasses
import gc
import inspect

import pytest

from repro.cluster.cluster import Cluster, run_simulation
from repro.cluster.config import ClusterConfig
from repro.core.engine import ProtocolNode
from repro.core.model import Consistency as C, DdpModel, Persistency as P
from repro.memory.cache import LLC_TIMING_PER_CORE
from repro.memory.hierarchy import CORES_PER_SERVER
from repro.net.network import NetworkConfig
from repro.workload.ycsb import WORKLOADS

MODEL = DdpModel(C.CAUSAL, P.SYNCHRONOUS)


#: Every settable value of a run, by name.
CONFIG_SURFACE = {
    "ClusterConfig": [
        "servers", "clients_per_server", "seed",
        "network.round_trip_ns", "network.bandwidth_bytes_per_ns",
        "network.queue_pairs",
        "nvm_timing.read_ns", "nvm_timing.write_ns", "nvm_timing.channels",
        "nvm_timing.banks_per_channel",
        "protocol.txn_length", "protocol.scope_length",
        "protocol.chain_propagation",
        "store_type"],
    "WorkloadSpec": ["name", "read_fraction", "key_space", "zipf_theta"],
}


class TestClusterConfig:
    def test_defaults_match_table5(self):
        config = ClusterConfig()
        assert config.servers == 5
        assert config.clients_per_server == 20
        assert config.total_clients == 100
        assert CORES_PER_SERVER == 20
        # The chip's cores size each node's LLC.
        cluster = Cluster(MODEL, config=ClusterConfig(clients_per_server=0))
        assert (cluster.nodes[0].memory.caches.llc.timing.size_bytes
                == CORES_PER_SERVER * LLC_TIMING_PER_CORE.size_bytes)

    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterConfig(servers=1)
        with pytest.raises(ValueError):
            ClusterConfig(clients_per_server=-1)

    def test_the_settable_values_are_pinned(self):
        """What a run is configured by, leaf by leaf: adding or removing
        a setting is a visible diff here."""
        def leaves(config):
            names = []
            for field in dataclasses.fields(config):
                value = getattr(config, field.name)
                names += ([f"{field.name}.{leaf}" for leaf in leaves(value)]
                          if dataclasses.is_dataclass(value) else [field.name])
            return names

        surface = {type(config).__name__: leaves(config)
                   for config in (ClusterConfig(), WORKLOADS["A"])}
        assert surface == CONFIG_SURFACE
        assert sum(map(len, surface.values())) == 18

    def test_the_parameters_of_the_observers_stores_and_reports_are_pinned(
            self):
        """What the tracers, monitors, caches, stores, fault injection
        and report functions take, parameter by parameter: their
        settings are module constants, and adding a parameter back is a
        visible diff here."""
        from repro.analysis.linearizability import is_linearizable
        from repro.analysis.metrics import Metrics, windowed_op_series
        from repro.analysis.report import format_figure6_table, format_grid
        from repro.faults.injector import FaultInjector
        from repro.faults.plan import plan_from_crash_specs
        from repro.memory.cache import CacheHierarchy, Llc
        from repro.obs.history import HistoryRecorder
        from repro.obs.journey import JourneyTracker
        from repro.obs.monitor import HealthMonitor
        from repro.obs.schemas import schema_tag
        from repro.sim.trace import Tracer
        from repro.store.bplustree import BPlusTreeStore
        from repro.store.btree import BTreeStore
        from repro.store.hashtable import HashTableStore
        from repro.store.memcachedlike import MemcachedStore

        callables = [
            Tracer, JourneyTracker, HealthMonitor,
            HealthMonitor.top_keys_total, HistoryRecorder, CacheHierarchy,
            Llc, HashTableStore, BTreeStore, BPlusTreeStore, MemcachedStore,
            windowed_op_series, Metrics.op_series, Metrics.op_series_by_node,
            FaultInjector, plan_from_crash_specs, schema_tag,
            is_linearizable, format_figure6_table, format_grid]
        surface = {
            fn.__qualname__: [name for name in inspect.signature(fn).parameters
                              if name != "self"]
            for fn in callables}
        assert surface == {
            "Tracer": [], "JourneyTracker": ["num_nodes"],
            "HealthMonitor": [], "HealthMonitor.top_keys_total": [],
            "HistoryRecorder": [], "CacheHierarchy": ["sim", "rng", "cores"],
            "Llc": ["sim", "cores", "rng"], "HashTableStore": [],
            "BTreeStore": [], "BPlusTreeStore": [], "MemcachedStore": [],
            "windowed_op_series": ["ops", "window_ns"],
            "Metrics.op_series": ["window_ns"],
            "Metrics.op_series_by_node": ["window_ns"],
            "FaultInjector": ["plan"],
            "plan_from_crash_specs": ["specs", "seed"],
            "schema_tag": ["family"],
            "is_linearizable": ["history", "initial_value"],
            "format_figure6_table": ["summaries"],
            "format_grid": ["values", "title"]}

    def test_with_overrides(self):
        config = ClusterConfig().with_overrides(
            clients_per_server=2, network=NetworkConfig(round_trip_ns=500))
        assert config.clients_per_server == 2
        assert config.network.round_trip_ns == 500
        assert config.servers == 5


class TestClusterAssembly:
    def test_builds_requested_topology(self):
        cluster = Cluster(MODEL, config=ClusterConfig(servers=3,
                                                      clients_per_server=2),
                          workload=WORKLOADS["A"])
        assert len(cluster.nodes) == 3
        assert len(cluster.clients) == 6
        assert len(cluster.network.node_ids) == 3

    def test_no_workload_means_no_clients(self):
        cluster = Cluster(MODEL, config=ClusterConfig(servers=2,
                                                      clients_per_server=5))
        assert cluster.clients == []

    def test_engines_share_metrics_and_txn_table(self):
        cluster = Cluster(MODEL, config=ClusterConfig(servers=3))
        assert len({id(e.metrics) for e in cluster.engines}) == 1
        assert len({id(e.txn_table) for e in cluster.engines}) == 1

    def test_store_type_none(self):
        config = ClusterConfig(servers=2, store_type=None)
        cluster = Cluster(MODEL, config=config)
        assert cluster.nodes[0].store is None

    def test_store_type_selected(self):
        config = ClusterConfig(servers=2, store_type="btree")
        cluster = Cluster(MODEL, config=config)
        assert cluster.nodes[0].store.name == "btree"


class TestTeardown:
    def test_dropped_cluster_leaves_no_engine_alive(self, frozen_session):
        """Pending landings reference the network, hence every engine;
        a dropped cluster must still be collectable, in one pass: the
        generator finalizers it runs (``finally: release()``) push
        nothing.  Counted over the heap, not with weak references: the
        collector clears those before it runs finalizers, so they read
        None even for a cluster a finalizer resurrects."""
        cluster = Cluster(DdpModel(C.LINEARIZABLE, P.SYNCHRONOUS),
                          config=ClusterConfig(servers=3,
                                               clients_per_server=4),
                          workload=WORKLOADS["A"])
        cluster.run(20_000.0)
        assert cluster.sim.queue_depth > 0      # cut off mid-flight
        del cluster
        gc.collect()
        assert not [obj for obj in gc.get_objects()
                    if isinstance(obj, ProtocolNode)]


class TestRunSimulation:
    def test_produces_summary(self):
        config = ClusterConfig(servers=3, clients_per_server=2)
        summary = run_simulation(MODEL, WORKLOADS["A"], config=config,
                                 duration_ns=30_000, warmup_ns=3_000)
        assert summary.requests > 0
        assert summary.throughput_ops_per_s > 0
        assert summary.mean_read_ns > 0
        assert summary.total_messages > 0

    def test_deterministic_with_same_seed(self):
        config = ClusterConfig(servers=3, clients_per_server=2, seed=7)
        a = run_simulation(MODEL, WORKLOADS["A"], config=config,
                           duration_ns=20_000, warmup_ns=2_000)
        b = run_simulation(MODEL, WORKLOADS["A"], config=config,
                           duration_ns=20_000, warmup_ns=2_000)
        assert a.requests == b.requests
        assert a.mean_read_ns == b.mean_read_ns
        assert a.total_messages == b.total_messages

    def test_seed_changes_results(self):
        base = ClusterConfig(servers=3, clients_per_server=2, seed=1)
        other = base.with_overrides(seed=2)
        a = run_simulation(MODEL, WORKLOADS["A"], config=base,
                           duration_ns=20_000, warmup_ns=2_000)
        b = run_simulation(MODEL, WORKLOADS["A"], config=other,
                           duration_ns=20_000, warmup_ns=2_000)
        assert (a.requests, a.mean_read_ns) != (b.requests, b.mean_read_ns)

    def test_store_data_replicated(self):
        cluster = Cluster(MODEL,
                          config=ClusterConfig(servers=3, clients_per_server=2,
                                               store_type="hashtable"),
                          workload=WORKLOADS["W"])
        cluster.run(duration_ns=30_000)
        for client in cluster.clients:
            client.request_stop()
        cluster.sim.run(until=cluster.sim.now + 200_000)  # quiesce
        # Every written key eventually lands in every node's store.
        seen = set().union(*(engine.replicas.keys()
                             for engine in cluster.engines))
        stored = [{key for key in seen if node.store.get(key) is not None}
                  for node in cluster.nodes]
        assert stored[0]
        for node, keys in zip(cluster.nodes, stored):
            assert keys == stored[0]
            assert len(node.store) == len(keys)
