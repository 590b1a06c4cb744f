"""Tests for the leader-based protocol variant."""

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.config import ClusterConfig
from repro.core.context import ClientContext
from repro.core.model import Consistency as C, DdpModel, Persistency as P
from repro.variants.leader import LeaderCluster
from repro.workload.ycsb import WORKLOADS

from tests.harness import idle, observed_sections, run_op

LIN_SYNC = DdpModel(C.LINEARIZABLE, P.SYNCHRONOUS)
SMALL = ClusterConfig(servers=3, clients_per_server=0, store_type=None)


class TestLeaderSemantics:
    def test_non_leader_writes_forwarded(self):
        cluster = idle(LIN_SYNC, cluster_class=LeaderCluster)
        ctx = ClientContext(0, 1)
        run_op(cluster, cluster.engines[1].client_write(ctx, 7, "v1"))
        assert cluster.engines[1].forwarded_writes == 1
        assert cluster.metrics.messages_by_type.get("FWD") == 1
        for engine in cluster.engines:
            assert engine.replicas.get(7).applied_value == "v1"

    def test_leader_writes_not_forwarded(self):
        cluster = idle(LIN_SYNC, cluster_class=LeaderCluster)
        ctx = ClientContext(0, 0)
        run_op(cluster, cluster.engines[0].client_write(ctx, 7, "v1"))
        assert cluster.engines[0].forwarded_writes == 0
        assert "FWD" not in cluster.metrics.messages_by_type

    def test_forwarding_adds_a_round_trip(self):
        leaderless = idle(LIN_SYNC)
        _, direct = run_op(leaderless, leaderless.engines[1].client_write(
            ClientContext(0, 1), 7, "v"))

        leader_cluster = idle(LIN_SYNC, cluster_class=LeaderCluster)
        _, forwarded = run_op(leader_cluster,
                              leader_cluster.engines[1].client_write(
                                  ClientContext(0, 1), 7, "v"))
        rtt = SMALL.network.round_trip_ns
        assert forwarded >= direct + rtt * 0.9

    def test_reads_stay_local(self):
        cluster = idle(LIN_SYNC, cluster_class=LeaderCluster)
        run_op(cluster, cluster.engines[0].client_write(
            ClientContext(0, 0), 7, "v1"))
        _, latency = run_op(cluster, cluster.engines[2].client_read(
            ClientContext(1, 2), 7))
        assert latency < SMALL.network.round_trip_ns


class TestLeaderWorkload:
    def test_leader_throttles_throughput(self):
        """Funneling writes through one node's workers costs throughput
        relative to the leaderless design (the paper's motivation)."""
        config = ClusterConfig(servers=5, clients_per_server=20)
        leaderless = Cluster(LIN_SYNC, config=config,
                             workload=WORKLOADS["A"]).run(60_000, 6_000)
        led = LeaderCluster(LIN_SYNC, config=config,
                            workload=WORKLOADS["A"]).run(60_000, 6_000)
        assert led.throughput_ops_per_s < leaderless.throughput_ops_per_s

    def test_leader_reduces_read_conflicts_at_low_client_count(self):
        """The Ganesan discrepancy (Section 8.1.2): with a designated
        leader and 10 clients, far fewer reads race unpersisted writes
        than in the leaderless 100-client setup."""
        model = DdpModel(C.READ_ENFORCED, P.READ_ENFORCED)

        def conflict_fraction(summary):
            return (summary.reads_blocked_by_unpersisted
                    / max(summary.requests * 0.5, 1))

        leaderless_100 = Cluster(
            model, config=ClusterConfig(clients_per_server=20),
            workload=WORKLOADS["A"]).run(60_000, 6_000)
        leader_10 = LeaderCluster(
            model, config=ClusterConfig(clients_per_server=2),
            workload=WORKLOADS["A"]).run(60_000, 6_000)
        assert conflict_fraction(leader_10) < conflict_fraction(leaderless_100) / 2


class TestLeaderObserved:
    def test_takes_every_observer_and_audits_clean(self):
        """As a ``Cluster`` subclass the variant is profiled, health-
        monitored and audited like the leaderless cluster."""
        model = DdpModel(C.READ_ENFORCED, P.READ_ENFORCED)
        report = observed_sections(
            model, lambda **observers: LeaderCluster(
                model, config=ClusterConfig(servers=3, clients_per_server=2),
                workload=WORKLOADS["A"], **observers))
        assert report["audit"]["target"]["ok"]
