"""Tests for hybrid multi-datacenter deployments (paper Section 9)."""

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.config import ClusterConfig
from repro.core.context import ClientContext
from repro.core.model import Consistency as C, DdpModel, Persistency as P
from repro.faults import (FaultInjector, plan_from_crash_specs,
                          validate_faulty_run)
from repro.hybrid.cluster import HybridCluster
from repro.workload.ycsb import WORKLOADS
from tests import harness
from tests.harness import idle, observed_sections, run_op

LIN_SYNC = DdpModel(C.LINEARIZABLE, P.SYNCHRONOUS)
CROSS_DC_RTT = 50_000.0


def make_hybrid(model=LIN_SYNC, **kwargs):
    return idle(model, 6, HybridCluster, groups=2, servers_per_group=3,
                cross_dc_round_trip_ns=CROSS_DC_RTT, **kwargs)


class TestHybridSemantics:
    def test_write_latency_independent_of_cross_dc_rtt(self):
        """The strong round spans only the local group, so the write
        completes in local-fabric time despite the 50 us WAN."""
        cluster = make_hybrid()
        ctx = ClientContext(0, 0)
        _, latency = run_op(cluster,
                            cluster.engines[0].client_write(ctx, 7, "v1"))
        assert latency < CROSS_DC_RTT / 2

    def test_local_group_strongly_consistent(self):
        cluster = make_hybrid()
        ctx = ClientContext(0, 0)
        run_op(cluster, cluster.engines[0].client_write(ctx, 7, "v1"))
        for node_id in (0, 1, 2):   # the writer's group
            replica = cluster.engines[node_id].replicas.get(7)
            assert replica.applied_value == "v1"
            assert replica.persisted_value == "v1"

    def test_remote_group_converges_eventually(self):
        cluster = make_hybrid()
        ctx = ClientContext(0, 0)
        run_op(cluster, cluster.engines[0].client_write(ctx, 7, "v1"))
        remote = cluster.engines[3].replicas.get(7)
        assert remote.applied_value is None   # not yet
        cluster.sim.run(until=cluster.sim.now + 3 * CROSS_DC_RTT)
        assert remote.applied_value == "v1"
        assert remote.persisted_value == "v1"  # Synchronous at apply

    def test_remote_reads_never_stall(self):
        cluster = make_hybrid()
        ctx = ClientContext(0, 0)
        run_op(cluster, cluster.engines[0].client_write(ctx, 7, "v1"))
        value, latency = run_op(
            cluster, cluster.engines[3].client_read(ClientContext(1, 3), 7))
        assert value is None          # stale, but immediate
        assert latency < 5_000

    def test_concurrent_cross_dc_writers_converge(self):
        cluster = make_hybrid()
        run_op(cluster, cluster.engines[0].client_write(
            ClientContext(0, 0), 7, "from-dc0"))
        run_op(cluster, cluster.engines[3].client_write(
            ClientContext(1, 3), 7, "from-dc1"))
        cluster.sim.run(until=cluster.sim.now + 5 * CROSS_DC_RTT)
        finals = {e.replicas.get(7).applied_value for e in cluster.engines}
        assert len(finals) == 1

    def test_causal_local_model_supported(self):
        cluster = make_hybrid(model=DdpModel(C.CAUSAL, P.SYNCHRONOUS))
        ctx = ClientContext(0, 0)
        run_op(cluster, cluster.engines[0].client_write(ctx, 7, "v1"))
        cluster.sim.run(until=cluster.sim.now + 3 * CROSS_DC_RTT)
        for engine in cluster.engines:
            assert engine.replicas.get(7).applied_value == "v1"


class TestHybridWorkload:
    def test_full_workload_runs_and_beats_global_strong(self):
        """A hybrid deployment over a slow WAN vastly outperforms running
        the same strong model across all six nodes."""
        config = ClusterConfig(servers=6, clients_per_server=3)
        hybrid_summary = harness.run(
            LIN_SYNC, 60_000, config=config, cluster_class=HybridCluster,
            groups=2, servers_per_group=3,
            cross_dc_round_trip_ns=CROSS_DC_RTT).summary

        def wan_one_way(src, dst):
            return (500.0 if (src // 3) == (dst // 3)
                    else CROSS_DC_RTT / 2)

        global_cluster = Cluster(LIN_SYNC, config=config,
                                 workload=WORKLOADS["A"])
        global_cluster.network.one_way_fn = wan_one_way
        global_summary = global_cluster.run(duration_ns=60_000,
                                            warmup_ns=6_000)
        assert hybrid_summary.requests > 0
        assert (hybrid_summary.throughput_ops_per_s
                > 2 * global_summary.throughput_ops_per_s)


class TestHybridObserved:
    @staticmethod
    def build(model=LIN_SYNC, **observers):
        return HybridCluster(model, groups=2, servers_per_group=3,
                             cross_dc_round_trip_ns=CROSS_DC_RTT,
                             config=ClusterConfig(clients_per_server=2),
                             workload=WORKLOADS["A"], **observers)

    def test_takes_every_observer_and_audits_clean(self):
        """Section 9's contract, from observation alone: Linearizable
        inside a datacenter is *not* Linearizable system-wide, and the
        deployment's own cell — Eventual across, its persistency
        everywhere — audits clean."""
        report = observed_sections(LIN_SYNC, self.build)
        assert not report["audit"]["target"]["ok"]
        report = observed_sections(LIN_SYNC, self.build,
                                   consistency="eventual")
        assert report["audit"]["target"]["ok"]

    def test_crash_restart_ends_in_a_verdict(self):
        """Membership, ``fail_node`` and ``restart_node`` are inherited:
        a fault plan runs to a ``validate_faulty_run`` verdict."""
        injector = FaultInjector(plan_from_crash_specs(["1@20+15"], seed=7))
        cluster = self.build(faults=injector)
        summary = cluster.run(80_000, 8_000)
        assert summary.requests > 0
        assert (injector.crashes, injector.restarts) == (1, 1)
        assert sorted(cluster.membership.live) == list(range(6))
        results = validate_faulty_run(cluster)
        assert results and all(result.ok for result in results), results
