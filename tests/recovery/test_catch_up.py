"""Tests for the simulated recovery process: a restarted node scans its
NVM image and catches up from its peers, in simulated time, before it
serves again."""

import pytest

from repro.cluster.config import ClusterConfig
from repro.core.context import ClientContext
from repro.core.model import (Consistency as C, DdpModel, Persistency as P,
                              all_ddp_models)
from tests import harness
from tests.harness import idle, run_op


def crashed_cluster(consistency, persistency, writes=30):
    cluster = idle(DdpModel(consistency, persistency))
    engine, ctx = cluster.engines[0], ClientContext(0, 0)
    for i in range(writes):
        run_op(cluster, engine.client_write(ctx, i, f"v{i}"))
    cluster.crash_all()
    return cluster


def restart_all(cluster):
    """``repro recover``: every node restarts at once; returns each
    node's time to serve."""
    sim = cluster.sim
    sim.run_until_complete(sim.all_of(
        [cluster.restart_node(node.node_id) for node in cluster.nodes]))
    return [engine.time_to_serve for engine in cluster.engines]


class TestCatchUp:
    def test_scan_time_scales_with_image_size(self):
        small = restart_all(crashed_cluster(
            C.LINEARIZABLE, P.SYNCHRONOUS, writes=5))
        large = restart_all(crashed_cluster(
            C.LINEARIZABLE, P.SYNCHRONOUS, writes=60))
        for before, after in zip(small, large):
            assert after.scan_ns > before.scan_ns

    def test_strict_recovery_has_no_divergence(self):
        """Strict models leave every node with the same persistent
        view: nothing to fetch after a whole-cluster crash."""
        served = restart_all(crashed_cluster(C.LINEARIZABLE, P.STRICT))
        assert [ready.fetched for ready in served] == [0, 0, 0]

    def test_weak_models_pay_more_reconciliation(self):
        """Eventual consistency leaves the nodes' images apart (lazy
        propagation still pending at the crash): the catch-up ships keys
        and takes longer than the strict one."""
        strict = restart_all(crashed_cluster(C.LINEARIZABLE, P.STRICT))
        weak = restart_all(crashed_cluster(C.EVENTUAL, P.SYNCHRONOUS))
        assert sum(ready.fetched for ready in weak) > 0
        assert max(ready.catch_up_ns for ready in weak) > \
            max(ready.catch_up_ns for ready in strict)

    def test_recovered_state_returned(self):
        cluster = crashed_cluster(C.LINEARIZABLE, P.SYNCHRONOUS, writes=10)
        restart_all(cluster)
        for engine in cluster.engines:
            assert engine.alive
            assert len(list(engine.replicas)) == 10
            assert engine.replicas.peek(3).applied_value == "v3"

    def test_total_is_scan_plus_reconcile(self):
        """A restarted node's clients reconnect exactly scan plus
        catch-up after the restart: that is its time to serve."""
        cluster = harness.run(DdpModel(C.LINEARIZABLE, P.SYNCHRONOUS),
                              60_000.0, warmup=0.0, plan="1@20+15",
                              config=ClusterConfig(servers=3,
                                                   clients_per_server=1)
                              ).cluster
        ready = cluster.engines[1].time_to_serve
        assert ready.scan_ns > 0 and ready.catch_up_ns > 0
        first = min(op.start_ns for op in cluster.metrics.ops
                    if op.client == 1 and op.start_ns >= 35_000.0)
        assert first == pytest.approx(
            35_000.0 + ready.scan_ns + ready.catch_up_ns)

    @pytest.mark.parametrize("model", all_ddp_models(), ids=str)
    def test_a_restart_no_detector_saw_serves_again(self, model):
        """Without a membership service nobody settles what the crashed
        node left open at its peers — its INVs, the rounds waiting for
        its ACKs — until the restart does: the catch-up must not wait
        on them forever."""
        cluster = harness.run(model, 20_000.0, config=ClusterConfig(
            servers=3, clients_per_server=2)).cluster
        cluster.fail_node(1)
        cluster.sim.run(until=cluster.sim.now + 1_000.0)
        restarted = cluster.sim.now
        cluster.sim.run_until_complete(cluster.restart_node(1))
        cluster.sim.run(until=cluster.sim.now + 40_000.0)
        assert any(op.node == 1 and op.start_ns > restarted
                   for op in cluster.metrics.ops)
