"""Injector mechanics: crash lifecycle, verdicts, attachment discipline."""

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.config import ClusterConfig
from repro.core.model import Consistency, DdpModel, Persistency
from repro.faults import (FaultInjector, FaultPlan, faults_json,
                          load_fault_plan)
from tests import harness

MODEL = DdpModel(Consistency.LINEARIZABLE, Persistency.SYNCHRONOUS)


def build(plan, model=MODEL, servers=3, clients=2, seed=2021):
    cluster = harness.build(model, plan=plan, config=ClusterConfig(
        servers=servers, clients_per_server=clients, seed=seed))
    return cluster, cluster.faults


class TestAttachment:
    def test_single_use(self):
        plan = FaultPlan()
        cluster, injector = build(plan)
        with pytest.raises(RuntimeError, match="single-use"):
            injector.attach(cluster)

    def test_requires_membership(self):
        cluster, _ = build(FaultPlan())
        bare = Cluster(MODEL, config=ClusterConfig(servers=3,
                                                   clients_per_server=0))
        assert bare.membership is None
        with pytest.raises(RuntimeError, match="membership"):
            FaultInjector(FaultPlan()).attach(bare)

    def test_rejects_out_of_range_targets(self):
        plan = load_fault_plan({"events": [
            {"kind": "crash", "node": 7, "at_us": 1}]})
        with pytest.raises(ValueError, match="targets node 7"):
            build(plan)

    def test_network_hook_only_for_message_faults(self):
        crash_plan = load_fault_plan({"events": [
            {"kind": "crash", "node": 0, "at_us": 5}]})
        cluster, _ = build(crash_plan)
        assert cluster.network.faults is None
        lossy_plan = load_fault_plan({"events": [
            {"kind": "drop", "at_us": 1, "duration_us": 2,
             "probability": 0.5}]})
        cluster, injector = build(lossy_plan)
        assert cluster.network.faults is injector
        assert cluster.membership.lossy

    def test_random_node_resolved_at_attach(self):
        plan = load_fault_plan({"seed": 4, "events": [
            {"kind": "crash", "at_us": 5}]})
        _, injector = build(plan)
        resolved = injector.resolved_events[0]
        assert resolved.node in (0, 1, 2)
        # Same plan seed resolves to the same node.
        _, injector2 = build(load_fault_plan(
            {"seed": 4, "events": [{"kind": "crash", "at_us": 5}]}))
        assert injector2.resolved_events[0].node == resolved.node


class TestCrashLifecycle:
    def test_crash_detect_restart_sequence(self):
        plan = load_fault_plan({"detection_delay_us": 2.0, "events": [
            {"kind": "crash", "node": 1, "at_us": 10,
             "restart_after_us": 15}]})
        cluster, injector = build(plan)
        cluster.run(60_000.0, warmup_ns=2_000.0)
        assert (injector.crashes, injector.detections,
                injector.restarts) == (1, 1, 1)
        kinds = [r["kind"] for r in injector.records]
        assert kinds == ["crash", "detect", "restart"]
        times = [r["t_us"] for r in injector.records]
        assert times == [10.0, 12.0, 25.0]
        # Membership round-tripped: epoch bumped twice, all live again.
        assert cluster.membership.epoch == 2
        assert sorted(cluster.membership.live) == [0, 1, 2]
        assert cluster.nodes[1].engine.alive

    def test_a_detected_crash_counts_the_rounds_it_shrinks(self):
        """Detection drops the crashed node from every round still open
        on a survivor, and ``rounds_retargeted`` counts each such round
        once; no watchdog shrinks one later."""
        plan = load_fault_plan({"events": [
            {"kind": "crash", "node": 1, "at_us": 10}]})
        cluster, _ = build(plan)
        shrinking = []

        def open_rounds_waiting_for(crashed):
            rounds = [round_ for engine in cluster.engines if engine.alive
                      for op in engine._outstanding_writes.values()
                      for round_ in (op.ack_c, op.ack_p)
                      if round_ is not None]
            rounds += [round_ for engine in cluster.engines if engine.alive
                       for round_ in engine._outstanding_rounds.values()]
            shrinking.append(sum(round_.open and crashed in round_.targets
                                 for round_ in rounds))

        # Notified before the engines, which subscribed as nodes 0..2.
        cluster.membership.subscribe(-1, open_rounds_waiting_for)
        cluster.run(60_000.0, warmup_ns=2_000.0)
        assert len(shrinking) == 1 and shrinking[0] > 0
        assert sum(e.rounds_retargeted for e in cluster.engines) == shrinking[0]

    def test_crash_without_restart_leaves_node_down(self):
        plan = load_fault_plan({"events": [
            {"kind": "crash", "node": 2, "at_us": 10}]})
        cluster, injector = build(plan)
        cluster.run(60_000.0, warmup_ns=2_000.0)
        assert injector.restarts == 0
        assert not cluster.nodes[2].engine.alive
        assert sorted(cluster.membership.live) == [0, 1]
        # The survivors kept completing writes against the shrunk set.
        live_clients = [c for c in cluster.clients
                        if c.node.node_id != 2]
        assert all(c.completed_requests > 0 for c in live_clients)

    def test_restart_before_detection_suppresses_it(self):
        """A blink shorter than the detector's resolution never bumps
        the epoch (marking the rebooted node crashed would wedge it)."""
        plan = load_fault_plan({"detection_delay_us": 10.0, "events": [
            {"kind": "crash", "node": 1, "at_us": 10,
             "restart_after_us": 2}]})
        cluster, injector = build(plan)
        cluster.run(60_000.0, warmup_ns=2_000.0)
        assert injector.detections == 0
        # Never marked crashed, so the rejoin no-ops: epoch untouched.
        assert cluster.membership.epoch == 0
        assert sorted(cluster.membership.live) == [0, 1, 2]
        # The restart settled what the blink left open at the peers, so
        # the node caught up and its clients work again.
        assert cluster.engines[1].time_to_serve is not None
        assert any(op.node == 1 and op.start_ns > 12_000.0
                   for op in cluster.metrics.ops)

    def test_restarted_node_reseeded_from_nvm(self):
        plan = load_fault_plan({"events": [
            {"kind": "crash", "node": 1, "at_us": 20,
             "restart_after_us": 10}]})
        cluster, _ = build(plan, model=DdpModel(Consistency.LINEARIZABLE,
                                                Persistency.STRICT))
        cluster.run(80_000.0, warmup_ns=2_000.0)
        engine = cluster.engines[1]
        recovered_any = False
        for replica in engine.replicas:
            if replica.persisted_version[0] > 0:
                recovered_any = True
                assert replica.applied_version >= replica.persisted_version
        assert recovered_any

    def test_abandons_dead_coordinators_transactions(self):
        plan = load_fault_plan({"events": [
            {"kind": "crash", "node": 0, "at_us": 20}]})
        cluster, injector = build(
            plan, model=DdpModel(Consistency.TRANSACTIONAL,
                                 Persistency.SYNCHRONOUS), clients=3)
        cluster.run(100_000.0, warmup_ns=2_000.0)
        # Node 0's clients were mid-transaction at the crash; those
        # transactions must not linger in the table squashing survivors.
        assert all(txn.node != 0
                   for txn in cluster.txn_table._active.values())


class TestNetworkVerdicts:
    def test_partition_drops_cross_group_only(self):
        plan = load_fault_plan({"events": [
            {"kind": "partition", "at_us": 0, "duration_us": 10_000,
             "groups": [[0], [1, 2]]}]})
        cluster, injector = build(plan)
        verdict = injector.on_message(0, 1, None, 64)
        assert verdict is not None and verdict.drop
        assert injector.on_message(1, 2, None, 64) is None
        assert injector.on_message(2, 1, None, 64) is None

    def test_windows_respect_time_bounds(self):
        plan = load_fault_plan({"events": [
            {"kind": "drop", "at_us": 10, "duration_us": 5,
             "probability": 1.0}]})
        cluster, injector = build(plan)
        assert injector.on_message(0, 1, None, 64) is None  # before window
        cluster.sim.run(until=12_000.0)
        verdict = injector.on_message(0, 1, None, 64)
        assert verdict is not None and verdict.drop
        cluster.sim.run(until=15_000.0)
        assert injector.on_message(0, 1, None, 64) is None  # after window

    def test_src_dst_matchers(self):
        plan = load_fault_plan({"events": [
            {"kind": "drop", "at_us": 0, "duration_us": 10_000,
             "probability": 1.0, "src": 0, "dst": 2}]})
        _, injector = build(plan)
        assert injector.on_message(0, 2, None, 64).drop
        assert injector.on_message(0, 1, None, 64) is None
        assert injector.on_message(2, 0, None, 64) is None

    def test_delay_and_duplicate_compose(self):
        plan = load_fault_plan({"events": [
            {"kind": "delay", "at_us": 0, "duration_us": 10_000,
             "extra_us": 2.0},
            {"kind": "duplicate", "at_us": 0, "duration_us": 10_000,
             "probability": 1.0}]})
        _, injector = build(plan)
        verdict = injector.on_message(0, 1, None, 64)
        assert not verdict.drop
        assert verdict.delay_ns == 2_000.0
        assert verdict.copies == 2


class TestNvmSlowdown:
    def test_slowdown_window_applied_and_reverted(self):
        plan = load_fault_plan({"events": [
            {"kind": "nvm_slow", "node": 0, "at_us": 10, "duration_us": 20,
             "factor": 8.0}]})
        cluster, injector = build(plan)
        cluster.sim.run(until=15_000.0)
        assert cluster.nodes[0].memory.nvm.slowdown == 8.0
        assert cluster.nodes[1].memory.nvm.slowdown == 1.0
        cluster.sim.run(until=40_000.0)
        assert cluster.nodes[0].memory.nvm.slowdown == 1.0
        assert injector.nvm_slow_windows == 1


class TestFaultsJson:
    def test_report_section_shape(self):
        plan = load_fault_plan({"events": [
            {"kind": "crash", "node": 1, "at_us": 10,
             "restart_after_us": 10},
            {"kind": "drop", "at_us": 5, "duration_us": 30,
             "probability": 0.2}]})
        cluster, injector = build(plan)
        cluster.run(60_000.0, warmup_ns=2_000.0)
        section = faults_json(injector)
        assert section["plan"]["events"][0]["kind"] == "drop"
        assert section["injected"]["crashes"] == 1
        assert section["injected"]["restarts"] == 1
        assert section["injected"]["messages_dropped"] == \
            cluster.network.dropped_messages
        assert section["membership"]["live"] == [0, 1, 2]
        assert section["rounds"]["resends"] == \
            sum(e.round_resends for e in cluster.engines)
        assert section["events_dropped"] == 0
        kinds = {r["kind"] for r in section["events"]}
        assert {"crash", "detect", "restart", "drop", "drop_end"} <= kinds
