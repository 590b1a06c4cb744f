"""Protocol-semantics tests for the DDP engine (paper Figures 2-5).

Each test builds a small cluster with no workload clients and drives
client operations by hand, then asserts the visibility/durability
contracts of the model: when writes complete, what reads stall on, what
is persisted when, and which messages flow.
"""

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.config import ClusterConfig
from repro.core.context import ClientContext
from repro.core.engine import (LAZY_PROPAGATION_DELAY_NS, MSG_PROC_NS,
                               PROTOCOL_WORKERS, ProtocolConfig)
from repro.core.messages import Message, MsgType
from repro.core.model import Consistency as C, DdpModel, Persistency as P
from repro.core.replica import ZERO_VERSION
from repro.txn.manager import TxnConflict
from tests.harness import idle, run_op

RTT = 1000.0
NVM_WRITE = 400.0


def make_cluster(consistency, persistency, servers=3):
    return idle(DdpModel(consistency, persistency), servers)


def quiesce(cluster, horizon=200_000.0):
    """Let all background protocol activity finish."""
    cluster.sim.run(until=cluster.sim.now + horizon)


class TestLinearizableSynchronous:
    """Figure 2(a)/(b)."""

    def test_write_completes_after_all_replicas_durable(self):
        cluster = make_cluster(C.LINEARIZABLE, P.SYNCHRONOUS)
        ctx = ClientContext(0, 0)
        run_op(cluster, cluster.engines[0].client_write(ctx, 7, "v1"))
        # At completion every node has applied AND persisted the update.
        for engine in cluster.engines:
            replica = engine.replicas.get(7)
            assert replica.applied_value == "v1"
            assert replica.persisted_value == "v1"

    def test_write_latency_includes_round_and_persist(self):
        cluster = make_cluster(C.LINEARIZABLE, P.SYNCHRONOUS)
        ctx = ClientContext(0, 0)
        _, latency = run_op(cluster,
                            cluster.engines[0].client_write(ctx, 7, "v1"))
        assert latency >= RTT + NVM_WRITE

    def test_follower_read_stalls_until_val(self):
        cluster = make_cluster(C.LINEARIZABLE, P.SYNCHRONOUS)
        sim = cluster.sim
        writer_ctx = ClientContext(0, 0)
        reader_ctx = ClientContext(1, 1)
        write = sim.process(
            cluster.engines[0].client_write(writer_ctx, 7, "v1"))
        # Give the INV time to reach the follower and make key 7 transient.
        sim.run(until=RTT / 2 + 300)
        read = sim.process(cluster.engines[1].client_read(reader_ctx, 7))
        value = sim.run_until_complete(read)
        assert write.triggered
        assert value == "v1"           # never the stale value
        assert cluster.metrics.read_stalls >= 1

    def test_read_without_conflict_is_fast(self):
        cluster = make_cluster(C.LINEARIZABLE, P.SYNCHRONOUS)
        ctx = ClientContext(0, 0)
        run_op(cluster, cluster.engines[0].client_write(ctx, 7, "v1"))
        quiesce(cluster)
        _, latency = run_op(cluster, cluster.engines[1].client_read(ctx, 7))
        assert latency < RTT  # no network round needed for a quiet key

    def test_message_flow_counts(self):
        cluster = make_cluster(C.LINEARIZABLE, P.SYNCHRONOUS, servers=3)
        ctx = ClientContext(0, 0)
        run_op(cluster, cluster.engines[0].client_write(ctx, 7, "v1"))
        quiesce(cluster)
        by_type = cluster.metrics.messages_by_type
        assert by_type[MsgType.INV.value] == 2   # one per follower
        assert by_type[MsgType.ACK.value] == 2
        assert by_type[MsgType.VAL.value] == 2
        assert MsgType.UPD.value not in by_type

    def test_concurrent_writers_serialize(self):
        """Two coordinators writing the same key: both complete, and all
        replicas converge on the same final version."""
        cluster = make_cluster(C.LINEARIZABLE, P.SYNCHRONOUS)
        sim = cluster.sim
        w0 = sim.process(cluster.engines[0].client_write(
            ClientContext(0, 0), 7, "from0"))
        w1 = sim.process(cluster.engines[1].client_write(
            ClientContext(1, 1), 7, "from1"))
        sim.run_until_complete(w0)
        sim.run_until_complete(w1)
        quiesce(cluster)
        finals = {e.replicas.get(7).applied_value for e in cluster.engines}
        assert len(finals) == 1
        versions = {e.replicas.get(7).applied_version
                    for e in cluster.engines}
        assert len(versions) == 1


class TestReadEnforcedConsistency:
    """Figure 2(c)/(d): writes return immediately; reads wait."""

    def test_write_returns_before_followers_apply(self):
        cluster = make_cluster(C.READ_ENFORCED, P.SYNCHRONOUS)
        ctx = ClientContext(0, 0)
        _, latency = run_op(cluster,
                            cluster.engines[0].client_write(ctx, 7, "v1"))
        assert latency < RTT  # did not wait for the round trip
        follower = cluster.engines[1].replicas.get(7)
        assert follower.applied_version == ZERO_VERSION
        quiesce(cluster)
        assert cluster.engines[1].replicas.get(7).applied_value == "v1"

    def test_read_waits_for_propagation_and_persist(self):
        cluster = make_cluster(C.READ_ENFORCED, P.SYNCHRONOUS)
        ctx = ClientContext(0, 0)
        run_op(cluster, cluster.engines[0].client_write(ctx, 7, "v1"))
        value, latency = run_op(
            cluster, cluster.engines[0].client_read(ClientContext(1, 0), 7))
        assert value == "v1"
        assert latency >= RTT / 2  # stalled for the round to finish
        # By read completion, everything is durable everywhere.
        for engine in cluster.engines:
            assert engine.replicas.get(7).persisted_value == "v1"


class TestLinearizableReadEnforcedPersistency:
    """Figure 3(a)/(b): dual ACKs, reads wait for VAL_p."""

    def test_write_completes_before_cluster_durable(self):
        cluster = make_cluster(C.LINEARIZABLE, P.READ_ENFORCED)
        ctx = ClientContext(0, 0)
        run_op(cluster, cluster.engines[0].client_write(ctx, 7, "v1"))
        # All volatile replicas updated (Linearizable requirement) ...
        for engine in cluster.engines:
            assert engine.replicas.get(7).applied_value == "v1"
        # ... but durability everywhere is NOT yet guaranteed.
        coordinator = cluster.engines[0].replicas.get(7)
        assert coordinator.cluster_persisted_version < coordinator.applied_version

    def test_read_stalls_until_cluster_persisted(self):
        cluster = make_cluster(C.LINEARIZABLE, P.READ_ENFORCED)
        ctx = ClientContext(0, 0)
        run_op(cluster, cluster.engines[0].client_write(ctx, 7, "v1"))
        value, _ = run_op(cluster,
                          cluster.engines[1].client_read(ClientContext(1, 1), 7))
        assert value == "v1"
        replica = cluster.engines[1].replicas.get(7)
        assert replica.cluster_persisted_version >= replica.applied_version
        assert cluster.metrics.reads_blocked_by_unpersisted >= 1

    def test_dual_ack_message_flow(self):
        cluster = make_cluster(C.LINEARIZABLE, P.READ_ENFORCED, servers=3)
        ctx = ClientContext(0, 0)
        run_op(cluster, cluster.engines[0].client_write(ctx, 7, "v1"))
        quiesce(cluster)
        by_type = cluster.metrics.messages_by_type
        assert by_type[MsgType.ACK_C.value] == 2
        assert by_type[MsgType.ACK_P.value] == 2
        assert by_type[MsgType.VAL_P.value] == 2


class TestCausal:
    """Figures 2(e)/(f) and 3(c)/(d)."""

    def test_write_is_local_latency(self):
        cluster = make_cluster(C.CAUSAL, P.SYNCHRONOUS)
        ctx = ClientContext(0, 0)
        _, latency = run_op(cluster,
                            cluster.engines[0].client_write(ctx, 7, "v1"))
        assert latency < RTT

    def test_upd_carries_causal_history(self):
        cluster = make_cluster(C.CAUSAL, P.SYNCHRONOUS)
        ctx = ClientContext(0, 0)
        run_op(cluster, cluster.engines[0].client_write(ctx, 1, "a"))
        run_op(cluster, cluster.engines[0].client_write(ctx, 2, "b"))
        quiesce(cluster)
        by_type = cluster.metrics.messages_by_type
        assert by_type[MsgType.UPD.value] == 4  # 2 writes x 2 followers
        assert MsgType.INV.value not in by_type

    def test_out_of_order_update_buffers_until_dependency(self):
        """Figure 2(f): d2 (depending on d1) arrives first and buffers."""
        cluster = make_cluster(C.CAUSAL, P.SYNCHRONOUS)
        sim = cluster.sim
        follower = cluster.engines[1]
        d1 = Message(MsgType.UPD, src=0, op_id=101, key=1, version=(1, 0),
                     value="d1")
        d2 = Message(MsgType.UPD, src=0, op_id=102, key=2, version=(1, 0),
                     value="d2", cauhist=((1, (1, 0)),))
        # Deliver d2 first.
        follower.nic.sink(d2)
        sim.run(until=sim.now + 5_000)
        assert follower.replicas.get(2).applied_version == ZERO_VERSION
        assert follower.causal_buffer_len == 1
        # Now deliver d1: both apply, in causal order, both persisted.
        follower.nic.sink(d1)
        sim.run(until=sim.now + 20_000)
        assert follower.replicas.get(1).persisted_value == "d1"
        assert follower.replicas.get(2).persisted_value == "d2"
        assert follower.causal_buffer_len == 0

    def test_sync_read_returns_persisted_version(self):
        """<Causal, Synchronous>: a read returns the latest *persisted*
        version so that it is recoverable (Figure 2(f))."""
        cluster = make_cluster(C.CAUSAL, P.SYNCHRONOUS)
        engine = cluster.engines[0]
        replica = engine.replicas.get(7)
        replica.apply((5, 0), "applied-only")
        replica.mark_persisted((4, 0), "persisted")
        value, _ = run_op(cluster, engine.client_read(ClientContext(0, 0), 7))
        assert value == "persisted"

    def test_read_enforced_read_waits_for_local_persist(self):
        """<Causal, Read-Enforced> (Figure 3(c)): reads stall until the
        latest visible version is durable."""
        cluster = make_cluster(C.CAUSAL, P.READ_ENFORCED)
        engine = cluster.engines[0]
        ctx = ClientContext(0, 0)
        run_op(cluster, engine.client_write(ctx, 7, "v1"))
        value, _ = run_op(cluster, engine.client_read(ClientContext(1, 0), 7))
        assert value == "v1"
        replica = engine.replicas.get(7)
        assert replica.persisted_version >= replica.applied_version

    def test_client_reads_own_write_in_causal_history(self):
        """A client that reads x then writes y produces y's cauhist
        containing x."""
        cluster = make_cluster(C.CAUSAL, P.EVENTUAL)
        ctx_a = ClientContext(0, 0)
        run_op(cluster, cluster.engines[0].client_write(ctx_a, 1, "x"))
        quiesce(cluster)
        ctx_b = ClientContext(1, 1)
        run_op(cluster, cluster.engines[1].client_read(ctx_b, 1))
        assert ctx_b.dependency_count == 1


class TestEventualConsistency:
    def test_propagation_is_lazy(self):
        cluster = make_cluster(C.EVENTUAL, P.EVENTUAL)
        ctx = ClientContext(0, 0)
        run_op(cluster, cluster.engines[0].client_write(ctx, 7, "v1"))
        cluster.sim.run(until=cluster.sim.now + LAZY_PROPAGATION_DELAY_NS / 2)
        assert cluster.engines[1].replicas.get(7).applied_version == ZERO_VERSION
        quiesce(cluster)
        assert cluster.engines[1].replicas.get(7).applied_value == "v1"

    def test_eventual_persist_is_lazy(self):
        cluster = make_cluster(C.EVENTUAL, P.EVENTUAL)
        ctx = ClientContext(0, 0)
        run_op(cluster, cluster.engines[0].client_write(ctx, 7, "v1"))
        replica = cluster.engines[0].replicas.get(7)
        assert replica.persisted_version == ZERO_VERSION
        quiesce(cluster)
        assert replica.persisted_value == "v1"
        for engine in cluster.engines:
            assert engine.replicas.get(7).persisted_value == "v1"


class TestStrictPersistency:
    def test_write_waits_for_durability_everywhere(self):
        for consistency in (C.LINEARIZABLE, C.CAUSAL, C.EVENTUAL):
            cluster = make_cluster(consistency, P.STRICT)
            ctx = ClientContext(0, 0)
            _, latency = run_op(cluster,
                                cluster.engines[0].client_write(ctx, 7, "v"))
            assert latency >= RTT, consistency
            for engine in cluster.engines:
                assert engine.replicas.get(7).persisted_value == "v", consistency


class TestTransactional:
    """Figure 4."""

    def _cluster(self, persistency=P.SYNCHRONOUS):
        return make_cluster(C.TRANSACTIONAL, persistency)

    def test_commit_flow_applies_and_persists_everywhere(self):
        cluster = self._cluster()
        engine = cluster.engines[0]
        ctx = ClientContext(0, 0)
        run_op(cluster, engine.client_begin_txn(ctx))
        run_op(cluster, engine.client_write(ctx, 1, "a"))
        run_op(cluster, engine.client_write(ctx, 2, "b"))
        run_op(cluster, engine.client_end_txn(ctx))
        for e in cluster.engines:
            assert e.replicas.get(1).persisted_value == "a"
            assert e.replicas.get(2).persisted_value == "b"
        assert cluster.txn_table.committed == 1

    def test_writes_inside_txn_are_fast(self):
        cluster = self._cluster()
        engine = cluster.engines[0]
        ctx = ClientContext(0, 0)
        run_op(cluster, engine.client_begin_txn(ctx))
        _, latency = run_op(cluster, engine.client_write(ctx, 1, "a"))
        assert latency < RTT
        run_op(cluster, engine.client_end_txn(ctx))

    def test_reads_inside_txn_do_not_stall(self):
        cluster = self._cluster()
        engine = cluster.engines[0]
        ctx = ClientContext(0, 0)
        run_op(cluster, engine.client_begin_txn(ctx))
        run_op(cluster, engine.client_write(ctx, 1, "a"))
        value, latency = run_op(cluster, engine.client_read(ctx, 1))
        assert value == "a"
        assert latency < RTT
        run_op(cluster, engine.client_end_txn(ctx))

    def test_conflicting_txn_is_squashed(self):
        cluster = self._cluster()
        sim = cluster.sim
        e0, e1 = cluster.engines[0], cluster.engines[1]
        ctx_old = ClientContext(0, 0)
        ctx_young = ClientContext(1, 1)
        run_op(cluster, e0.client_begin_txn(ctx_old))
        run_op(cluster, e1.client_begin_txn(ctx_young))
        run_op(cluster, e0.client_write(ctx_old, 5, "old"))
        conflict = sim.process(e1.client_write(ctx_young, 5, "young"))
        with pytest.raises(TxnConflict):
            sim.run_until_complete(conflict)
        run_op(cluster, e1.client_abort_txn(ctx_young))
        run_op(cluster, e0.client_end_txn(ctx_old))
        assert cluster.txn_table.committed == 1
        assert cluster.txn_table.aborted == 1
        quiesce(cluster)
        for e in cluster.engines:
            assert e.replicas.get(5).applied_value == "old"

    def test_endx_message_flow(self):
        cluster = self._cluster()
        engine = cluster.engines[0]
        ctx = ClientContext(0, 0)
        run_op(cluster, engine.client_begin_txn(ctx))
        run_op(cluster, engine.client_write(ctx, 1, "a"))
        run_op(cluster, engine.client_end_txn(ctx))
        quiesce(cluster)
        by_type = cluster.metrics.messages_by_type
        assert by_type[MsgType.INITX.value] == 2
        assert by_type[MsgType.ENDX.value] == 2
        assert by_type[MsgType.VAL.value] == 2

    def test_abort_leaves_no_transient_state(self):
        cluster = self._cluster()
        engine = cluster.engines[0]
        ctx = ClientContext(0, 0)
        run_op(cluster, engine.client_begin_txn(ctx))
        run_op(cluster, engine.client_write(ctx, 1, "a"))
        cluster.txn_table.abort(ctx.txn)
        run_op(cluster, engine.client_abort_txn(ctx))
        quiesce(cluster)
        for e in cluster.engines:
            assert not e.replicas.get(1).transient

    def test_txn_eventual_persists_lazily(self):
        cluster = self._cluster(P.EVENTUAL)
        engine = cluster.engines[0]
        ctx = ClientContext(0, 0)
        run_op(cluster, engine.client_begin_txn(ctx))
        run_op(cluster, engine.client_write(ctx, 1, "a"))
        run_op(cluster, engine.client_end_txn(ctx))
        quiesce(cluster)
        for e in cluster.engines:
            assert e.replicas.get(1).persisted_value == "a"


class TestScope:
    """Figure 5."""

    def test_writes_do_not_persist_until_scope_end(self):
        cluster = make_cluster(C.LINEARIZABLE, P.SCOPE)
        engine = cluster.engines[0]
        ctx = ClientContext(0, 0)
        run_op(cluster, engine.client_write(ctx, 1, "a"))
        quiesce(cluster)
        for e in cluster.engines:
            assert e.replicas.get(1).applied_value == "a"
            assert e.replicas.get(1).persisted_version == ZERO_VERSION

    def test_persist_call_makes_scope_durable_everywhere(self):
        cluster = make_cluster(C.LINEARIZABLE, P.SCOPE)
        engine = cluster.engines[0]
        ctx = ClientContext(0, 0)
        run_op(cluster, engine.client_write(ctx, 1, "a"))
        run_op(cluster, engine.client_write(ctx, 2, "b"))
        scope_id = ctx.current_scope_id
        run_op(cluster, engine.client_persist_scope(ctx))
        for node_id, e in enumerate(cluster.engines):
            assert e.replicas.get(1).persisted_value == "a"
            assert e.replicas.get(2).persisted_value == "b"
            assert cluster.nvm_log.is_scope_committed(node_id, scope_id)

    def test_empty_scope_persist_is_noop(self):
        cluster = make_cluster(C.LINEARIZABLE, P.SCOPE)
        engine = cluster.engines[0]
        ctx = ClientContext(0, 0)
        run_op(cluster, engine.client_persist_scope(ctx))
        assert cluster.metrics.persists == 0

    def test_scope_messages_are_tagged(self):
        cluster = make_cluster(C.LINEARIZABLE, P.SCOPE)
        engine = cluster.engines[0]
        ctx = ClientContext(0, 0)
        run_op(cluster, engine.client_write(ctx, 1, "a"))
        run_op(cluster, engine.client_persist_scope(ctx))
        quiesce(cluster)
        by_type = cluster.metrics.messages_by_type
        assert by_type[MsgType.PERSIST.value] == 2
        assert by_type[MsgType.ACK_P.value] == 2
        assert by_type[MsgType.VAL_P.value] == 2

    def test_causal_scope_persist(self):
        cluster = make_cluster(C.CAUSAL, P.SCOPE)
        engine = cluster.engines[0]
        ctx = ClientContext(0, 0)
        run_op(cluster, engine.client_write(ctx, 1, "a"))
        run_op(cluster, engine.client_persist_scope(ctx))
        for e in cluster.engines:
            assert e.replicas.get(1).persisted_value == "a"

    def test_scopes_unsupported_elsewhere(self):
        cluster = make_cluster(C.LINEARIZABLE, P.SYNCHRONOUS)
        ctx = ClientContext(0, 0)
        with pytest.raises(RuntimeError):
            cluster.sim.run_until_complete(cluster.sim.process(
                cluster.engines[0].client_persist_scope(ctx)))


class TestTransactionsUnsupportedOutsideTxnModel:
    def test_begin_txn_rejected(self):
        cluster = make_cluster(C.CAUSAL, P.SYNCHRONOUS)
        ctx = ClientContext(0, 0)
        with pytest.raises(RuntimeError):
            cluster.sim.run_until_complete(cluster.sim.process(
                cluster.engines[0].client_begin_txn(ctx)))


class TestPersistDrain:
    """The write-combining drain behind ``_request_persist``."""

    @staticmethod
    def _waiter(engine, replica, version, value, woke):
        yield from engine._ensure_persisted(replica, version, value, "inline")
        woke.append((engine.sim.now, version))

    def test_requests_in_one_instant_combine_into_one_media_write(self):
        cluster = make_cluster(C.LINEARIZABLE, P.SYNCHRONOUS)
        sim, engine = cluster.sim, cluster.engines[0]
        replica = engine.replicas.get(7)
        woke = []
        sim.run(until=1_000.0)
        # Two requests for the key at T=1000: the second overwrites the
        # pending slot before the drain (one hop later) takes it.
        sim.process(self._waiter(engine, replica, (1, 0), "a", woke))
        sim.process(self._waiter(engine, replica, (2, 0), "b", woke))
        sim.run(until=1_100.0)
        assert engine.memory.nvm.persists == 1 and replica.persist_active
        # A request landing mid-service refills the slot: one more write,
        # started when the first completes.
        sim.process(self._waiter(engine, replica, (3, 0), "c", woke))
        quiesce(cluster)
        assert woke == [(1_000.0 + NVM_WRITE, (1, 0)),
                        (1_000.0 + NVM_WRITE, (2, 0)),
                        (1_000.0 + 2 * NVM_WRITE, (3, 0))]
        assert engine.memory.nvm.persists == 2
        assert cluster.metrics.persists == 2
        assert (replica.persisted_version, replica.persisted_value) \
            == ((3, 0), "c")
        assert not replica.persist_active and replica.persist_target is None

    def test_persist_in_flight_at_a_crash_still_lands(self):
        """The media write was issued before the crash: it completes and
        the durable image (replica state and NVM log) holds it."""
        cluster = make_cluster(C.LINEARIZABLE, P.SYNCHRONOUS)
        sim, engine = cluster.sim, cluster.engines[1]
        replica = engine.replicas.get(7)
        engine._request_persist(replica, (1, 1), "v", "inline")
        sim.run(until=100.0)
        assert engine.memory.nvm.outstanding == 1
        engine.crash()
        quiesce(cluster)
        assert not engine.alive
        assert (replica.persisted_version, replica.persisted_value) \
            == ((1, 1), "v")
        assert cluster.nvm_log.durable_version(1, 7) == (1, 1)
        assert engine.memory.nvm.outstanding == 0
        assert not replica.persist_active


class TestArrivalPath:
    """The NIC sink: arrivals while crashed, worker admission, and the
    chain ablation's use of ``delivered``."""

    def test_message_landing_while_crashed_is_dropped_and_holds_no_worker(self):
        cluster = make_cluster(C.LINEARIZABLE, P.SYNCHRONOUS)
        sim, follower = cluster.sim, cluster.engines[1]
        inv = Message(MsgType.INV, src=0, op_id=1024, key=7, version=(1, 0),
                      value="v")
        follower.crash()
        cluster.network.send(0, 1, inv, inv.size_bytes)
        sim.step()                                   # the landing
        assert follower.nic.messages_received == 1   # it did reach the NIC
        assert follower.protocol_workers.total_acquires == 0
        assert sim.queue_depth == 0                  # no handler scheduled
        quiesce(cluster)
        assert follower.replicas.get(7).applied_version == ZERO_VERSION
        assert cluster.metrics.total_messages == 0   # and nothing was ACKed

        follower.restart({})
        follower.nic.sink(inv)
        assert follower.protocol_workers.total_acquires == 1
        quiesce(cluster)
        assert follower.replicas.get(7).applied_value == "v"

    def test_a_val_ends_only_its_own_invalidation(self):
        """Two writers' INVs on one key: the first VAL leaves the key
        Invalid until the second writer's VAL comes too."""
        cluster = make_cluster(C.LINEARIZABLE, P.SYNCHRONOUS)
        follower = cluster.engines[1]
        for src, op_id, version in ((0, 1024, (1, 0)), (2, 1026, (1, 2))):
            follower.nic.sink(Message(MsgType.INV, src=src, op_id=op_id,
                                      key=7, version=version, value="v"))
        quiesce(cluster)
        replica = follower.replicas.peek(7)
        assert replica.transient
        follower.nic.sink(Message(MsgType.VAL, src=0, op_id=1024, key=7,
                                  version=(1, 0)))
        quiesce(cluster)
        assert replica.transient
        follower.nic.sink(Message(MsgType.VAL, src=2, op_id=1026, key=7,
                                  version=(1, 2)))
        quiesce(cluster)
        assert not replica.transient

    def test_handler_starts_after_the_protocol_cpu_charge(self):
        from repro.obs.profile import KernelProfile
        from repro.sim.trace import Tracer

        tracer = Tracer()
        profile = KernelProfile()
        cluster = idle(DdpModel(C.EVENTUAL, P.EVENTUAL), tracer=tracer,
                       profile=profile)
        sim, follower = cluster.sim, cluster.engines[1]
        # One VAL_p per protocol worker fills them all; the next five
        # arrivals queue behind them: plain handlers (VAL_p, ACK) and a
        # generator one (INITX, which here ends without waiting) share
        # one FIFO.
        fill = [(MsgType.VAL_P, 100 + k) for k in range(PROTOCOL_WORKERS)]
        queued = [(MsgType.VAL_P, 1), (MsgType.VAL_P, 2), (MsgType.INITX, 3),
                  (MsgType.VAL_P, 4), (MsgType.ACK, 5)]
        for msg_type, op_id in fill + queued:
            follower.nic.sink(Message(msg_type, src=0, op_id=op_id))
        assert profile.processes_spawned == 0
        sim.run(until=1_000.0)
        proc = MSG_PROC_NS
        handled = [(r.time, r.dur, r.details["msg"],
                    r.details["op_id"])
                   for r in tracer.by_category("msg_handle") if r.node == 1]
        assert handled == (
            [(proc, proc, msg_type.value, op_id) for msg_type, op_id in fill]
            + [(2 * proc, 2 * proc, msg_type.value, op_id)
               for msg_type, op_id in queued])
        assert follower.protocol_workers.peak_queue_len == len(queued)
        # Only the generator handler cost a process, started in place;
        # the instrument counts every handled message under its type.
        assert profile.processes_spawned == 1
        assert "process_start" not in profile.by_event_kind
        assert {label: stats[0]
                for label, stats in profile.by_msg_type.items()} == {
            "VAL_p": 3 + PROTOCOL_WORKERS, "INITX": 1,
            "ACK": 2}   # + node 0 handling our ACK

    @staticmethod
    def _observed_cluster(consistency, persistency, monkeypatch):
        """A 3-server cluster with a ``msg_handle`` tracer and a kernel
        profile whose clock ticks once per reading, so every timed
        handler segment adds exactly 1.0 to its type's wall."""
        import itertools
        from types import SimpleNamespace

        from repro.obs import profile as profile_module
        from repro.sim.trace import Tracer

        ticks = itertools.count()
        monkeypatch.setattr(profile_module, "time", SimpleNamespace(
            perf_counter=lambda: float(next(ticks))))
        tracer = Tracer()
        profile = profile_module.KernelProfile()
        cluster = idle(DdpModel(consistency, persistency), tracer=tracer,
                       profile=profile)
        return cluster, tracer, profile

    @staticmethod
    def _handled(tracer, node=1):
        return [(r.time, r.dur, r.details["msg"], r.details["op_id"])
                for r in tracer.by_category("msg_handle") if r.node == node]

    #: One arrival of each type at an idle <Eventual, Eventual> follower:
    #: what the handler waits for after its CPU charge ("llc": the DDIO
    #: deposit), what it sends back, and whether it is a generator
    #: (which costs one process, started in place).
    _ARRIVALS = {
        MsgType.INV: ("llc", {"ACK_c": 1}, False),
        MsgType.UPD: ("llc", {}, False),
        MsgType.ACK: (None, {}, False),
        MsgType.ACK_C: (None, {}, False),
        MsgType.ACK_P: (None, {}, False),
        MsgType.VAL: (None, {}, False),
        MsgType.VAL_C: (None, {}, False),
        MsgType.VAL_P: (None, {}, False),
        MsgType.INITX: (None, {"ACK": 1}, True),
        MsgType.ENDX: (None, {"ACK": 1}, True),
        MsgType.PERSIST: (None, {"ACK_p": 1}, True),
    }

    @pytest.mark.parametrize("msg_type", list(MsgType), ids=lambda t: t.name)
    def test_every_arrival_is_one_call_at_entry_at_cpu_done(
            self, msg_type, monkeypatch):
        """The one path from the wire to a handler: whatever the type,
        an arrival pushes a single ``call_at`` entry for ``_handle_now``
        at the end of its protocol-CPU charge — no ``process_start``."""
        waits_for, replies, is_generator = self._ARRIVALS[msg_type]
        cluster, tracer, profile = self._observed_cluster(
            C.EVENTUAL, P.EVENTUAL, monkeypatch)
        sim, follower = cluster.sim, cluster.engines[1]
        message = Message(msg_type, src=0, op_id=1024, key=7, version=(1, 0),
                          value="v", scope_id=3)
        follower.nic.sink(message)
        proc = MSG_PROC_NS
        [(when, [(fn, args)])] = sim._queue.items()
        assert (when, fn) == (proc, follower._handle_now)
        assert args == (follower.nic.incarnation, False,
                        follower._handlers[msg_type.label], message, 0.0)
        sim.run(until=proc)
        done_at = proc
        if waits_for == "llc":
            assert self._handled(tracer) == []        # parked on the deposit
            done_at += follower.memory.caches.llc.round_trip_ns
            sim.run(until=done_at)
        assert self._handled(tracer) == [
            (done_at, done_at, msg_type.value, 1024)]
        assert cluster.metrics.messages_by_type == replies
        count, _wall, resumes = profile.by_msg_type[msg_type.value]
        assert (count, resumes) == (1, 1 if waits_for else 0)
        assert profile.processes_spawned == (1 if is_generator else 0)
        assert "process_start" not in profile.by_event_kind

    @pytest.mark.parametrize("persistency, msg_type, fields, resumes", [
        # INITX under inline persistency persists the begin record
        # (two waits: the NVM bank, then its write).
        (P.SYNCHRONOUS, MsgType.INITX, {"txn_id": 5}, 2),
        # ENDX waits for the transaction's writes to be applied here.
        (P.EVENTUAL, MsgType.ENDX,
         {"txn_id": 5, "payload": ((7, (1, 0)),)}, 1),
    ], ids=["INITX-inline-persist", "ENDX-unapplied-key"])
    def test_generator_handler_parks_and_resumes_as_one_process(
            self, persistency, msg_type, fields, resumes, monkeypatch):
        """A handler that loops over waits is a generator function: the
        same ``call_at`` entry calls it, and the generator it returns
        runs as a process started in place."""
        cluster, tracer, profile = self._observed_cluster(
            C.TRANSACTIONAL, persistency, monkeypatch)
        sim, follower = cluster.sim, cluster.engines[1]
        message = Message(msg_type, src=0, op_id=1024, **fields)
        follower.nic.sink(message)
        proc = MSG_PROC_NS
        assert profile.processes_spawned == 0
        sim.run(until=proc)
        assert profile.processes_spawned == 1        # parked, as a process
        assert self._handled(tracer) == []
        assert cluster.metrics.messages_by_type == {}
        if msg_type is MsgType.ENDX:
            # Parked on the replica's condition until the write lands.
            inv = Message(MsgType.INV, src=0, op_id=2048, key=7,
                          version=(1, 0), value="v")
            follower.nic.sink(inv)
            done_at = 2 * proc + follower.memory.caches.llc.round_trip_ns
        else:
            done_at = proc + NVM_WRITE
        quiesce(cluster)
        assert (done_at, done_at, msg_type.value, 1024) \
            in self._handled(tracer)
        assert cluster.metrics.messages_by_type["ACK"] == 1
        assert profile.by_msg_type[msg_type.value][0::2] == [1, resumes]
        assert profile.processes_spawned == 1
        assert "process_start" not in profile.by_event_kind

    def test_inv_handler_is_one_span_and_one_count_across_its_segments(
            self, monkeypatch):
        """<Linearizable, Synchronous> INV: protocol CPU, DDIO round
        trip, inline persist, ACK.  It parks twice, so it runs as three
        segments — which from outside are still one handler."""
        cluster, tracer, profile = self._observed_cluster(
            C.LINEARIZABLE, P.SYNCHRONOUS, monkeypatch)
        sim, follower = cluster.sim, cluster.engines[1]
        inv = Message(MsgType.INV, src=0, op_id=1024, key=7, version=(1, 0),
                      value="v")
        follower.nic.sink(inv)
        quiesce(cluster)
        proc = MSG_PROC_NS
        llc = follower.memory.caches.llc.round_trip_ns
        acked_at = proc + llc + NVM_WRITE
        # arrival -> ACK sent, not arrival -> first park
        assert self._handled(tracer) == [(acked_at, acked_at, "INV", 1024)]
        assert cluster.metrics.messages_by_type == {"ACK": 1}
        # counted once, resumed twice, all three segments timed
        assert profile.by_msg_type["INV"] == [1, 3.0, 2]
        assert profile.processes_spawned == 0

    def test_upd_handler_span_covers_the_buffered_updates_it_releases(
            self, monkeypatch):
        """<Causal, Synchronous> UPD whose apply + persist unblocks a
        buffered update: the handler ends when that one is applied and
        persisted too (the only stretch that runs as a process)."""
        cluster, tracer, profile = self._observed_cluster(
            C.CAUSAL, P.SYNCHRONOUS, monkeypatch)
        sim, follower = cluster.sim, cluster.engines[1]
        dependent = Message(MsgType.UPD, src=0, op_id=2048, key=8,
                            version=(1, 0), value="b",
                            cauhist=((7, (1, 0)),))
        first = Message(MsgType.UPD, src=0, op_id=1024, key=7,
                        version=(1, 0), value="a")
        follower.nic.sink(dependent)   # buffered
        follower.nic.sink(first)
        quiesce(cluster)
        proc = MSG_PROC_NS
        llc = follower.memory.caches.llc.round_trip_ns
        first_durable = proc + llc + NVM_WRITE
        released_durable = first_durable + llc + NVM_WRITE
        assert self._handled(tracer) == [
            (proc, proc, "UPD", 2048),               # buffered: one segment
            (released_durable, released_durable, "UPD", 1024)]
        assert follower.replicas.get(8).persisted_value == "b"
        assert follower.causal_buffer_len == 0
        # Two messages, and the second parked four times: at its DDIO
        # deposit and its persist, then at the released update's.  Timed
        # stretches: 1 for the buffered one; 3 callback segments and 3
        # of the release loop (its in-place start is timed on its own).
        assert profile.by_msg_type["UPD"] == [2, 7.0, 4]
        assert profile.processes_spawned == 2    # the loop + _mark_durable's

    @pytest.mark.parametrize("consistency, persistency, msg_type, reply", [
        (C.LINEARIZABLE, P.SYNCHRONOUS, MsgType.INV, {"ACK": 1}),
        (C.CAUSAL, P.SYNCHRONOUS, MsgType.UPD, {}),
    ])
    def test_ddio_spill_applies_after_the_dram_write(
            self, consistency, persistency, msg_type, reply):
        """No DDIO room: the payload goes through a DRAM bank instead of
        the LLC round trip, and the handler carries on from there."""
        from repro.sim.trace import Tracer

        tracer = Tracer()
        cluster = idle(DdpModel(consistency, persistency), tracer=tracer)
        sim, follower = cluster.sim, cluster.engines[1]
        llc = follower.memory.caches.llc
        llc.ddio_capacity = 0
        message = Message(msg_type, src=0, op_id=1024, key=7, version=(1, 0),
                          value="v")
        follower.nic.sink(message)
        proc = MSG_PROC_NS
        dram_write = follower.memory.dram.timing.write_ns
        sim.run(until=proc + dram_write - 1.0)
        replica = follower.replicas.get(7)
        assert replica.applied_version == ZERO_VERSION    # still in the bank
        assert follower.memory.dram.banks_busy == 1
        quiesce(cluster)
        assert (llc.ddio_deposits, llc.ddio_spills, llc.ddio_used) == (1, 1, 0)
        assert follower.memory.dram.writes == 1
        assert (replica.applied_version, replica.applied_value) \
            == ((1, 0), "v")
        assert replica.persisted_version == (1, 0)
        done_at = proc + dram_write + NVM_WRITE
        assert self._handled(tracer) == [
            (done_at, done_at, msg_type.value, 1024)]
        assert cluster.metrics.messages_by_type == reply

    def test_chain_ablation_still_serialises_hop_by_hop(self):
        from repro.sim.trace import Tracer

        tracer = Tracer()
        config = ClusterConfig(servers=4, clients_per_server=0,
                               store_type=None,
                               protocol=ProtocolConfig(chain_propagation=True))
        cluster = Cluster(DdpModel(C.EVENTUAL, P.SYNCHRONOUS), config=config,
                          tracer=tracer)
        cluster.start()
        run_op(cluster, cluster.engines[0].client_write(
            ClientContext(0, 0), 7, "v"))
        quiesce(cluster)
        sends = [r for r in tracer.by_category("msg_send")
                 if r.details["msg"] == "UPD"]
        landings = {r.node: r.time for r in tracer.by_category("net_deliver")
                    if r.details["src"] == 0}
        assert [r.details["dst"] for r in sends] == [1, 2, 3]
        # hop k+1 is injected at the instant hop k lands, not before
        assert sends[1].time == landings[1]
        assert sends[2].time == landings[2]
        assert sends[0].time < sends[1].time < sends[2].time


class TestBroadcastFrame:
    """A broadcast is one ``Network.send`` and one metrics record;
    traced, it is handed over destination by destination, because the
    ``msg_send`` / ``net_send`` interleaving is part of the trace."""

    @staticmethod
    def _broadcast(tracer=None, targets=None):
        cluster = idle(DdpModel(C.EVENTUAL, P.EVENTUAL), 4, tracer=tracer)
        sends, send = [], cluster.network.send

        def spy(src, dst, *rest):
            sends.append(dst)
            send(src, dst, *rest)

        cluster.network.send = spy    # protocol sends look it up per call
        message = Message(MsgType.UPD, src=0, op_id=1024, key=7,
                          version=(1, 0), value="v")
        cluster.sim.call_at(0.0, cluster.engines[0]._broadcast, message,
                            False, targets)
        cluster.sim.step()
        return cluster, sends

    def test_untraced_it_is_one_send_one_record_one_heap_entry(self):
        cluster, sends = self._broadcast()
        assert sends == [[1, 2, 3]]
        assert cluster.metrics.messages_by_type == {"UPD": 3}
        assert cluster.network.nic(0).messages_sent == 3
        assert len(cluster.sim._times) == 1 and cluster.sim.queue_depth == 3

    def test_traced_it_goes_destination_by_destination(self):
        from repro.sim.trace import Tracer

        tracer = Tracer()
        traced, sends = self._broadcast(tracer)
        plain, _sends = self._broadcast()
        assert sends == [1, 2, 3]
        assert [r.category for r in tracer.records
                if r.category in ("msg_send", "net_send")] == \
            ["msg_send", "net_send"] * 3
        assert traced.metrics.messages_by_type == \
            plain.metrics.messages_by_type
        assert traced.metrics.bytes_by_type == plain.metrics.bytes_by_type
        assert {when: len(entries) for when, entries
                in traced.sim._queue.items()} == \
            {when: len(entries) for when, entries
             in plain.sim._queue.items()}

    def test_nobody_to_send_to_records_nothing(self):
        cluster, sends = self._broadcast(targets=[])
        assert sends == [] and cluster.metrics.messages_by_type == {}


@pytest.mark.parametrize("consistency, persistency, processes, entries", [
    # A transaction's write spawns no process that only waits for its
    # ACKs (ENDX confirms the round): 297 processes with one (and 2,772
    # pops, against 2,658, when calls were stored in runs).
    (C.TRANSACTIONAL, P.EVENTUAL, 183, 3_696),
    # An UPD's ACK_p round has no empty ACK_c round triggering beside
    # it: 8,010 pops with one, against 7,683, when calls were stored in
    # runs.
    (C.CAUSAL, P.READ_ENFORCED, 980, 9_987),
], ids=["txn-eventual", "causal-read_enforced"])
def test_no_process_or_round_that_only_waits(consistency, persistency,
                                             processes, entries):
    """Kernel work of one small fixed run, pinned: simulated results
    cannot tell a waiter-only process or an already-complete filler
    round from none, these counters can — processes spawned, and the
    entries the loop ran (pops plus the entries that shared a pop's
    instant)."""
    from repro.obs import KernelProfile
    from repro.workload.ycsb import WORKLOADS

    profile = KernelProfile()
    cluster = Cluster(DdpModel(consistency, persistency),
                      config=ClusterConfig(servers=3, clients_per_server=3,
                                           seed=2021),
                      workload=WORKLOADS["A"], profile=profile)
    cluster.run(40_000.0, warmup_ns=4_000.0)
    assert (profile.processes_spawned,
            profile.events_processed + profile.calls_coalesced) == \
        (processes, entries)
