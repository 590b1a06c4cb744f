"""Tests for the closed-loop client driver."""

import pytest

from repro.core.model import Consistency as C, DdpModel, Persistency as P
from repro.workload.client import TXN_RETRY_BACKOFF_NS
from repro.workload.ycsb import WORKLOADS
from tests import harness
from tests.harness import SMALL


def make_cluster(consistency, persistency, clients=2):
    return harness.build(DdpModel(consistency, persistency),
                         SMALL.with_overrides(clients_per_server=clients))


class TestClosedLoop:
    def test_clients_complete_requests(self):
        cluster = make_cluster(C.CAUSAL, P.EVENTUAL)
        cluster.run(duration_ns=30_000)
        assert all(client.completed_requests > 0
                   for client in cluster.clients)

    def test_request_stop_is_graceful(self):
        cluster = make_cluster(C.LINEARIZABLE, P.SYNCHRONOUS)
        cluster.run(duration_ns=30_000)
        for client in cluster.clients:
            client.request_stop()
        cluster.sim.run(until=cluster.sim.now + 300_000)
        for client in cluster.clients:
            assert client.process.triggered     # loop exited
        for engine in cluster.engines:
            for replica in engine.replicas:
                assert not replica.transient

    def test_interrupt_handled_as_shutdown(self):
        cluster = make_cluster(C.CAUSAL, P.EVENTUAL)
        cluster.run(duration_ns=10_000)
        client = cluster.clients[0]
        client.process.interrupt("test shutdown")
        cluster.sim.run(until=cluster.sim.now + 50_000)
        assert client.process.triggered
        assert client.process.ok                # clean return, not a crash

    def test_op_records_attributed_to_client(self):
        cluster = make_cluster(C.EVENTUAL, P.EVENTUAL)
        cluster.run(duration_ns=20_000)
        client_ids = {op.client for op in cluster.metrics.ops}
        assert len(client_ids) == len(cluster.clients)


class TestScopedClients:
    def test_persist_issued_every_scope_length(self):
        cluster = make_cluster(C.LINEARIZABLE, P.SCOPE)
        cluster.run(duration_ns=100_000)
        persists = [op for op in cluster.metrics.ops
                    if op.op_type == "persist"]
        requests = [op for op in cluster.metrics.ops
                    if op.op_type in ("read", "write")]
        assert persists, "no scope Persist calls were issued"
        scope_length = cluster.config.protocol.scope_length
        # One persist per scope_length requests, within slack for
        # scopes still open at the end of the run.
        assert len(persists) >= len(requests) // scope_length * 0.5


class TestTransactionalClients:
    def test_txns_grouped_and_retried(self):
        cluster = make_cluster(C.TRANSACTIONAL, P.SYNCHRONOUS, clients=4)
        summary = cluster.run(duration_ns=150_000, warmup_ns=5_000)
        assert cluster.txn_table.committed > 0
        txn_records = [op for op in cluster.metrics.ops
                       if op.op_type == "txn"]
        assert txn_records
        # Each committed transaction contributed txn_length requests.
        txn_length = cluster.config.protocol.txn_length
        requests = [op for op in cluster.metrics.ops
                    if op.op_type in ("read", "write")]
        assert len(requests) == len(txn_records) * txn_length

    def test_request_latency_spans_retries(self):
        """With conflicts, some requests' recorded latencies include the
        backoff-and-retry time (>> a single attempt)."""
        cluster = harness.build(DdpModel(C.TRANSACTIONAL, P.SYNCHRONOUS),
                                SMALL.with_overrides(clients_per_server=6),
                                WORKLOADS["A"].with_overrides(key_space=30))
        cluster.run(duration_ns=200_000, warmup_ns=5_000)
        if cluster.txn_table.conflicts == 0:
            pytest.skip("no conflicts materialized in this run")
        latencies = [op.latency_ns for op in cluster.metrics.ops
                     if op.op_type in ("read", "write")]
        assert max(latencies) > TXN_RETRY_BACKOFF_NS
