"""Staleness measurement and live session-guarantee validation.

Table 4's programmer-intuition column says which models provide
monotonic reads.  Here we *validate it empirically*: live workload runs
with per-client read logs are checked with the monotonic-read checker,
and the VersionBoard quantifies how stale reads get per model.
"""

import pytest

from repro.analysis.staleness import VersionBoard
from repro.cluster.cluster import Cluster
from repro.cluster.config import ClusterConfig
from repro.core.model import Consistency as C, DdpModel, Persistency as P
from repro.core.tradeoffs import analyze
from repro.faults.validate import check_monotonic_reads
from repro.workload.client import Client
from repro.workload.ycsb import WORKLOADS, RequestStream


class TestVersionBoard:
    def test_fresh_read_scores_zero(self):
        board = VersionBoard()
        board.note_write(1, (3, 0))
        assert board.score_read(1, (3, 0)) == 0

    def test_stale_read_counts_versions_behind(self):
        board = VersionBoard()
        board.note_write(1, (5, 0))
        assert board.score_read(1, (2, 0)) == 3

    def test_read_of_unwritten_key(self):
        board = VersionBoard()
        assert board.score_read(9, (0, -1)) == 0

    def test_summary_statistics(self):
        board = VersionBoard()
        board.note_write(1, (4, 0))
        for version in [(4, 0), (2, 0), (4, 0), (1, 0)]:
            board.score_read(1, version)
        summary = board.summarize()
        assert summary.reads_scored == 4
        assert summary.stale_reads == 2
        assert summary.stale_fraction == pytest.approx(0.5)
        assert summary.max_versions_behind == 3

    def test_latest_tracks_max(self):
        board = VersionBoard()
        board.note_write(1, (2, 0))
        board.note_write(1, (1, 0))
        assert board.latest(1) == (2, 0)


def run_with_recording(consistency, persistency, duration_ns=60_000):
    board = VersionBoard()
    cluster = Cluster(DdpModel(consistency, persistency),
                      config=ClusterConfig(servers=3, clients_per_server=4,
                                           store_type=None),
                      version_board=board)
    # Build recording clients by hand (Cluster's default ones don't log).
    for client_id in range(12):
        node = cluster.nodes[client_id % 3]
        stream = RequestStream(WORKLOADS["A"],
                               cluster.rng.fork(f"rc{client_id}"))
        cluster.clients.append(Client(cluster.sim, client_id, node.engine,
                                      stream, cluster.metrics,
                                      record_ops=True))
    cluster.run(duration_ns=duration_ns, warmup_ns=duration_ns / 10)
    return cluster, board


class TestLiveSessionGuarantees:
    @pytest.mark.parametrize("consistency,persistency", [
        (C.LINEARIZABLE, P.SYNCHRONOUS),
        (C.LINEARIZABLE, P.READ_ENFORCED),
        (C.READ_ENFORCED, P.SYNCHRONOUS),
        (C.CAUSAL, P.SYNCHRONOUS),
        (C.CAUSAL, P.READ_ENFORCED),
    ])
    def test_monotonic_models_never_regress(self, consistency, persistency):
        """Every model Table 4 marks monotonic passes the live check."""
        assert analyze(DdpModel(consistency, persistency)).monotonic_reads
        cluster, _board = run_with_recording(consistency, persistency)
        for client in cluster.clients:
            result = check_monotonic_reads([client.read_observations])
            assert result.ok, (consistency, persistency, result.details)

    def test_linearizable_reads_never_stale(self):
        _cluster, board = run_with_recording(C.LINEARIZABLE, P.SYNCHRONOUS)
        summary = board.summarize()
        assert summary.reads_scored > 0
        # Lin reads may trail a *concurrent* in-flight write by design,
        # but never a completed one; staleness stays at the race margin.
        assert summary.mean_versions_behind < 0.5

    def test_eventual_shows_real_staleness(self):
        _cluster, board = run_with_recording(C.EVENTUAL, P.EVENTUAL)
        summary = board.summarize()
        assert summary.stale_reads > 0

    def test_causal_sync_staleness_from_persist_lag(self):
        """<Causal, Synchronous> reads return the persisted version, so
        they lag whenever the NVM backlog grows — strictly more stale
        than <Causal, Eventual> reads, which return the applied one."""
        _c1, sync_board = run_with_recording(C.CAUSAL, P.SYNCHRONOUS)
        _c2, evt_board = run_with_recording(C.CAUSAL, P.EVENTUAL)
        assert (sync_board.summarize().mean_versions_behind
                >= evt_board.summarize().mean_versions_behind)
