"""Figure 6 — performance of all 25 DDP models under YCSB-A.

Panels (all normalized to <Linearizable, Synchronous>):
  (a) throughput  (b) mean read latency  (c) mean write latency
  (d) mean latency  (e) p95 read latency  (f) p95 write latency

Asserted shapes (paper Section 8.1):
* Linearizable consistency is the slowest group; Causal and Eventual
  the fastest, often 2-3x higher throughput.
* <Eventual, Eventual> tops out around 3.3x <Linearizable, Synchronous>.
* Within each consistency group, Strict persistency is slowest and
  Eventual persistency fastest.
* Read-Enforced consistency is only modestly above Linearizable
  (read stalls on unpersisted writes: >30% of reads conflict in
  <Read-Enforced, Read-Enforced>).
* Transactional consistency is held back by transaction conflicts.
* Causal+Synchronous buffers orders of magnitude more writes than
  Causal+Eventual.
"""

import pytest

from conftest import (DURATION_NS, WARMUP_NS, archive, archive_json,
                      run_cached)

from repro.analysis.report import format_figure6_table, format_grid
from repro.core.model import Consistency as C, DdpModel, Persistency as P, all_ddp_models


@pytest.fixture(scope="module")
def fig6():
    return {model: run_cached(model) for model in all_ddp_models()}


def thr(fig6, consistency, persistency):
    return fig6[DdpModel(consistency, persistency)].throughput_ops_per_s


def test_fig6_generate_all_panels(fig6):
    archive("fig6_performance", format_figure6_table(fig6))


def test_fig6a_consistency_group_ordering(fig6):
    """Linearizable lowest; Causal/Eventual highest (2-3x)."""
    base = thr(fig6, C.LINEARIZABLE, P.SYNCHRONOUS)
    for persistency in (P.SYNCHRONOUS, P.EVENTUAL):
        assert thr(fig6, C.CAUSAL, persistency) > 1.8 * base
        assert thr(fig6, C.EVENTUAL, persistency) > 1.8 * base


def test_fig6a_eventual_eventual_headline_ratio(fig6):
    """The paper's 3.3x extreme case (we accept the 2.5x-4.5x band)."""
    ratio = (thr(fig6, C.EVENTUAL, P.EVENTUAL)
             / thr(fig6, C.LINEARIZABLE, P.SYNCHRONOUS))
    assert 2.5 <= ratio <= 4.5, f"got {ratio:.2f}x (paper: 3.3x)"


def test_fig6a_strict_slowest_eventual_fastest_within_groups(fig6):
    """In aggregate, Strict persistency slowest; Eventual fastest."""
    for consistency in C:
        strict = thr(fig6, consistency, P.STRICT)
        eventual = thr(fig6, consistency, P.EVENTUAL)
        sync = thr(fig6, consistency, P.SYNCHRONOUS)
        assert strict <= sync * 1.05, consistency
        assert eventual >= strict, consistency


def test_fig6a_read_enforced_consistency_modest(fig6):
    """Read-Enforced consistency gains over Linearizable are limited by
    read stalls — well below the Causal group."""
    re_sync = thr(fig6, C.READ_ENFORCED, P.SYNCHRONOUS)
    lin_sync = thr(fig6, C.LINEARIZABLE, P.SYNCHRONOUS)
    causal_sync = thr(fig6, C.CAUSAL, P.SYNCHRONOUS)
    assert lin_sync < re_sync < causal_sync


def test_fig6_read_conflict_fraction_re_re(fig6):
    """Paper: >30% of reads conflict with a yet-to-persist write in
    <Read-Enforced, Read-Enforced> (vs 5.1% in Ganesan's 10-client
    setup)."""
    summary = fig6[DdpModel(C.READ_ENFORCED, P.READ_ENFORCED)]
    reads = summary.requests * 0.5
    fraction = summary.reads_blocked_by_unpersisted / reads
    assert fraction > 0.25, f"got {fraction:.1%} (paper: >30%)"


def test_fig6bc_latency_inverse_to_throughput(fig6):
    """Throughput is inversely correlated with mean latencies: the
    Causal/Eventual groups have the lowest read+write latencies."""
    lin = fig6[DdpModel(C.LINEARIZABLE, P.SYNCHRONOUS)]
    causal = fig6[DdpModel(C.CAUSAL, P.SYNCHRONOUS)]
    assert causal.mean_read_ns < lin.mean_read_ns
    assert causal.mean_write_ns < lin.mean_write_ns


def test_fig6c_transactional_write_latency_high(fig6):
    """Conflict squashes and ENDX bunching give Transactional the worst
    write latencies (and tails, panel f)."""
    txn = fig6[DdpModel(C.TRANSACTIONAL, P.SYNCHRONOUS)]
    lin = fig6[DdpModel(C.LINEARIZABLE, P.SYNCHRONOUS)]
    assert txn.txn_conflicts > 0
    if txn.duration_ns < 100_000:
        pytest.skip("window too short for squashed transactions to retire "
                    "(raise REPRO_BENCH_DURATION_NS)")
    assert txn.mean_write_ns > lin.mean_write_ns
    assert txn.p95_write_ns > lin.p95_write_ns


def test_fig6_causal_buffering_orders_of_magnitude(fig6):
    """Section 8.1.2: Causal+Synchronous needs ~1-2 orders of magnitude
    more buffered writes than Causal+Eventual."""
    sync_peak = fig6[DdpModel(C.CAUSAL, P.SYNCHRONOUS)].causal_buffer_peak
    evt_peak = fig6[DdpModel(C.CAUSAL, P.EVENTUAL)].causal_buffer_peak
    assert sync_peak >= 10 * max(evt_peak, 1)


def test_fig6_traffic_shapes(fig6):
    """Causal carries cauhists and Transactional adds begin/end rounds:
    both move more bytes per request than plain Eventual consistency."""
    def bytes_per_request(model):
        summary = fig6[model]
        return summary.total_bytes / max(summary.requests, 1)

    causal = bytes_per_request(DdpModel(C.CAUSAL, P.SYNCHRONOUS))
    eventual = bytes_per_request(DdpModel(C.EVENTUAL, P.SYNCHRONOUS))
    assert causal > eventual


def test_fig6_emit_bench_json(fig6):
    archive_json(
        "fig6",
        config={
            "workload": "YCSB-A",
            "duration_ns": DURATION_NS,
            "warmup_ns": WARMUP_NS,
            "models": [str(model) for model in fig6],
        },
        metrics={str(model): summary for model, summary in fig6.items()},
    )


def test_fig6_archive_raw_numbers(fig6):
    rows = []
    for model, summary in fig6.items():
        rows.append(
            f"{str(model):<44} thr={summary.throughput_ops_per_s/1e6:8.2f}M "
            f"rd={summary.mean_read_ns:7.0f} wr={summary.mean_write_ns:7.0f} "
            f"p95rd={summary.p95_read_ns:7.0f} p95wr={summary.p95_write_ns:7.0f} "
            f"msgs={summary.total_messages:>8} bytes={summary.total_bytes:>10}")
    archive("fig6_raw", "\n".join(rows))
