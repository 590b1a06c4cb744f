"""Figure 8 — NIC-to-NIC round-trip latency sensitivity (0.5/1/2 us).

Asserted shapes (paper Section 8.2):
* Linearizable-consistency models slow down as the RTT grows (network
  rounds are on the critical path) — ~12% from 1 us to 2 us for
  <Linearizable, Synchronous>.
* Causal-consistency models are barely affected (updates propagate in
  the background).
"""

import pytest

from conftest import archive, run_cached

from repro.cluster.config import ClusterConfig
from repro.core.model import Consistency as C, DdpModel, Persistency as P
from repro.net.network import NetworkConfig

RTTS_NS = [500.0, 1000.0, 2000.0]
CONSISTENCIES = [C.LINEARIZABLE, C.CAUSAL]


def config_for(rtt_ns):
    return ClusterConfig(network=NetworkConfig(round_trip_ns=rtt_ns))


@pytest.fixture(scope="module")
def fig8():
    results = {}
    for rtt in RTTS_NS:
        for consistency in CONSISTENCIES:
            for persistency in P:
                model = DdpModel(consistency, persistency)
                results[(rtt, model)] = run_cached(model,
                                                   config=config_for(rtt))
    return results


def thr(fig8, rtt, consistency, persistency):
    return fig8[(rtt, DdpModel(consistency, persistency))].throughput_ops_per_s


def test_fig8_generate(fig8):
    base = thr(fig8, 1000.0, C.LINEARIZABLE, P.SYNCHRONOUS)
    lines = ["Figure 8: throughput vs NIC-to-NIC RTT "
             "(normalized to <Linear, Synchronous> @ 1us)"]
    for rtt in RTTS_NS:
        for consistency in CONSISTENCIES:
            cells = [f"{p.short_name}={thr(fig8, rtt, consistency, p) / base:5.2f}"
                     for p in P]
            lines.append(f"{rtt / 1000:.1f}us {consistency.short_name:<12} "
                         + "  ".join(cells))
    archive("fig8_network", "\n".join(lines))


def test_fig8_linearizable_sensitive_to_rtt(fig8):
    fast = thr(fig8, 500.0, C.LINEARIZABLE, P.SYNCHRONOUS)
    default = thr(fig8, 1000.0, C.LINEARIZABLE, P.SYNCHRONOUS)
    slow = thr(fig8, 2000.0, C.LINEARIZABLE, P.SYNCHRONOUS)
    assert fast > default > slow
    drop = 1 - slow / default
    assert drop > 0.05, f"1us->2us drop only {drop:.1%} (paper: ~12%)"


def test_fig8_causal_insensitive_to_rtt(fig8):
    for persistency in (P.SYNCHRONOUS, P.EVENTUAL):
        values = [thr(fig8, rtt, C.CAUSAL, persistency) for rtt in RTTS_NS]
        spread = max(values) / min(values)
        assert spread < 1.10, (
            f"causal/{persistency.value} varies {spread:.2f}x with RTT")


def test_fig8_causal_less_sensitive_than_linearizable(fig8):
    def sensitivity(consistency, persistency):
        values = [thr(fig8, rtt, consistency, persistency)
                  for rtt in RTTS_NS]
        return max(values) / min(values)

    for persistency in P:
        assert (sensitivity(C.CAUSAL, persistency)
                <= sensitivity(C.LINEARIZABLE, persistency) + 0.02), persistency
