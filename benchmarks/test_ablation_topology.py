"""Ablation — leaderless broadcast vs sequential (chain) propagation.

The paper's protocols broadcast coordinator messages to all followers
"instead of sending a message that sequentially visits all the other
replica nodes" (Section 5).  This ablation runs <Linearizable,
Synchronous> both ways: the chain adds one network hop per extra
follower to the critical path, so broadcast must win and the gap must
grow with the replication factor.
"""

import dataclasses

import pytest

from conftest import DURATION_NS, archive, archive_json, run_cached

from repro.cluster.config import ClusterConfig
from repro.core.engine import ProtocolConfig
from repro.core.model import Consistency as C, DdpModel, Persistency as P

MODEL = DdpModel(C.LINEARIZABLE, P.SYNCHRONOUS)


def config_for(chain, servers=5):
    protocol = ProtocolConfig(chain_propagation=chain)
    return ClusterConfig(servers=servers,
                         clients_per_server=100 // servers,
                         protocol=protocol)


@pytest.fixture(scope="module")
def sweep():
    results = {}
    for servers in (3, 5):
        for chain in (False, True):
            results[(servers, chain)] = run_cached(
                MODEL, config=config_for(chain, servers))
    return results


def test_ablation_generate(sweep):
    lines = ["Ablation: broadcast vs sequential chain propagation "
             "(<Linearizable, Synchronous>)",
             f"{'servers':>8} {'topology':<11} {'thr(Mops/s)':>12} "
             f"{'write(ns)':>10}"]
    for servers in (3, 5):
        for chain in (False, True):
            summary = sweep[(servers, chain)]
            lines.append(f"{servers:>8} {'chain' if chain else 'broadcast':<11} "
                         f"{summary.throughput_ops_per_s / 1e6:>12.2f} "
                         f"{summary.mean_write_ns:>10.0f}")
    archive("ablation_topology", "\n".join(lines))
    archive_json(
        "ablation_topology",
        config={"workload": "YCSB-A", "model": str(MODEL),
                "server_counts": [3, 5],
                "topologies": ["broadcast", "chain"],
                "duration_ns": DURATION_NS},
        metrics={f"{'chain' if chain else 'broadcast'}@servers={servers}":
                 summary for (servers, chain), summary in sweep.items()},
    )


def test_broadcast_beats_chain(sweep):
    for servers in (3, 5):
        broadcast = sweep[(servers, False)]
        chain = sweep[(servers, True)]
        assert broadcast.throughput_ops_per_s > chain.throughput_ops_per_s
        assert broadcast.mean_write_ns < chain.mean_write_ns


def test_chain_penalty_grows_with_replicas(sweep):
    """Each extra follower adds a serial hop to the chain's write path."""
    def write_penalty(servers):
        return (sweep[(servers, True)].mean_write_ns
                - sweep[(servers, False)].mean_write_ns)

    assert write_penalty(5) > write_penalty(3)
