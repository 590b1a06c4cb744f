"""Extension — hybrid deployments (paper Section 9).

"Many systems use hybrid consistency models — e.g., Linearizable or
Read-Enforced consistency in a local cluster, and Eventual consistency
across the entire distributed system in a data center."

This benchmark builds two 3-server datacenters connected by a 50 us WAN
and compares three deployments under YCSB-A:

* **global strong** — <Linearizable, Synchronous> across all 6 nodes
  (every write round crosses the WAN),
* **hybrid** — <Linearizable, Synchronous> within each datacenter,
  Eventual propagation across,
* **global eventual** — <Eventual, Eventual> everywhere (the upper
  bound).

Expected shape: hybrid recovers nearly all of the WAN-imposed loss while
keeping strong guarantees inside each datacenter.
"""

import pytest

from conftest import DURATION_NS, WARMUP_NS, archive

from repro.cluster.cluster import Cluster
from repro.cluster.config import ClusterConfig
from repro.core.model import Consistency as C, DdpModel, Persistency as P
from repro.hybrid.cluster import HybridCluster
from repro.workload.ycsb import WORKLOADS

CROSS_DC_RTT = 50_000.0
CONFIG = ClusterConfig(servers=6, clients_per_server=10)


def wan_one_way(src: int, dst: int) -> float:
    return 500.0 if (src // 3) == (dst // 3) else CROSS_DC_RTT / 2


def run_global(model):
    cluster = Cluster(model, config=CONFIG, workload=WORKLOADS["A"])
    cluster.network.one_way_fn = wan_one_way
    return cluster.run(duration_ns=DURATION_NS, warmup_ns=WARMUP_NS)


def run_hybrid(model):
    cluster = HybridCluster(model, groups=2, servers_per_group=3,
                            cross_dc_round_trip_ns=CROSS_DC_RTT,
                            config=CONFIG, workload=WORKLOADS["A"])
    return cluster.run(duration_ns=DURATION_NS, warmup_ns=WARMUP_NS)


@pytest.fixture(scope="module")
def deployments():
    return {
        "global <Linearizable, Synchronous>":
            run_global(DdpModel(C.LINEARIZABLE, P.SYNCHRONOUS)),
        "hybrid  <Lin, Sync> local / Eventual WAN":
            run_hybrid(DdpModel(C.LINEARIZABLE, P.SYNCHRONOUS)),
        "global <Eventual, Eventual>":
            run_global(DdpModel(C.EVENTUAL, P.EVENTUAL)),
    }


def test_generate(deployments):
    lines = ["Hybrid deployment over a 50us WAN (2 datacenters x 3 servers, "
             "YCSB-A)",
             f"{'deployment':<45} {'thr(Mops/s)':>12} {'wr(ns)':>9}"]
    for label, summary in deployments.items():
        lines.append(f"{label:<45} "
                     f"{summary.throughput_ops_per_s / 1e6:>12.2f} "
                     f"{summary.mean_write_ns:>9.0f}")
    archive("hybrid_deployment", "\n".join(lines))


def test_hybrid_recovers_wan_loss(deployments):
    global_strong = deployments["global <Linearizable, Synchronous>"]
    hybrid = deployments["hybrid  <Lin, Sync> local / Eventual WAN"]
    assert (hybrid.throughput_ops_per_s
            > 3 * global_strong.throughput_ops_per_s)


def test_hybrid_write_latency_local(deployments):
    hybrid = deployments["hybrid  <Lin, Sync> local / Eventual WAN"]
    assert hybrid.mean_write_ns < CROSS_DC_RTT / 2


def test_hybrid_below_global_eventual(deployments):
    """Eventual everywhere remains the (guarantee-free) upper bound."""
    hybrid = deployments["hybrid  <Lin, Sync> local / Eventual WAN"]
    eventual = deployments["global <Eventual, Eventual>"]
    assert hybrid.throughput_ops_per_s <= eventual.throughput_ops_per_s * 1.05
