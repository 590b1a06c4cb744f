"""Table 1 — motivation: relative throughput of three environments.

The paper runs write-only clients on a 3-node cluster in three
configurations and reports normalized throughput:

==================================================  =================
Environment                                         Paper (normalized)
==================================================  =================
Volatile updates + NVM persists in critical path    1.00
Volatile updates in critical path, lazy persists    1.32
Neither in critical path                            4.08
==================================================  =================

We map the environments onto DDP models: <Linearizable, Synchronous>
(both in the critical path), <Linearizable, Eventual> (volatile updates
only), and <Eventual, Eventual> (neither).  The asserted *shape*:
strictly increasing throughput, with the fully-relaxed environment at
least ~2.5x the strict one.
"""

from conftest import archive, run_cached

from repro.cluster.config import ClusterConfig
from repro.core.model import Consistency as C, DdpModel, Persistency as P
from repro.workload.ycsb import WorkloadSpec

WRITE_ONLY = WorkloadSpec(name="table1-writes", read_fraction=0.0)
THREE_NODES = ClusterConfig(servers=3, clients_per_server=20)

ENVIRONMENTS = [
    ("volatile+NVM in critical path", DdpModel(C.LINEARIZABLE, P.SYNCHRONOUS)),
    ("volatile in critical path", DdpModel(C.LINEARIZABLE, P.EVENTUAL)),
    ("neither in critical path", DdpModel(C.EVENTUAL, P.EVENTUAL)),
]

PAPER_NORMALIZED = [1.00, 1.32, 4.08]


def test_table1_relative_throughput():
    summaries = {label: run_cached(model, workload=WRITE_ONLY,
                                   config=THREE_NODES)
                 for label, model in ENVIRONMENTS}

    base = summaries[ENVIRONMENTS[0][0]].throughput_ops_per_s
    normalized = [summaries[label].throughput_ops_per_s / base
                  for label, _ in ENVIRONMENTS]

    lines = ["Table 1: relative throughput of three environments",
             f"{'environment':<42} {'measured':>9} {'paper':>7}"]
    for (label, _), measured, paper in zip(ENVIRONMENTS, normalized,
                                           PAPER_NORMALIZED):
        lines.append(f"{label:<42} {measured:>9.2f} {paper:>7.2f}")
    archive("table1_motivation", "\n".join(lines))

    # Shape: strictly increasing, and a big jump once nothing blocks.
    assert normalized[0] == 1.0
    assert normalized[1] > 1.05, "lazy persists should beat inline persists"
    assert normalized[2] > normalized[1]
    assert normalized[2] >= 2.5, (
        "fully-relaxed environment should be several times faster "
        f"(got {normalized[2]:.2f}x; paper reports 4.08x)")
