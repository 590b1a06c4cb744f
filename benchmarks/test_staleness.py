"""Extension — read staleness by DDP model.

Quantifies Section 2.1's qualitative claim ("weak models permit reads
to return inconsistent, sometimes stale versions"): the VersionBoard
scores every read by how many versions it trails the globally latest
issued write.
"""

import pytest

from conftest import DURATION_NS, WARMUP_NS, archive

from repro.analysis.staleness import VersionBoard
from repro.cluster.cluster import Cluster
from repro.cluster.config import ClusterConfig
from repro.core.model import Consistency as C, DdpModel, Persistency as P
from repro.workload.ycsb import WORKLOADS

MODELS = [
    DdpModel(C.LINEARIZABLE, P.SYNCHRONOUS),
    DdpModel(C.READ_ENFORCED, P.SYNCHRONOUS),
    DdpModel(C.CAUSAL, P.SYNCHRONOUS),
    DdpModel(C.CAUSAL, P.EVENTUAL),
    DdpModel(C.EVENTUAL, P.SYNCHRONOUS),
    DdpModel(C.EVENTUAL, P.EVENTUAL),
]


def run_with_board(model):
    board = VersionBoard()
    cluster = Cluster(model, config=ClusterConfig(),
                      workload=WORKLOADS["A"], version_board=board)
    cluster.run(duration_ns=DURATION_NS, warmup_ns=WARMUP_NS)
    return board.summarize()


@pytest.fixture(scope="module")
def staleness():
    return {model: run_with_board(model) for model in MODELS}


def test_generate(staleness):
    lines = ["Read staleness by DDP model (versions behind the latest "
             "issued write)",
             f"{'model':<40} {'stale reads':>12} {'mean behind':>12} "
             f"{'max behind':>11}"]
    for model, summary in staleness.items():
        lines.append(f"{str(model):<40} {summary.stale_fraction:>11.1%} "
                     f"{summary.mean_versions_behind:>12.3f} "
                     f"{summary.max_versions_behind:>11}")
    archive("staleness", "\n".join(lines))


def test_strong_consistency_freshest(staleness):
    lin = staleness[DdpModel(C.LINEARIZABLE, P.SYNCHRONOUS)]
    eventual = staleness[DdpModel(C.EVENTUAL, P.EVENTUAL)]
    assert lin.mean_versions_behind <= eventual.mean_versions_behind


def test_causal_sync_staler_than_causal_eventual(staleness):
    """Reads under <Causal, Synchronous> return the *persisted* version,
    so NVM lag becomes visible staleness — the durability price of
    recoverable reads."""
    sync = staleness[DdpModel(C.CAUSAL, P.SYNCHRONOUS)]
    lazy = staleness[DdpModel(C.CAUSAL, P.EVENTUAL)]
    assert sync.mean_versions_behind >= lazy.mean_versions_behind


def test_weak_models_have_real_staleness(staleness):
    eventual = staleness[DdpModel(C.EVENTUAL, P.EVENTUAL)]
    assert eventual.stale_reads > 0
