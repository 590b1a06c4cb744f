"""Ablation — scope and transaction lengths.

The paper fixes scopes at 10 client requests and transactions at 5
(Section 7).  This ablation sweeps both:

* Longer scopes amortize the Persist round over more requests, so
  <Linearizable, Scope> throughput rises with scope length (durability
  lag rises with it — that is the trade).
* Longer transactions amortize INITX/ENDX but widen the conflict
  window; with the default zipfian contention the conflict-rate increase
  dominates beyond a point.
"""

import dataclasses

import pytest

from conftest import DURATION_NS, archive, archive_json, run_cached

from repro.cluster.config import ClusterConfig
from repro.core.engine import ProtocolConfig
from repro.core.model import Consistency as C, DdpModel, Persistency as P

SCOPE_MODEL = DdpModel(C.LINEARIZABLE, P.SCOPE)
TXN_MODEL = DdpModel(C.TRANSACTIONAL, P.SYNCHRONOUS)

SCOPE_LENGTHS = [5, 10, 20]
TXN_LENGTHS = [2, 5, 10]


def scope_config(length):
    return ClusterConfig(protocol=ProtocolConfig(scope_length=length))


def txn_config(length):
    return ClusterConfig(protocol=ProtocolConfig(txn_length=length))


@pytest.fixture(scope="module")
def scope_sweep():
    return {length: run_cached(SCOPE_MODEL, config=scope_config(length))
            for length in SCOPE_LENGTHS}


@pytest.fixture(scope="module")
def txn_sweep():
    return {length: run_cached(TXN_MODEL, config=txn_config(length))
            for length in TXN_LENGTHS}


def test_ablation_generate(scope_sweep, txn_sweep):
    lines = ["Ablation: scope length (<Linearizable, Scope>)",
             f"{'scope len':>10} {'thr(Mops/s)':>12} {'persists':>9}"]
    for length, summary in scope_sweep.items():
        lines.append(f"{length:>10} {summary.throughput_ops_per_s / 1e6:>12.2f} "
                     f"{summary.persists:>9}")
    lines.append("")
    lines.append("Ablation: transaction length (<Transactional, Synchronous>)")
    lines.append(f"{'txn len':>10} {'thr(Mops/s)':>12} {'conflict rate':>14}")
    for length, summary in txn_sweep.items():
        attempts = summary.txn_commits + summary.txn_conflicts
        rate = summary.txn_conflicts / max(attempts, 1)
        lines.append(f"{length:>10} {summary.throughput_ops_per_s / 1e6:>12.2f} "
                     f"{rate:>13.1%}")
    archive("ablation_scope_txn_len", "\n".join(lines))
    archive_json(
        "ablation_scope_txn_len",
        config={"workload": "YCSB-A",
                "scope_model": str(SCOPE_MODEL),
                "scope_lengths": SCOPE_LENGTHS,
                "txn_model": str(TXN_MODEL),
                "txn_lengths": TXN_LENGTHS,
                "duration_ns": DURATION_NS},
        metrics={**{f"scope_len={length}": summary
                    for length, summary in scope_sweep.items()},
                 **{f"txn_len={length}": summary
                    for length, summary in txn_sweep.items()}},
    )


def test_longer_scopes_amortize_persist_rounds(scope_sweep):
    assert (scope_sweep[20].throughput_ops_per_s
            > scope_sweep[5].throughput_ops_per_s)


def test_scope_persist_traffic_drops_with_length(scope_sweep):
    """Fewer Persist rounds per request with longer scopes (persist
    count is per-update, so compare per-request round overhead via
    throughput instead of raw persists)."""
    per_request_persists_5 = (scope_sweep[5].persists
                              / max(scope_sweep[5].requests, 1))
    per_request_persists_20 = (scope_sweep[20].persists
                               / max(scope_sweep[20].requests, 1))
    assert per_request_persists_20 <= per_request_persists_5 * 1.1


def test_longer_txns_raise_conflict_rate(txn_sweep):
    def rate(length):
        summary = txn_sweep[length]
        attempts = summary.txn_commits + summary.txn_conflicts
        return summary.txn_conflicts / max(attempts, 1)

    assert rate(10) > rate(2)
