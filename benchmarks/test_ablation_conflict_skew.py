"""Ablation — workload skew vs transaction conflicts and read conflicts.

The paper reports ~30% of transactions conflicting at 100 clients and
>30% of reads conflicting with unpersisted writes in <Read-Enforced,
Read-Enforced>.  Both statistics are driven by key skew; this ablation
sweeps the zipfian theta to locate those operating points and shows
both statistics are monotone in skew.
"""

import pytest

from conftest import DURATION_NS, archive, archive_json, run_cached

from repro.core.model import Consistency as C, DdpModel, Persistency as P
from repro.workload.ycsb import WORKLOADS

THETAS = [0.50, 0.70, 0.90, 0.99]
TXN_MODEL = DdpModel(C.TRANSACTIONAL, P.SYNCHRONOUS)
RE_RE = DdpModel(C.READ_ENFORCED, P.READ_ENFORCED)


def workload(theta):
    return WORKLOADS["A"].with_overrides(zipf_theta=theta)


@pytest.fixture(scope="module")
def sweep():
    results = {}
    for theta in THETAS:
        results[("txn", theta)] = run_cached(TXN_MODEL,
                                             workload=workload(theta))
        results[("rere", theta)] = run_cached(RE_RE,
                                              workload=workload(theta))
    return results


def txn_conflict_rate(summary):
    attempts = summary.txn_commits + summary.txn_conflicts
    return summary.txn_conflicts / max(attempts, 1)


def read_conflict_rate(summary):
    return summary.reads_blocked_by_unpersisted / max(summary.requests * 0.5, 1)


def test_ablation_generate(sweep):
    lines = ["Ablation: zipfian skew vs conflicts",
             f"{'theta':>6} {'txn conflict rate':>18} "
             f"{'RE-RE read conflicts':>21}"]
    for theta in THETAS:
        lines.append(f"{theta:>6.2f} "
                     f"{txn_conflict_rate(sweep[('txn', theta)]):>17.1%} "
                     f"{read_conflict_rate(sweep[('rere', theta)]):>20.1%}")
    lines.append("")
    lines.append("Paper operating points: ~30% of transactions conflict; "
                 ">30% of reads conflict in <Read-Enforced, Read-Enforced>.")
    archive("ablation_conflict_skew", "\n".join(lines))
    archive_json(
        "ablation_conflict_skew",
        config={"workload": "YCSB-A", "zipf_thetas": THETAS,
                "models": [str(TXN_MODEL), str(RE_RE)],
                "duration_ns": DURATION_NS},
        metrics={f"{label}@theta={theta}": summary
                 for (label, theta), summary in sweep.items()},
    )


def test_txn_conflicts_monotone_in_skew(sweep):
    rates = [txn_conflict_rate(sweep[("txn", theta)]) for theta in THETAS]
    assert rates[-1] > rates[0]


def test_read_conflicts_monotone_in_skew(sweep):
    rates = [read_conflict_rate(sweep[("rere", theta)]) for theta in THETAS]
    assert rates[-1] > rates[0]


def test_paper_operating_points_are_reachable(sweep):
    """Some theta in the sweep yields the paper's ~30% for each
    statistic (the exact theta differs because the conflict definitions
    and client placement cannot be matched exactly)."""
    txn_rates = [txn_conflict_rate(sweep[("txn", theta)]) for theta in THETAS]
    read_rates = [read_conflict_rate(sweep[("rere", theta)])
                  for theta in THETAS]
    assert min(txn_rates) < 0.45 < max(txn_rates) or any(
        0.15 < rate < 0.50 for rate in txn_rates)
    assert max(read_rates) > 0.25
