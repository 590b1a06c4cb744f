"""Figure 9 — read/write-mix sensitivity (workloads B / A / W).

Workload B is 95% reads, A is 50/50, and the paper's custom W is 95%
writes.  Asserted shape: the more read-intensive the workload, the less
the choice of consistency/persistency model matters (the models govern
write propagation and persistence; reads are only affected indirectly).
"""

import pytest

from conftest import archive, run_cached

from repro.core.model import Consistency as C, DdpModel, Persistency as P
from repro.workload.ycsb import WORKLOADS

MIXES = ["B", "A", "W"]
CONSISTENCIES = [C.LINEARIZABLE, C.CAUSAL]


@pytest.fixture(scope="module")
def fig9():
    results = {}
    for mix in MIXES:
        for consistency in CONSISTENCIES:
            for persistency in P:
                model = DdpModel(consistency, persistency)
                results[(mix, model)] = run_cached(model,
                                                   workload=WORKLOADS[mix])
    return results


def thr(fig9, mix, consistency, persistency):
    return fig9[(mix, DdpModel(consistency, persistency))].throughput_ops_per_s


def model_spread(fig9, mix):
    """Max/min throughput ratio across all swept models for one mix —
    how much the model choice matters."""
    values = [thr(fig9, mix, c, p) for c in CONSISTENCIES for p in P]
    return max(values) / min(values)


def test_fig9_generate(fig9):
    base = thr(fig9, "A", C.LINEARIZABLE, P.SYNCHRONOUS)
    lines = ["Figure 9: throughput vs read/write mix "
             "(normalized to <Linear, Synchronous> @ workload A)"]
    for mix in MIXES:
        spec = WORKLOADS[mix]
        for consistency in CONSISTENCIES:
            cells = [f"{p.short_name}={thr(fig9, mix, consistency, p) / base:5.2f}"
                     for p in P]
            lines.append(
                f"workload-{mix} ({spec.read_fraction:.0%} reads) "
                f"{consistency.short_name:<12} " + "  ".join(cells))
        lines.append(f"  model spread for workload-{mix}: "
                     f"{model_spread(fig9, mix):.2f}x")
    archive("fig9_workload_mix", "\n".join(lines))


def test_fig9_read_intensive_less_model_sensitive(fig9):
    """Spread across models shrinks as reads dominate."""
    spread_b = model_spread(fig9, "B")
    spread_a = model_spread(fig9, "A")
    spread_w = model_spread(fig9, "W")
    assert spread_b < spread_a <= spread_w * 1.10, (
        f"spreads B={spread_b:.2f} A={spread_a:.2f} W={spread_w:.2f}")


def test_fig9_read_heavy_raises_absolute_throughput_of_strict_models(fig9):
    """Strict models benefit most from fewer writes."""
    lin_b = thr(fig9, "B", C.LINEARIZABLE, P.SYNCHRONOUS)
    lin_w = thr(fig9, "W", C.LINEARIZABLE, P.SYNCHRONOUS)
    assert lin_b > lin_w


def test_fig9_write_heavy_magnifies_persistency_choice(fig9):
    """Under workload W the persistency model matters more for
    Linearizable consistency than under workload B."""
    def persistency_spread(mix):
        values = [thr(fig9, mix, C.LINEARIZABLE, p) for p in P]
        return max(values) / min(values)

    assert persistency_spread("W") > persistency_spread("B")
