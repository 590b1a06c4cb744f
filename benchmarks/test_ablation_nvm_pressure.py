"""Ablation — NVM pressure and the Synchronous/Read-Enforced inversion.

The paper reports a counter-intuitive effect (Section 8.1.1): under
Linearizable consistency, *Synchronous* persistency shows LOWER read
latency than *Read-Enforced* persistency, because Read-Enforced lets
more writes be outstanding, deepening NVM queues, and reads stall on the
yet-to-persist writes.

The effect is a function of how close the NVM write bandwidth is to the
offered persist rate.  This ablation sweeps NVM write service time and
bank count and reports where the inversion appears; at the default
(Table 5) timing the two models are close, and slowing the media or
halving the banks makes the inversion pronounced.
"""

import pytest

from conftest import DURATION_NS, archive, archive_json, run_cached

from repro.cluster.config import ClusterConfig
from repro.core.model import Consistency as C, DdpModel, Persistency as P
from repro.memory.devices import MemoryTiming

LIN_SYNC = DdpModel(C.LINEARIZABLE, P.SYNCHRONOUS)
LIN_RE = DdpModel(C.LINEARIZABLE, P.READ_ENFORCED)

NVM_CONFIGS = [
    ("default 400ns x16 banks", MemoryTiming(140.0, 400.0, 2, 8)),
    ("slow media 800ns x16 banks", MemoryTiming(140.0, 800.0, 2, 8)),
    ("narrow 400ns x8 banks", MemoryTiming(140.0, 400.0, 2, 4)),
    ("slow+narrow 800ns x8 banks", MemoryTiming(140.0, 800.0, 2, 4)),
]


@pytest.fixture(scope="module")
def sweep():
    results = {}
    for label, timing in NVM_CONFIGS:
        config = ClusterConfig(nvm_timing=timing)
        for model in (LIN_SYNC, LIN_RE):
            results[(label, model)] = run_cached(model, config=config)
    return results


def test_ablation_generate(sweep):
    lines = ["Ablation: NVM pressure vs the Sync/Read-Enforced read-latency "
             "inversion",
             f"{'NVM configuration':<30} {'Sync rd(ns)':>12} "
             f"{'RdEnf rd(ns)':>13} {'inverted?':>10}"]
    for label, _timing in NVM_CONFIGS:
        sync_rd = sweep[(label, LIN_SYNC)].mean_read_ns
        re_rd = sweep[(label, LIN_RE)].mean_read_ns
        lines.append(f"{label:<30} {sync_rd:>12.0f} {re_rd:>13.0f} "
                     f"{'yes' if re_rd > sync_rd else 'no':>10}")
    archive("ablation_nvm_pressure", "\n".join(lines))
    archive_json(
        "ablation_nvm_pressure",
        config={"workload": "YCSB-A",
                "models": [str(LIN_SYNC), str(LIN_RE)],
                "nvm_configs": {
                    label: {"read_ns": timing.read_ns,
                            "write_ns": timing.write_ns,
                            "total_banks": timing.total_banks}
                    for label, timing in NVM_CONFIGS},
                "duration_ns": DURATION_NS},
        metrics={f"{str(model)}@{label}": summary
                 for (label, model), summary in sweep.items()},
    )


def test_inversion_appears_under_pressure(sweep):
    """With NVM write bandwidth squeezed, Read-Enforced persistency's
    extra outstanding writes make its reads slower than Synchronous."""
    label = NVM_CONFIGS[-1][0]
    sync_rd = sweep[(label, LIN_SYNC)].mean_read_ns
    re_rd = sweep[(label, LIN_RE)].mean_read_ns
    assert re_rd > sync_rd, (
        f"expected inversion under pressure: RdEnf {re_rd:.0f}ns vs "
        f"Sync {sync_rd:.0f}ns")


def test_pressure_slows_everyone(sweep):
    default_label = NVM_CONFIGS[0][0]
    squeezed_label = NVM_CONFIGS[-1][0]
    for model in (LIN_SYNC, LIN_RE):
        assert (sweep[(squeezed_label, model)].throughput_ops_per_s
                < sweep[(default_label, model)].throughput_ops_per_s)


def test_read_stall_fraction_grows_with_pressure(sweep):
    """The >30% read-conflict statistic scales with NVM pressure."""
    def blocked_fraction(label):
        summary = sweep[(label, LIN_RE)]
        return summary.reads_blocked_by_unpersisted / max(summary.requests * 0.5, 1)

    assert blocked_fraction(NVM_CONFIGS[-1][0]) >= \
        blocked_fraction(NVM_CONFIGS[0][0]) * 0.9
