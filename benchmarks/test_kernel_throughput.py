"""Kernel work per protocol message: the deterministic counters the
ROADMAP item-1 speedup moved and must not give back.

Runs the profiled kernel over representative model x cluster-size
points and archives ``BENCH_kernel.json`` (schema ``repro.bench/1``):
per-point event (instants popped), process and message counts, heap
peak (pending instants) and the per-message ratios ``repro diff`` gates
on.  What those events cost in host time is ``bench/``'s question
(``sim.host_ns_per_event``, the layer ladder).

Points: the cheapest and the most message-heavy corners of the matrix
(causal x eventual, linearizable x synchronous) plus a cluster-size axis
(3 / 5 / 8 servers) on the cheap corner, so both per-event cost and
heap-depth scaling are visible.
"""

import pytest

from repro.cluster.config import ClusterConfig
from repro.cluster.cluster import Cluster
from repro.core.model import Consistency, DdpModel, Persistency
from repro.obs import KernelProfile
from repro.workload.ycsb import WORKLOADS

from conftest import DURATION_NS, WARMUP_NS, archive, archive_json

CAUSAL_EVENTUAL = DdpModel(Consistency.CAUSAL, Persistency.EVENTUAL)
LIN_SYNC = DdpModel(Consistency.LINEARIZABLE, Persistency.SYNCHRONOUS)

#: label -> (model, servers).  Clients scale with the cluster (20 per
#: server, the default density) so per-node load is constant.
KERNEL_POINTS = {
    "causal-eventual-3s": (CAUSAL_EVENTUAL, 3),
    "causal-eventual-5s": (CAUSAL_EVENTUAL, 5),
    "causal-eventual-8s": (CAUSAL_EVENTUAL, 8),
    "linearizable-synchronous-5s": (LIN_SYNC, 5),
}

#: label -> ceilings on (kernel events, spawned processes) per handled
#: protocol message: the values measured at 150 us once the queue held
#: one slot per instant (an event is an instant popped) and a broadcast
#: was one frame, plus 10 %.  They are whole-run ratios, so client work
#: rides along and a point with few messages per operation (3 servers:
#: two UPDs per write) sits higher than the 8-server one (seven).
#: Processes: the clients, and nothing per message (a UPD that releases
#: buffered updates would cost one; none does at these points).
MESSAGE_COST_CEILINGS = {
    "causal-eventual-3s": (5.33, 0.0067),           # measured 4.85 / 0.0060
    "causal-eventual-5s": (2.42, 0.0033),           # measured 2.20 / 0.0030
    "causal-eventual-8s": (1.16, 0.0019),           # measured 1.05 / 0.0017
    "linearizable-synchronous-5s": (1.25, 0.0041),  # measured 1.14 / 0.0037
}

#: label -> heap pops at 150 us before calls were stored in runs (commit
#: b44a449), when every entry had its own pop.  Instants are storage:
#: pops plus the entries that ran inside another's pop is still this
#: number, entry for entry.
CALLS_BEFORE_RUNS = {
    "causal-eventual-3s": 105_561,
    "causal-eventual-5s": 268_046,
    "causal-eventual-8s": 595_671,
    "linearizable-synchronous-5s": 114_750,
}

_RESULTS = {}


def _run_points():
    """Run every point once per session, profile attached."""
    if _RESULTS:
        return _RESULTS
    for label, (model, servers) in KERNEL_POINTS.items():
        config = ClusterConfig(servers=servers, clients_per_server=20,
                               seed=2021)
        profile = KernelProfile()
        summary = Cluster(model, config=config, workload=WORKLOADS["A"],
                          profile=profile).run(DURATION_NS, WARMUP_NS)
        _RESULTS[label] = (profile, summary)
    return _RESULTS


def _metrics_row(profile, summary):
    """The BENCH_kernel.json metrics for one point: deterministic
    kernel counters only."""
    return {
        "events_processed": profile.events_processed,
        "calls_coalesced": profile.calls_coalesced,
        "processes_spawned": profile.processes_spawned,
        "heap_peak": profile.heap_peak,
        "messages_handled": profile.messages_handled,
        "events_per_message": profile.events_per_message,
        "processes_per_message": profile.processes_per_message,
        "throughput_ops_per_s": summary.throughput_ops_per_s,
    }


class TestKernelThroughput:
    def test_every_point_produces_throughput(self):
        results = _run_points()
        assert len(results) >= 3
        for label, (profile, _summary) in results.items():
            assert profile.events_processed > 0, label

    def test_message_cost_stays_under_its_ceilings(self):
        """ROADMAP item 1's ratio cannot creep back silently: every
        benched point stays under its measured-plus-10 % ceilings."""
        for label, (profile, _summary) in _run_points().items():
            events_max, processes_max = MESSAGE_COST_CEILINGS[label]
            assert profile.events_per_message <= events_max, (
                label, profile.events_per_message)
            assert profile.processes_per_message <= processes_max, (
                label, profile.processes_per_message)

    @pytest.mark.skipif(DURATION_NS != 150_000,
                        reason="the counts are those of the default duration")
    def test_runs_save_pops_not_calls(self):
        """One pop per instant executes exactly what one pop per entry
        executed."""
        for label, (profile, _summary) in _run_points().items():
            assert (profile.events_processed + profile.calls_coalesced
                    == CALLS_BEFORE_RUNS[label]), label

    def test_event_counts_scale_with_cluster_size(self):
        """The deterministic counters behave: more servers (at constant
        per-node load) means more kernel events."""
        results = _run_points()
        small = results["causal-eventual-3s"][0].events_processed
        large = results["causal-eventual-8s"][0].events_processed
        assert large > small

    def test_archive_kernel_bench(self):
        results = _run_points()
        metrics = {label: _metrics_row(profile, summary)
                   for label, (profile, summary) in results.items()}
        config = {
            "bench": "kernel_throughput",
            "workload": "A",
            "duration_ns": DURATION_NS,
            "clients_per_server": 20,
            "points": {label: {"model": str(model), "servers": servers}
                       for label, (model, servers)
                       in KERNEL_POINTS.items()},
        }
        archive_json("kernel", config, metrics)

        header = (f"{'point':<30} {'events':>9} {'coalesced':>9} "
                  f"{'ev/msg':>7} {'proc/msg':>8}")
        lines = ["kernel throughput baseline", header, "-" * len(header)]
        for label, row in metrics.items():
            lines.append(
                f"{label:<30} {row['events_processed']:>9} "
                f"{row['calls_coalesced']:>9} "
                f"{row['events_per_message']:>7.2f} "
                f"{row['processes_per_message']:>8.4f}")
        archive("kernel_throughput", "\n".join(lines))

    def test_bench_artifact_schema(self):
        """BENCH_kernel.json reloads with the fields `repro diff` and
        the tier-1 artifact-shape test rely on."""
        import json
        import pathlib
        self.test_archive_kernel_bench()
        path = (pathlib.Path(__file__).parent / "results"
                / "BENCH_kernel.json")
        doc = json.loads(path.read_text())
        assert doc["schema"] == "repro.bench/1"
        assert doc["bench"] == "kernel"
        assert isinstance(doc["config_hash"], str)
        assert len(doc["metrics"]) >= 3
        for label, row in doc["metrics"].items():
            assert row["events_processed"] > 0, label
