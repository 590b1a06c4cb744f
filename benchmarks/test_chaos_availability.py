"""Chaos experiment: availability under a 1-node crash mid-run.

The paper argues (§8) that its membership-based failure handling keeps
the protocols available through node failures.  This experiment
quantifies that for each *consistency* model (at Synchronous
persistency): run the same workload fault-free and with one of three
nodes crashing mid-run (restarting after the failure-detector has
re-formed the membership), and compare throughput and write latency.

Time to serve = how long the restarted node takes, from its restart
until its clients reconnect: the bank-parallel scan of its NVM image
plus the catch-up from its live peers (digest exchange, then the values
of the keys where it was behind).  It turns Section 9's "the complexity
of the recovery is higher in the weaker models" into a number per cell.

Availability = faulty throughput / fault-free throughput.  The crash
removes a third of the serving capacity for ~28% of the measured
window, so perfect rebalancing would still lose ~9% of the ops; the
assertion floor is far below that to stay robust across durations.
Every faulty run must also pass the model's durability contracts
(`repro.faults.validate_faulty_run`) after the node recovers from NVM
and rejoins.
"""

from conftest import DURATION_NS, WARMUP_NS, archive, archive_json

from repro.cluster.cluster import Cluster
from repro.cluster.config import ClusterConfig
from repro.core.model import Consistency as C, DdpModel, Persistency as P
from repro.faults import FaultInjector, load_fault_plan, validate_faulty_run
from repro.workload.ycsb import WORKLOADS

SERVERS = 3
CLIENTS_PER_SERVER = 4
CRASH_NODE = 1

MODELS = [DdpModel(consistency, P.SYNCHRONOUS) for consistency in C]


def _crash_plan():
    # Crash at 40% of the measured window, restart after another 25%.
    return load_fault_plan({
        "seed": 7,
        "events": [{
            "kind": "crash",
            "node": CRASH_NODE,
            "at_us": (WARMUP_NS + 0.4 * DURATION_NS) / 1000.0,
            "restart_after_us": 0.25 * DURATION_NS / 1000.0,
        }],
    })


def _run(model, faulty):
    injector = FaultInjector(_crash_plan()) if faulty else None
    cluster = Cluster(model,
                      config=ClusterConfig(servers=SERVERS,
                                           clients_per_server=CLIENTS_PER_SERVER),
                      workload=WORKLOADS["A"], faults=injector)
    summary = cluster.run(DURATION_NS, warmup_ns=WARMUP_NS)
    return cluster, injector, summary


def test_chaos_availability():
    rows = {}
    for model in MODELS:
        _, _, baseline = _run(model, faulty=False)
        cluster, injector, faulty = _run(model, faulty=True)
        rows[model] = (baseline, faulty, cluster, injector)

    lines = ["Chaos: 1-node crash mid-run (restart after detection), "
             "Synchronous persistency",
             f"{'model':<32} {'fault-free':>11} {'faulty':>11} "
             f"{'avail':>6} {'wr-lat x':>9} {'serve us':>9} {'scan':>6} "
             f"{'catch-up':>9} {'fetched':>8}"]
    metrics = {}
    for model, (baseline, faulty, cluster, injector) in rows.items():
        availability = (faulty.throughput_ops_per_s
                        / baseline.throughput_ops_per_s)
        latency_ratio = faulty.mean_write_ns / baseline.mean_write_ns
        served = cluster.engines[CRASH_NODE].time_to_serve
        lines.append(
            f"{str(model):<32} "
            f"{baseline.throughput_ops_per_s / 1e6:>10.1f}M "
            f"{faulty.throughput_ops_per_s / 1e6:>10.1f}M "
            f"{availability:>6.2f} {latency_ratio:>8.2f}x "
            f"{(served.scan_ns + served.catch_up_ns) / 1000:>9.2f} "
            f"{served.scan_ns / 1000:>6.2f} {served.catch_up_ns / 1000:>9.2f} "
            f"{served.fetched:>8}")
        metrics[str(model)] = {
            "throughput_ops_per_s": faulty.throughput_ops_per_s,
            "fault_free_ops_per_s": baseline.throughput_ops_per_s,
            "availability": availability,
            "mean_write_ns": faulty.mean_write_ns,
            "fault_free_mean_write_ns": baseline.mean_write_ns,
            "round_resends": sum(e.round_resends for e in cluster.engines),
            "rounds_retargeted": sum(e.rounds_retargeted
                                     for e in cluster.engines),
            "time_to_serve_ns": served.scan_ns + served.catch_up_ns,
            "scan_ns": served.scan_ns,
            "catch_up_ns": served.catch_up_ns,
            "keys_fetched": served.fetched,
        }
        # The crash-restart cycle completed and membership healed.
        assert injector.crashes == 1 and injector.restarts == 1, model
        assert sorted(cluster.membership.live) == list(range(SERVERS)), model
        # Durability contracts hold on the recovered state.
        for result in validate_faulty_run(cluster):
            assert result.ok, (str(model), result.name,
                               result.details[:5])
        # Availability floor: losing 1/3 of nodes for ~28% of the run
        # must not cost more than half the throughput.
        assert availability > 0.5, (str(model), availability)

    archive("chaos_availability", "\n".join(lines))
    archive_json(
        "chaos_availability",
        config={"workload": "YCSB-A",
                "servers": SERVERS,
                "clients": SERVERS * CLIENTS_PER_SERVER,
                "persistency": P.SYNCHRONOUS.value,
                "crash_node": CRASH_NODE,
                "plan": _crash_plan().to_json(),
                "duration_ns": DURATION_NS},
        metrics=metrics,
    )


def test_weak_models_ride_through_better():
    """Shape: consistency models whose writes don't wait on cluster-wide
    rounds (Causal, Eventual) retain at least as much relative
    throughput through the crash as Linearizable, whose every write
    must gather ACKs from the (re-formed) replica set."""
    availabilities = {}
    for consistency in (C.LINEARIZABLE, C.EVENTUAL):
        model = DdpModel(consistency, P.SYNCHRONOUS)
        _, _, baseline = _run(model, faulty=False)
        _, _, faulty = _run(model, faulty=True)
        availabilities[consistency] = (faulty.throughput_ops_per_s
                                       / baseline.throughput_ops_per_s)
    assert availabilities[C.EVENTUAL] >= \
        availabilities[C.LINEARIZABLE] * 0.9
