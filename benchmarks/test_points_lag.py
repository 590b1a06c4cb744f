"""Extension — measuring Table 2 directly: VP and DP lag per DDP model.

The paper defines each model by *when* an update reaches its Visibility
Point (applied at all replicas) and Durability Point (persisted at all
replicas), but reports only end-performance.  This benchmark measures
the two lags directly — a :class:`repro.obs.journey.JourneyTracker`
collects each write's apply and persist instants and
:func:`repro.analysis.waterfall.lag_summary` derives the lags —
quantifying Table 2's qualitative "when" column:

* Strict: DP within the write round.
* Synchronous: DP trails VP by one NVM persist.
* Read-Enforced: DP in the background, bounded by the eager persist.
* Scope: DP only at the scope's Persist round.
* Eventual: DP after the lazy-persist delay.
"""

import pytest

from conftest import archive

from repro.analysis.waterfall import lag_summary
from repro.cluster.cluster import Cluster
from repro.cluster.config import ClusterConfig
from repro.core.context import ClientContext
from repro.core.model import Consistency as C, DdpModel, Persistency as P
from repro.obs.journey import JourneyTracker

WRITES = 60


def measure(consistency, persistency):
    tracker = JourneyTracker(num_nodes=3)
    cluster = Cluster(DdpModel(consistency, persistency),
                      config=ClusterConfig(servers=3, clients_per_server=0,
                                           store_type=None),
                      tracer=tracker)
    cluster.start()
    engine = cluster.engines[0]
    ctx = ClientContext(0, 0)
    for i in range(WRITES):
        cluster.sim.run_until_complete(
            cluster.sim.process(engine.client_write(ctx, i % 20, f"v{i}")))
        if (persistency is P.SCOPE
                and (i + 1) % engine.config.scope_length == 0):
            cluster.sim.run_until_complete(
                cluster.sim.process(engine.client_persist_scope(ctx)))
    cluster.sim.run(until=cluster.sim.now + 500_000)
    return lag_summary(tracker.journeys, tracker.num_nodes)


@pytest.fixture(scope="module")
def lags():
    return {(c, p): measure(c, p)
            for c in (C.LINEARIZABLE, C.CAUSAL)
            for p in P}


def test_generate_lag_table(lags):
    lines = ["Visibility/Durability Point lags per model "
             "(60 isolated writes, 3 nodes)",
             f"{'model':<40} {'VP lag(ns)':>11} {'DP lag(ns)':>11} "
             f"{'DP done':>8}"]
    for (c, p), summary in lags.items():
        model = DdpModel(c, p)
        lines.append(
            f"{str(model):<40} {summary.mean_visibility_lag_ns:>11.0f} "
            f"{summary.mean_durability_lag_ns:>11.0f} "
            f"{summary.durability_completion_fraction:>7.0%}")
    archive("points_lag", "\n".join(lines))


def test_all_writes_reach_visibility(lags):
    for (c, p), summary in lags.items():
        assert summary.visibility_completion_fraction == 1.0, (c, p)


def test_durability_lag_ordering_matches_table2(lags):
    """For each consistency model, DP lag grows as persistency relaxes:
    Strict <= Synchronous <= Read-Enforced < Eventual."""
    for c in (C.LINEARIZABLE, C.CAUSAL):
        strict = lags[(c, P.STRICT)].mean_durability_lag_ns
        sync = lags[(c, P.SYNCHRONOUS)].mean_durability_lag_ns
        re = lags[(c, P.READ_ENFORCED)].mean_durability_lag_ns
        eventual = lags[(c, P.EVENTUAL)].mean_durability_lag_ns
        assert strict <= sync * 1.2, c
        assert sync <= re * 1.5, c
        assert re < eventual, c


def test_scope_dp_bounded_by_scope_rounds(lags):
    """With Persist calls issued every scope_length writes, every scope
    completes and durability lag is bounded by the scope window."""
    for c in (C.LINEARIZABLE, C.CAUSAL):
        summary = lags[(c, P.SCOPE)]
        assert summary.durability_completion_fraction == 1.0, c
        assert (summary.mean_durability_lag_ns
                > lags[(c, P.SYNCHRONOUS)].mean_durability_lag_ns), c
