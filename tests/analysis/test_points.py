"""Tests for the Visibility/Durability Point measurement: the lags
:func:`repro.analysis.waterfall.lag_summary` derives from the records a
:class:`repro.obs.journey.JourneyTracker` collects."""

import math

import pytest

from repro.analysis.waterfall import lag_summary
from repro.core.context import ClientContext
from repro.core.model import Consistency as C, DdpModel, Persistency as P
from repro.obs.journey import JourneyTracker
from tests.harness import idle, run_op


def summarize(tracker):
    return lag_summary(tracker.journeys, tracker.num_nodes)


class TestTrackerUnit:
    def test_vp_dp_lags_computed(self):
        tracker = JourneyTracker(num_nodes=2)
        tracker.emit(0.0, "write_issue", node=0, key=1, version=(1, 0))
        tracker.emit(10.0, "apply", node=0, key=1, version=(1, 0))
        tracker.emit(50.0, "apply", node=1, key=1, version=(1, 0))
        tracker.emit(100.0, "persist", node=0, key=1, version=(1, 0))
        tracker.emit(400.0, "persist", node=1, key=1, version=(1, 0))
        summary = summarize(tracker)
        assert summary.writes_tracked == 1
        assert summary.mean_visibility_lag_ns == pytest.approx(50.0)
        assert summary.mean_durability_lag_ns == pytest.approx(400.0)

    def test_partial_propagation_not_counted_complete(self):
        tracker = JourneyTracker(num_nodes=3)
        tracker.emit(0.0, "write_issue", node=0, key=1, version=(1, 0))
        tracker.emit(5.0, "apply", node=0, key=1, version=(1, 0))
        summary = summarize(tracker)
        assert summary.fully_visible == 0
        assert math.isnan(summary.mean_visibility_lag_ns)

    def test_unknown_writes_ignored(self):
        tracker = JourneyTracker(num_nodes=1)
        tracker.emit(5.0, "apply", node=0, key=1, version=(1, 0))
        assert summarize(tracker).writes_tracked == 0

    def test_first_event_wins(self):
        tracker = JourneyTracker(num_nodes=1)
        tracker.emit(0.0, "write_issue", node=0, key=1, version=(1, 0))
        tracker.emit(10.0, "apply", node=0, key=1, version=(1, 0))
        tracker.emit(20.0, "apply", node=0, key=1, version=(1, 0))
        tracker.emit(30.0, "persist", node=0, key=1, version=(1, 0))
        tracker.emit(40.0, "persist", node=0, key=1, version=(1, 0))
        summary = summarize(tracker)
        assert summary.mean_visibility_lag_ns == pytest.approx(10.0)
        assert summary.mean_durability_lag_ns == pytest.approx(30.0)

    def test_irrelevant_categories_ignored(self):
        tracker = JourneyTracker(num_nodes=1)
        tracker.emit(0.0, "send", node=0, key=1)
        assert summarize(tracker).writes_tracked == 0


def drive_writes(consistency, persistency, writes=10):
    tracker = JourneyTracker(num_nodes=3)
    cluster = idle(DdpModel(consistency, persistency), tracer=tracker)
    engine, ctx = cluster.engines[0], ClientContext(0, 0)
    for i in range(writes):
        run_op(cluster, engine.client_write(ctx, i, f"v{i}"))
    cluster.sim.run(until=cluster.sim.now + 300_000)
    return summarize(tracker)


class TestEndToEnd:
    def test_lin_sync_dp_is_vp_plus_one_persist(self):
        """<Linearizable, Synchronous>: every write fully visible AND
        durable; the Durability Point trails the Visibility Point by
        exactly one NVM persist (DP at VP, Table 2)."""
        summary = drive_writes(C.LINEARIZABLE, P.SYNCHRONOUS)
        assert summary.visibility_completion_fraction == 1.0
        assert summary.durability_completion_fraction == 1.0
        gap = summary.mean_durability_lag_ns - summary.mean_visibility_lag_ns
        assert 300.0 <= gap <= 700.0  # ~ one 400 ns NVM write

    def test_scope_durability_lags_visibility(self):
        """<Linearizable, Scope>: writes become visible long before the
        scope's Persist call makes them durable (no Persist issued here,
        so durability never completes)."""
        summary = drive_writes(C.LINEARIZABLE, P.SCOPE)
        assert summary.visibility_completion_fraction == 1.0
        assert summary.durability_completion_fraction == 0.0

    def test_eventual_persistency_dp_later_than_vp(self):
        summary = drive_writes(C.CAUSAL, P.EVENTUAL)
        assert summary.visibility_completion_fraction == 1.0
        assert summary.durability_completion_fraction == 1.0
        assert (summary.mean_durability_lag_ns
                > summary.mean_visibility_lag_ns)

    def test_strict_dp_orders_of_magnitude_before_eventual(self):
        """Strict makes updates durable within the write round; Eventual
        persistency defers durability by the lazy delay."""
        strict = drive_writes(C.EVENTUAL, P.STRICT)
        lazy = drive_writes(C.EVENTUAL, P.EVENTUAL)
        assert strict.durability_completion_fraction == 1.0
        assert (strict.mean_durability_lag_ns * 5
                < lazy.mean_durability_lag_ns)
