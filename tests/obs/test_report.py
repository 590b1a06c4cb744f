"""Tests for the run-report JSON artifact."""

import json
import math

from repro.analysis.metrics import Metrics, OpRecord, WindowStat
from repro.analysis.waterfall import aggregate_journeys
from repro.cluster.config import ClusterConfig
from repro.core.model import Consistency, DdpModel, Persistency
from repro.obs import (JourneyTracker, KernelProfile, build_run_report,
                       config_fingerprint, write_run_report)
from repro.obs.report import SCHEMA, _clean
from repro.sim.trace import Tracer
from tests import harness

CAUSAL_SYNC = DdpModel(Consistency.CAUSAL, Persistency.SYNCHRONOUS)
THREE_BY_THREE = ClusterConfig(servers=3, clients_per_server=3)


def _populated_metrics() -> Metrics:
    metrics = Metrics(window_ns=100.0)
    for i in range(10):
        metrics.record_op(OpRecord("read" if i % 2 else "write",
                                   node=i % 2, client=i, key=i,
                                   start_ns=i * 40.0, end_ns=i * 40.0 + 25.0))
    metrics.record_message("INV", 64, time_ns=50.0)
    metrics.record_message("INV", 64, time_ns=250.0)
    metrics.record_message("ACK", 16, time_ns=260.0)
    return metrics


class TestClean:
    def test_nan_and_inf_become_null(self):
        cleaned = _clean({"a": float("nan"), "b": float("inf"),
                          "c": [1.0, float("-inf")], "d": "ok"})
        assert cleaned == {"a": None, "b": None, "c": [1.0, None], "d": "ok"}

    def test_dataclasses_become_dicts(self):
        window = WindowStat(start_ns=1.0, end_ns=3.0, ops=0,
                            throughput_ops_per_s=0.0, mean_ns=float("nan"),
                            p50_ns=float("nan"), p99_ns=float("nan"))
        cleaned = _clean(window)
        assert cleaned["end_ns"] == 3.0
        assert cleaned["ops"] == 0
        assert cleaned["mean_ns"] is None


class TestBuildRunReport:
    def test_core_sections(self):
        metrics = _populated_metrics()
        summary = metrics.summarize(400.0)
        report = build_run_report(summary, metrics, 100.0,
                                  meta={"seed": 7})
        assert report["schema"] == SCHEMA
        assert report["meta"]["seed"] == 7
        assert report["meta"]["window_ns"] == 100.0
        assert report["summary"]["requests"] == 10
        assert len(report["windows"]) == 4  # last op ends at 385 ns
        assert report["windows"][0]["ops"] == 2  # ends at 25 and 65 ns
        # _clean stringifies keys so the document is valid JSON.
        assert set(report["windows_by_node"]) == {"0", "1"}
        assert report["messages"]["by_type"] == {"INV": 2, "ACK": 1}
        assert report["messages"]["windows_by_type"]["INV"] == [1, 0, 1]
        assert report["messages"]["windows_by_type"]["ACK"] == [0, 0, 1]

    def test_optional_sections_present_only_when_measured(self):
        metrics = _populated_metrics()
        summary = metrics.summarize(400.0)
        bare = build_run_report(summary, metrics, 100.0)
        assert "lag" not in bare and "profile" not in bare
        assert "trace" not in bare

        journeys = JourneyTracker(2)
        journeys.emit(10.0, "write_issue", node=0, key=1, version=(1, 0))
        journeys.emit(30.0, "apply", node=1, key=1, version=(1, 0))
        journeys.emit(90.0, "persist", node=1, key=1, version=(1, 0))
        tracer = Tracer()
        tracer.emit(1.0, "msg_send", node=0)
        profile = KernelProfile()
        profile.stop(400.0)
        full = build_run_report(summary, metrics, 100.0, lag=journeys,
                                profile=profile, tracer=tracer)
        assert full["lag"]["summary"]["writes_tracked"] == 1
        node_rows = full["lag"]["per_node"]["1"]
        assert node_rows[0]["vp_mean_ns"] == 20.0
        assert node_rows[0]["dp_mean_ns"] == 80.0
        assert full["profile"]["sim_ns"] == 400.0
        assert full["trace"] == {"records": 1, "dropped": 0,
                                 "categories": {"msg_send": 1}}

    def test_written_report_is_strict_json(self, tmp_path):
        metrics = Metrics(window_ns=100.0)
        # One op so there is a window, whose p99 on an empty sibling
        # window would be NaN without cleaning.
        metrics.record_op(OpRecord("read", 0, 0, 1, 10.0, 250.0))
        summary = metrics.summarize(400.0)
        report = build_run_report(summary, metrics, 100.0)
        path = tmp_path / "report.json"
        write_run_report(str(path), report)
        parsed = json.loads(path.read_text())  # strict: rejects NaN
        assert parsed["schema"] == SCHEMA
        empty_window = parsed["windows"][0]
        assert empty_window["ops"] == 0
        assert empty_window["p99_ns"] is None

    def test_windowed_lag_nan_cleaning(self):
        journeys = JourneyTracker(1)
        journeys.emit(10.0, "write_issue", node=0, key=1, version=(1, 0))
        journeys.emit(230.0, "apply", node=0, key=1, version=(1, 0))
        metrics = Metrics(window_ns=100.0)
        summary = metrics.summarize(400.0)
        report = build_run_report(summary, metrics, 100.0, lag=journeys)
        (window,) = report["lag"]["per_node"]["0"]
        assert window["vp_samples"] == 1
        assert window["dp_samples"] == 0
        assert window["dp_mean_ns"] is None  # NaN cleaned

    def test_report_roundtrips_without_nan(self):
        metrics = _populated_metrics()
        summary = metrics.summarize(400.0)
        report = build_run_report(summary, metrics, 100.0)
        text = json.dumps(report, allow_nan=False)  # must not raise
        assert not math.isnan(len(text))

    def test_health_section_folds_in_from_a_monitor(self):
        from repro.obs import HealthMonitor

        monitor = HealthMonitor()
        metrics = Metrics(window_ns=10_000.0)
        summary = harness.run(CAUSAL_SYNC, config=THREE_BY_THREE,
                              metrics=metrics, monitor=monitor).summary
        report = build_run_report(summary, metrics, 10_000.0,
                                  monitor=monitor)
        health = report["health"]
        assert health["samples"] == len(monitor) > 0
        assert health["violations"]["total"] == 0
        assert set(health["series"]["per_node"]) == {"0", "1", "2"}
        json.dumps(report, allow_nan=False)  # strict JSON

    def test_journey_dropped_counter_surfaces_in_report(self):
        """A tracker's losses reach the report (journeys.dropped), so
        waterfall numbers are never silently partial."""
        tracker = JourneyTracker(3)
        tracker.dropped = 4  # a tracker keeps all: a loss is set on it
        metrics = Metrics(window_ns=10_000.0)
        summary = harness.run(CAUSAL_SYNC, config=THREE_BY_THREE,
                              tracer=tracker, metrics=metrics).summary
        waterfall = aggregate_journeys(tracker.journeys, 3,
                                       dropped=tracker.dropped)
        report = build_run_report(summary, metrics, 10_000.0,
                                  journeys=waterfall)
        assert report["journeys"]["journeys"] == len(tracker) > 0
        assert report["journeys"]["dropped"] == 4


class TestConfigFingerprint:
    def test_stable_and_order_insensitive(self):
        a = config_fingerprint({"model": "<Causal, Synchronous>",
                                "servers": 5, "workload": "A"})
        b = config_fingerprint({"workload": "A", "servers": 5,
                                "model": "<Causal, Synchronous>"})
        assert a == b
        assert len(a) == 16  # blake2b digest_size=8, hex

    def test_different_configs_differ(self):
        base = {"model": "<Causal, Synchronous>", "servers": 5}
        assert config_fingerprint(base) != \
            config_fingerprint(dict(base, servers=7))

    def test_non_json_values_hash_via_clean(self):
        from repro.core.model import Consistency

        # Non-JSON values stringify deterministically before hashing.
        assert config_fingerprint({"consistency": Consistency.CAUSAL}) == \
            config_fingerprint({"consistency": str(Consistency.CAUSAL)})

    def test_pinned_digest(self):
        # A process-salted ingredient sneaking in would fail this on
        # every run (the PR-1 builtin-hash lesson).
        assert config_fingerprint({"servers": 5, "workload": "A"}) == \
            config_fingerprint({"servers": 5, "workload": "A"})
        assert config_fingerprint({}) == "01e7b720ff566d53"
