"""Tests for percentile edge cases and the windowed time series."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.metrics import (
    Metrics,
    OpRecord,
    _percentile,
    windowed_op_series,
)
from repro.analysis.waterfall import window_lags
from repro.obs.journey import JourneyTracker


def _op(op_type, end_ns, node=0, latency=10.0, client=0, key=1):
    return OpRecord(op_type, node=node, client=client, key=key,
                    start_ns=end_ns - latency, end_ns=end_ns)


class TestPercentile:
    def test_empty_list_is_nan(self):
        assert math.isnan(_percentile([], 0.5))
        assert math.isnan(_percentile([], 0.0))
        assert math.isnan(_percentile([], 1.0))

    def test_zero_fraction_is_minimum(self):
        assert _percentile([1.0, 2.0, 3.0], 0.0) == 1.0
        assert _percentile([5.0], 0.0) == 5.0

    def test_negative_fraction_clamps_to_minimum(self):
        assert _percentile([1.0, 2.0, 3.0], -0.5) == 1.0

    def test_full_fraction_is_maximum(self):
        assert _percentile([1.0, 2.0, 3.0], 1.0) == 3.0
        assert _percentile([1.0, 2.0, 3.0], 1.5) == 3.0

    def test_nearest_rank_interior(self):
        values = [float(v) for v in range(1, 11)]  # 1..10
        assert _percentile(values, 0.50) == 5.0
        assert _percentile(values, 0.90) == 9.0
        assert _percentile(values, 0.99) == 10.0

    def test_single_element(self):
        assert _percentile([42.0], 0.99) == 42.0


class TestWindowedOpSeries:
    def test_buckets_by_completion_time(self):
        ops = [_op("read", 50.0), _op("write", 150.0), _op("read", 180.0)]
        series = windowed_op_series(ops, window_ns=100.0)
        assert len(series) == 2
        assert series[0].ops == 1
        assert series[1].ops == 2
        assert series[0].throughput_ops_per_s == pytest.approx(1 / 100e-9)

    def test_empty_windows_are_emitted_for_alignment(self):
        ops = [_op("read", 50.0), _op("read", 350.0)]
        series = windowed_op_series(ops, window_ns=100.0)
        assert [w.ops for w in series] == [1, 0, 0, 1]
        assert math.isnan(series[1].p99_ns)
        assert series[1].throughput_ops_per_s == 0.0

    def test_op_type_filter(self):
        ops = [_op("read", 50.0), _op("begin_txn", 60.0)]
        series = windowed_op_series(ops, window_ns=100.0)
        assert series[0].ops == 1

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            windowed_op_series([], window_ns=0.0)

    def test_no_ops_yields_empty_series(self):
        assert windowed_op_series([], window_ns=100.0) == []

    def test_single_op(self):
        (window,) = windowed_op_series([_op("read", 50.0, latency=10.0)],
                                       window_ns=100.0)
        assert window.ops == 1
        assert (window.start_ns, window.end_ns) == (0.0, 100.0)
        assert window.mean_ns == window.p50_ns == window.p99_ns == 10.0

    def test_boundary_op_lands_in_the_window_starting_there(self):
        """An op completing exactly at a window boundary belongs to the
        window that *starts* there (half-open [start, end) windows) and
        must not vanish from the series."""
        series = windowed_op_series([_op("read", 100.0)], window_ns=100.0)
        assert [w.ops for w in series] == [0, 1]
        assert series[1].start_ns == 100.0

    def test_boundary_op_survives_alongside_interior_ops(self):
        ops = [_op("read", 50.0), _op("read", 200.0), _op("read", 120.0)]
        series = windowed_op_series(ops, window_ns=100.0)
        assert [w.ops for w in series] == [1, 1, 1]
        assert sum(w.ops for w in series) == len(ops)

    def test_latency_percentiles_per_window(self):
        ops = [_op("read", 90.0, latency=lat)
               for lat in (10.0, 20.0, 30.0, 40.0)]
        (window,) = windowed_op_series(ops, window_ns=100.0)
        assert window.mean_ns == 25.0
        assert window.p50_ns == 20.0
        assert window.p99_ns == 40.0


class TestMetricsSeries:
    def test_op_series_by_node_aligned(self):
        metrics = Metrics()
        metrics.record_op(_op("read", 50.0, node=0))
        metrics.record_op(_op("read", 250.0, node=1))
        by_node = metrics.op_series_by_node(100.0)
        assert set(by_node) == {0, 1}
        assert [w.ops for w in by_node[0]] == [1]
        assert [w.ops for w in by_node[1]] == [0, 0, 1]
        assert [w.start_ns for w in by_node[1]][:1] == \
            [w.start_ns for w in by_node[0]]

    @given(rows=st.lists(st.tuples(
        st.sampled_from(["read", "write", "txn", "persist"]),
        st.integers(0, 5), st.floats(0.0, 1e4), st.floats(0.0, 500.0)),
        max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_op_series_by_node_is_the_per_node_rescan(self, rows):
        """One pass over the node column gives each node the series a
        filter of every op by that node gave."""
        metrics = Metrics()
        for op_type, node, end_ns, latency in rows:
            metrics.record_op(_op(op_type, end_ns, node=node,
                                  latency=latency, key=None))
        by_node = metrics.op_series_by_node(100.0)
        ops = list(metrics.ops)
        assert list(by_node) == sorted({op.node for op in ops})
        for node, series in by_node.items():
            rescan = windowed_op_series(
                [op for op in ops if op.node == node], 100.0)
            assert repr(series) == repr(rescan)

    def test_message_windows_require_configuration(self):
        metrics = Metrics()  # no window_ns
        metrics.record_message("INV", 64, time_ns=50.0)
        assert metrics.message_window_series() == {}
        assert metrics.messages_by_type == {"INV": 1}

    def test_message_windows_bucket_by_time(self):
        metrics = Metrics(window_ns=100.0)
        metrics.record_message("INV", 64, time_ns=10.0)
        metrics.record_message("INV", 64, time_ns=210.0)
        metrics.record_message("ACK", 16, time_ns=220.0)
        metrics.record_message("VAL", 80)  # no timestamp: totals only
        series = metrics.message_window_series()
        assert series == {"ACK": [0, 0, 1], "INV": [1, 0, 1]}
        assert metrics.messages_by_type["VAL"] == 1

    def test_a_counted_message_is_that_many_messages(self):
        """A broadcast recorded once with its fan-out reads the same as
        one record per destination — totals, bytes and windows."""
        one_by_one, counted = Metrics(window_ns=100.0), Metrics(window_ns=100.0)
        for _ in range(7):
            one_by_one.record_message("UPD", 88, time_ns=210.0)
        counted.record_message("UPD", 88, time_ns=210.0, count=7)
        for metrics in (one_by_one, counted):
            metrics.record_message("ACK", 16, time_ns=10.0)
        assert counted.messages_by_type == one_by_one.messages_by_type
        assert counted.bytes_by_type == one_by_one.bytes_by_type == \
            {"UPD": 616, "ACK": 16}
        assert counted.message_window_series() == \
            one_by_one.message_window_series() == \
            {"ACK": [1, 0, 0], "UPD": [0, 0, 7]}


class TestPointsWindowLags:
    def test_lags_bucketed_by_issue_window(self):
        tracker = JourneyTracker(2)
        tracker.emit(50.0, "write_issue", node=0, key=1, version=(1, 0))
        tracker.emit(80.0, "apply", node=1, key=1, version=(1, 0))
        tracker.emit(170.0, "persist", node=1, key=1, version=(1, 0))
        tracker.emit(250.0, "write_issue", node=0, key=2, version=(2, 0))
        tracker.emit(310.0, "apply", node=1, key=2, version=(2, 0))
        series = window_lags(tracker.journeys, 100.0)
        rows = series[1]
        assert len(rows) == 3  # aligned to the last issue window
        assert rows[0]["vp_samples"] == 1
        assert rows[0]["vp_mean_ns"] == 30.0
        assert rows[0]["dp_mean_ns"] == 120.0  # persists keyed by issue
        assert rows[1]["vp_samples"] == 0
        assert math.isnan(rows[1]["vp_mean_ns"])
        assert rows[2]["vp_mean_ns"] == 60.0
        assert rows[2]["dp_samples"] == 0

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            window_lags(JourneyTracker(1).journeys, -1.0)
