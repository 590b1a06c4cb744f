"""Tests for metrics collection and summarization."""

import dataclasses
import math
import struct
from functools import reduce
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.metrics import (
    OP_TYPES,
    Metrics,
    OpRecord,
    Summary,
    _percentile,
)


def op(op_type, start, end, node=0, client=0, key=1):
    return OpRecord(op_type=op_type, node=node, client=client, key=key,
                    start_ns=start, end_ns=end)


class TestOpRecord:
    def test_keyword_and_positional_construction_agree(self):
        assert OpRecord("write", 3, 41, 7, 10.0, 35.0) == OpRecord(
            op_type="write", node=3, client=41, key=7,
            start_ns=10.0, end_ns=35.0)
        assert op("persist", 1.0, 2.0, key=None).key is None

    def test_fields_cannot_be_assigned(self):
        record = op("read", 10.0, 35.0)
        with pytest.raises(AttributeError):
            record.end_ns = 99.0
        with pytest.raises(AttributeError):
            record.retries = 1
        assert record.end_ns == 35.0


class TestOpRows:
    """``Metrics.ops`` is a read-only view over packed rows: every row
    it gives back is the one recorded."""

    ROWS = [
        OpRecord("read", 0, 3, 17, 10.0, 35.5),
        OpRecord("write", 4, 99, 0, 1e-3, 2e9),
        OpRecord("txn", 1, 2, None, 0.0, 7.25),
        OpRecord("persist", 2, 5, None, 3.0, 3.0),
        OpRecord("read", 3, 0, 0, 5.0, 6.0),
        # The extremes a key column holds stay keys, never None.
        OpRecord("write", 0, 1, -2**63, 1.0, 2.0),
        OpRecord("read", 0, 1, 2**63 - 1, 1.0, 2.0),
        OpRecord("persist", 0, 1, 0, 1.0, 2.0),
    ]

    def test_every_op_type_round_trips(self):
        assert set(OP_TYPES) == {row.op_type for row in self.ROWS}
        metrics = Metrics()
        for row in self.ROWS[:4]:
            metrics.record_op(row)
        for row in self.ROWS[4:]:
            metrics.record(*row)
        assert len(metrics.ops) == len(self.ROWS)
        assert list(metrics.ops) == self.ROWS
        assert [metrics.ops[i] for i in range(len(self.ROWS))] == self.ROWS
        assert metrics.ops[-1] == self.ROWS[-1]
        assert [type(row) for row in metrics.ops] == [OpRecord] * len(self.ROWS)
        assert [row.key for row in metrics.ops].count(None) == 2

    def test_an_unknown_op_type_is_named(self):
        metrics = Metrics()
        with pytest.raises(ValueError, match="'begin_txn'"):
            metrics.record("begin_txn", 0, 0, None, 0.0, 1.0)
        with pytest.raises(ValueError, match="'scan'"):
            metrics.record_op(OpRecord("scan", 0, 0, 1, 0.0, 1.0))
        assert len(metrics.ops) == 0

    def test_a_field_no_row_holds_records_nothing(self):
        metrics = Metrics()
        metrics.record("read", 0, 0, 1, 0.0, 1.0)
        with pytest.raises(struct.error):
            metrics.record("read", 0, 0, 2**63, 0.0, 1.0)
        with pytest.raises(struct.error):
            metrics.record("write", 0, 0, 1, 0.0, "late")
        metrics.record("write", 1, 2, 3, 4.0, 5.0)
        assert list(metrics.ops) == [OpRecord("read", 0, 0, 1, 0.0, 1.0),
                                     OpRecord("write", 1, 2, 3, 4.0, 5.0)]

    def test_the_view_is_read_only_and_live(self):
        metrics = Metrics()
        ops = metrics.ops
        with pytest.raises(TypeError):
            ops[0] = OpRecord("read", 0, 0, 1, 0.0, 1.0)
        with pytest.raises(AttributeError):
            ops.append(OpRecord("read", 0, 0, 1, 0.0, 1.0))
        metrics.record("read", 0, 0, 1, 0.0, 1.0)
        assert len(ops) == 1 and OpRecord("read", 0, 0, 1, 0.0, 1.0) in ops
        for index in (1, -2):
            with pytest.raises(IndexError):
                _ = ops[index]
        # Iterating pins nothing: recording goes on mid-iteration.
        rows = iter(ops)
        metrics.record("write", 0, 0, 2, 1.0, 2.0)
        assert [row.key for row in rows] == [1]


def _tuple_summarize(records, warmup_end_ns, metrics, duration_ns):
    """``Metrics.summarize`` as it was when the run kept one
    ``OpRecord`` tuple per request: one pass over the tuples in record
    order, then the same sorts and sums."""
    reads = []
    writes = []
    for op_type, _node, _client, _key, start_ns, end_ns in records:
        if end_ns >= warmup_end_ns:
            if op_type == "read":
                reads.append(end_ns - start_ns)
            elif op_type == "write":
                writes.append(end_ns - start_ns)
    reads.sort()
    writes.sort()
    all_lat = sorted(reads + writes)
    span = max(duration_ns - warmup_end_ns, 1.0)
    nan = float("nan")
    return Summary(
        requests=len(all_lat),
        duration_ns=span,
        throughput_ops_per_s=len(all_lat) / (span * 1e-9),
        mean_read_ns=(reduce(add, reads, 0.0) / len(reads)) if reads else nan,
        mean_write_ns=(reduce(add, writes, 0.0) / len(writes)) if writes else nan,
        mean_access_ns=(reduce(add, all_lat, 0.0) / len(all_lat)) if all_lat else nan,
        p95_read_ns=_percentile(reads, 0.95),
        p95_write_ns=_percentile(writes, 0.95),
        p99_read_ns=_percentile(reads, 0.99),
        p99_write_ns=_percentile(writes, 0.99),
        total_messages=metrics.total_messages,
        total_bytes=metrics.total_bytes,
        persists=metrics.persists,
        txn_conflicts=metrics.txn_conflicts,
        txn_commits=metrics.txn_commits,
        read_stalls=metrics.read_stalls,
        reads_blocked_by_unpersisted=metrics.reads_blocked_by_unpersisted,
        causal_buffer_peak=metrics.causal_buffer_peak,
        causal_buffered_total=metrics.causal_buffered_total,
    )


_ANY_TIME = st.floats(allow_nan=True, allow_infinity=True)
_RECORDS = st.lists(st.builds(
    OpRecord, st.sampled_from(OP_TYPES), st.integers(0, 7),
    st.integers(0, 300),
    st.one_of(st.none(), st.integers(-2**63, 2**63 - 1)),
    _ANY_TIME, _ANY_TIME), max_size=80)


@given(records=_RECORDS, warmup=_ANY_TIME, duration_ns=_ANY_TIME)
@settings(max_examples=300, deadline=None)
def test_summarize_over_packed_rows_is_repr_equal_to_the_tuple_pass(
        records, warmup, duration_ns):
    metrics = Metrics()
    for record in records:
        metrics.record_op(record)
    metrics.warmup_end_ns = warmup
    metrics.record_message("ACK", 16, count=3)
    got = metrics.summarize(duration_ns)
    want = _tuple_summarize(records, warmup, metrics, duration_ns)
    for field in dataclasses.fields(Summary):
        assert (repr(getattr(got, field.name))
                == repr(getattr(want, field.name))), field.name


def _reference_summarize(metrics, duration_ns):
    """``Metrics.summarize`` as it was at d68d711: five passes over the
    records.  The one-pass loop must give every field the same value —
    the means are float sums, so "same" means the same summation order:
    a left-to-right fold (``sum()`` compensates from CPython 3.12 on)."""
    measured = [o for o in metrics.ops if o.end_ns >= metrics.warmup_end_ns]
    reads = sorted(o.latency_ns for o in measured if o.op_type == "read")
    writes = sorted(o.latency_ns for o in measured if o.op_type == "write")
    all_lat = sorted(o.latency_ns for o in measured
                     if o.op_type in ("read", "write"))
    span = max(duration_ns - metrics.warmup_end_ns, 1.0)
    requests = len([o for o in measured if o.op_type in ("read", "write")])
    nan = float("nan")
    return Summary(
        requests=requests,
        duration_ns=span,
        throughput_ops_per_s=requests / (span * 1e-9),
        mean_read_ns=(reduce(add, reads, 0.0) / len(reads)) if reads else nan,
        mean_write_ns=(reduce(add, writes, 0.0) / len(writes)) if writes else nan,
        mean_access_ns=(reduce(add, all_lat, 0.0) / len(all_lat)) if all_lat else nan,
        p95_read_ns=_percentile(reads, 0.95),
        p95_write_ns=_percentile(writes, 0.95),
        p99_read_ns=_percentile(reads, 0.99),
        p99_write_ns=_percentile(writes, 0.99),
        total_messages=metrics.total_messages,
        total_bytes=metrics.total_bytes,
        persists=metrics.persists,
        txn_conflicts=metrics.txn_conflicts,
        txn_commits=metrics.txn_commits,
        read_stalls=metrics.read_stalls,
        reads_blocked_by_unpersisted=metrics.reads_blocked_by_unpersisted,
        causal_buffer_peak=metrics.causal_buffer_peak,
        causal_buffered_total=metrics.causal_buffered_total,
    )


_TIMES = st.floats(min_value=0.0, max_value=1e7, allow_nan=False)
_OPS = st.lists(st.tuples(
    st.sampled_from(["read", "write", "txn", "persist"]), _TIMES, _TIMES),
    max_size=60)


@given(ops=_OPS, reads_only=st.booleans(),
       warmup_at=st.one_of(st.none(), st.integers(min_value=0), _TIMES),
       duration_ns=_TIMES)
@settings(max_examples=200, deadline=None)
def test_summarize_equals_the_five_pass_reference(ops, reads_only, warmup_at,
                                                  duration_ns):
    metrics = Metrics()
    for op_type, start, latency in ops:
        metrics.record_op(op("read" if reads_only else op_type,
                             start, start + latency))
    if isinstance(warmup_at, int) and ops:
        # Warm-up ends exactly where some operation does: it counts.
        metrics.warmup_end_ns = metrics.ops[warmup_at % len(ops)].end_ns
    elif isinstance(warmup_at, float):
        metrics.warmup_end_ns = warmup_at
    metrics.record_message("INV", 88)
    metrics.persists = 3
    got = dataclasses.asdict(metrics.summarize(duration_ns))
    want = dataclasses.asdict(_reference_summarize(metrics, duration_ns))
    assert got.keys() == want.keys()
    for field, value in want.items():
        if isinstance(value, float) and math.isnan(value):
            assert math.isnan(got[field]), field
        else:
            assert got[field] == value, field


@pytest.mark.parametrize("rows", [
    [("read", 0.0, 0.3), ("write", 0.0, 0.3), ("read", 0.0, 0.1),
     ("write", 0.0, 1e16), ("read", 0.0, 0.2), ("write", 0.0, 0.7)],
    [("write", 0.0, 0.1), ("write", 0.0, 1e16), ("write", 0.0, 0.2),
     ("txn", 0.0, 5.0)],
    [("read", 0.0, 0.1), ("read", 0.0, 1e16), ("read", 0.0, 0.2),
     ("persist", 0.0, 5.0)],
], ids=["read_equals_write", "no_reads", "no_writes"])
def test_summarize_sorts_in_place_bit_identically(rows):
    """``summarize`` takes the per-type statistics, then sorts every
    latency in the reads' own list: each field must be the float the
    reference's sorted copy gives (these folds are order-sensitive)."""
    metrics = Metrics()
    for op_type, start, end in rows:
        metrics.record_op(op(op_type, start, end))
    got = metrics.summarize(1e3)
    assert repr(dataclasses.astuple(got)) == repr(
        dataclasses.astuple(_reference_summarize(metrics, 1e3)))


class TestMetrics:
    def test_latency(self):
        record = op("read", 10.0, 35.0)
        assert record.latency_ns == 25.0


    def test_summarize_throughput(self):
        metrics = Metrics()
        for i in range(10):
            metrics.record_op(op("read", i * 100.0, i * 100.0 + 50.0))
        summary = metrics.summarize(duration_ns=1000.0)
        assert summary.requests == 10
        assert summary.throughput_ops_per_s == pytest.approx(10 / 1000e-9)

    def test_warmup_excluded(self):
        metrics = Metrics()
        metrics.record_op(op("read", 0.0, 50.0))
        metrics.record_op(op("read", 500.0, 600.0))
        metrics.warmup_end_ns = 100.0
        summary = metrics.summarize(duration_ns=1000.0)
        assert summary.requests == 1
        assert summary.mean_read_ns == pytest.approx(100.0)

    def test_read_write_split(self):
        metrics = Metrics()
        metrics.record_op(op("read", 0, 10))
        metrics.record_op(op("write", 0, 30))
        summary = metrics.summarize(100)
        assert summary.mean_read_ns == pytest.approx(10)
        assert summary.mean_write_ns == pytest.approx(30)
        assert summary.mean_access_ns == pytest.approx(20)

    def test_percentiles(self):
        metrics = Metrics()
        for latency in range(1, 101):
            metrics.record_op(op("read", 0, float(latency)))
        summary = metrics.summarize(1000)
        assert summary.p95_read_ns == pytest.approx(95.0)
        assert summary.p99_read_ns == pytest.approx(99.0)

    def test_non_request_ops_excluded_from_throughput(self):
        metrics = Metrics()
        metrics.record_op(op("read", 0, 10))
        metrics.record_op(op("persist", 0, 10))
        metrics.record_op(op("txn", 0, 10))
        assert metrics.summarize(100).requests == 1

    def test_empty_latencies_are_nan(self):
        summary = Metrics().summarize(100)
        assert math.isnan(summary.mean_read_ns)
        assert summary.requests == 0

    def test_message_accounting(self):
        metrics = Metrics()
        metrics.record_message("INV", 88)
        metrics.record_message("INV", 88)
        metrics.record_message("ACK", 16)
        assert metrics.total_messages == 3
        assert metrics.total_bytes == 192
        assert metrics.messages_by_type["INV"] == 2

    def test_causal_buffer_peak(self):
        metrics = Metrics()
        metrics.note_causal_buffer(3)
        metrics.note_causal_buffer(7)
        metrics.note_causal_buffer(2)
        assert metrics.causal_buffer_peak == 7
        assert metrics.causal_buffered_total == 3


class TestNormalization:
    def test_normalized_to_baseline(self):
        metrics = Metrics()
        metrics.record_op(op("read", 0, 10))
        metrics.record_op(op("write", 0, 20))
        metrics.record_message("INV", 100)
        fast = metrics.summarize(100)

        slow_metrics = Metrics()
        slow_metrics.record_op(op("read", 0, 20))
        slow_metrics.record_op(op("write", 0, 40))
        slow_metrics.record_message("INV", 200)
        slow = slow_metrics.summarize(200)

        norm = fast.normalized_to(slow)
        assert norm["throughput"] == pytest.approx(2.0)
        assert norm["mean_read"] == pytest.approx(0.5)
        assert norm["traffic_bytes"] == pytest.approx(0.5)

    def test_read_conflict_fraction(self):
        metrics = Metrics()
        metrics.record_op(op("read", 0, 10))
        metrics.record_op(op("read", 0, 10))
        metrics.reads_blocked_by_unpersisted = 1
        summary = metrics.summarize(100)
        assert summary.read_conflict_fraction == pytest.approx(0.5)
