"""Run metrics: operation latencies, throughput, traffic, protocol counters.

One :class:`Metrics` instance is shared by all nodes in a cluster run.
The client layer records each completed operation; protocol engines
bump counters (messages, persists, conflicts, buffered causal updates,
read stalls on unpersisted writes).  :class:`Summary` turns the raw
records into the quantities the paper's figures report, and
:func:`windowed_op_series` slices them into per-window time series
(throughput, p50/p99 latency) for the run-report artifact.

Completed operations are kept as packed binary rows in one
``bytearray`` — an op-type code, node, client, key, start and end, 33
bytes a request instead of one tuple and two floats each (``struct``,
which every run loads anyway; ``array`` is an extension module whose
load alone costs more resident memory than a short run's requests).
:attr:`Metrics.ops` is a read-only sequence view over them that builds
an :class:`OpRecord` row on demand.

Message traffic is windowed without storing per-message records: when a
``window_ns`` is configured, :meth:`Metrics.record_message` bumps an
O(windows x types) counter table instead of appending, so long runs
stay bounded.
"""

from __future__ import annotations

import math
import struct
from collections.abc import Sequence
from dataclasses import dataclass
from functools import reduce
from itertools import starmap
from operator import add
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple

__all__ = ["OP_TYPES", "OpRecord", "OpRows", "Metrics", "Summary",
           "WindowStat", "fold_sum", "windowed_op_series"]


class OpRecord(NamedTuple):
    """One completed client operation: a row of :attr:`Metrics.ops`,
    built when it is read (a run stores only the packed rows)."""

    op_type: str          # "read" | "write" | "txn" | "persist"
    node: int
    client: int
    key: Optional[int]
    start_ns: float
    end_ns: float

    @property
    def latency_ns(self) -> float:
        return self.end_ns - self.start_ns


#: The op types a row stores, by code (the code is the index).
OP_TYPES = ("read", "write", "txn", "persist")
_CODES = {op_type: code for code, op_type in enumerate(OP_TYPES)}
_READ, _WRITE = _CODES["read"], _CODES["write"]
#: Set on a row's code when its key is None (a ``txn`` or ``persist``
#: row): the key field then holds 0, so every key the field can hold
#: stays distinct from None.
_KEYLESS = 0x80
_TYPE = _KEYLESS - 1
#: One packed row: code, node, client, key, start_ns, end_ns (standard
#: sizes, no padding: 33 bytes).
_ROW = struct.Struct("=Biiqdd")


def _record(code: int, node: int, client: int, key: int, start_ns: float,
            end_ns: float) -> OpRecord:
    """The :class:`OpRecord` of one unpacked row."""
    return OpRecord(OP_TYPES[code & _TYPE], node, client,
                    None if code & _KEYLESS else key, start_ns, end_ns)


def _unpacked(rows: bytes) -> Iterator[OpRecord]:
    """The :class:`OpRecord` of each packed row, in order."""
    return starmap(_record, _ROW.iter_unpack(rows))


class OpRows(Sequence):
    """The read-only sequence of a :class:`Metrics`' completed
    operations, in record order: each row read builds its
    :class:`OpRecord`."""

    __slots__ = ("_metrics",)

    def __init__(self, metrics: Metrics):
        self._metrics = metrics

    def __len__(self) -> int:
        return len(self._metrics._rows) // _ROW.size

    def __getitem__(self, index: int) -> OpRecord:
        count = len(self)
        if not -count <= index < count:
            raise IndexError(f"op index {index} out of range ({count} ops)")
        return _record(*_ROW.unpack_from(self._metrics._rows,
                                         (index % count) * _ROW.size))

    def __iter__(self) -> Iterator[OpRecord]:
        # A copy: the iterator must not pin the growing bytearray.
        return _unpacked(bytes(self._metrics._rows))


def fold_sum(values: Iterable[float]) -> float:
    """``values`` added one by one, left to right, from 0.0.

    What ``sum()`` does over floats up to CPython 3.11; from 3.12 it
    compensates, which moves a sum in its last bits.  Every mean an
    artifact pins is a fold, so it reads the same on every version.
    """
    return reduce(add, values, 0.0)


def _percentile(sorted_values: List[float], fraction: float) -> float:
    """Nearest-rank percentile on pre-sorted data.

    Edge cases are explicit rather than emergent: an empty input has no
    percentile (NaN), ``fraction <= 0`` is the minimum (nearest-rank's
    ceil would otherwise produce rank -1 and only accidentally clamp to
    0), and ``fraction >= 1`` is the maximum.
    """
    if not sorted_values:
        return float("nan")
    if fraction <= 0.0:
        return sorted_values[0]
    if fraction >= 1.0:
        return sorted_values[-1]
    rank = min(len(sorted_values) - 1,
               math.ceil(fraction * len(sorted_values)) - 1)
    return sorted_values[rank]


@dataclass(frozen=True)
class WindowStat:
    """One window of a latency/throughput time series."""

    start_ns: float
    end_ns: float
    ops: int
    throughput_ops_per_s: float
    mean_ns: float
    p50_ns: float
    p99_ns: float


def windowed_op_series(ops: Iterable[OpRecord],
                       window_ns: float) -> List[WindowStat]:
    """Bucket completed reads and writes into fixed windows (by
    completion time) and compute per-window throughput and latency
    percentiles.

    Windows are contiguous from 0 to the last completion; empty windows
    are emitted (zero throughput, NaN latencies) so series from
    different runs align index-by-index.
    """
    if window_ns <= 0:
        raise ValueError(f"window_ns must be positive: {window_ns}")
    buckets: Dict[int, List[float]] = {}
    end_ns = 0.0
    for op in ops:
        if op.op_type not in ("read", "write"):
            continue
        index = int(op.end_ns // window_ns)
        buckets.setdefault(index, []).append(op.latency_ns)
        end_ns = max(end_ns, op.end_ns)
    count = int(math.ceil(end_ns / window_ns))
    if buckets:
        # An op completing exactly on a window boundary (end_ns a whole
        # multiple of window_ns) buckets into the window *starting*
        # there; emit that window too or the op silently vanishes from
        # the series.
        count = max(count, max(buckets) + 1)
    series: List[WindowStat] = []
    for index in range(count):
        lats = sorted(buckets.get(index, ()))
        n = len(lats)
        series.append(WindowStat(
            start_ns=index * window_ns,
            end_ns=(index + 1) * window_ns,
            ops=n,
            throughput_ops_per_s=n / (window_ns * 1e-9),
            mean_ns=(fold_sum(lats) / n) if n else float("nan"),
            p50_ns=_percentile(lats, 0.50),
            p99_ns=_percentile(lats, 0.99),
        ))
    return series


class Metrics:
    """Mutable collector for one simulation run."""

    def __init__(self, window_ns: Optional[float] = None):
        # Completed operations, one packed _ROW each (see record).
        self._rows = bytearray()
        # Traffic.
        self.messages_by_type: Dict[str, int] = {}
        self.bytes_by_type: Dict[str, int] = {}
        # Windowed traffic: (window index, type) -> count, maintained
        # incrementally when a window size is configured.
        self.window_ns = window_ns
        self.message_windows: Dict[Tuple[int, str], int] = {}
        # Protocol counters.
        self.persists = 0
        self.txn_conflicts = 0
        self.txn_commits = 0
        self.read_stalls = 0
        self.reads_blocked_by_unpersisted = 0
        self.write_stalls = 0
        self.causal_buffered_total = 0
        self.causal_buffer_peak = 0
        self.warmup_end_ns = 0.0

    # -- recording ---------------------------------------------------------------

    @property
    def ops(self) -> OpRows:
        """The completed operations, as :class:`OpRecord` rows."""
        return OpRows(self)

    def record(self, op_type: str, node: int, client: int,
               key: Optional[int], start_ns: float, end_ns: float) -> None:
        """Record one completed operation (the fields of an
        :class:`OpRecord`).  A field its row cannot hold raises
        ``struct.error`` and records nothing."""
        code = _CODES.get(op_type)
        if code is None:
            raise ValueError(f"unknown op type {op_type!r}: "
                             f"expected one of {OP_TYPES}")
        if key is None:
            code |= _KEYLESS
            key = 0
        self._rows += _ROW.pack(code, node, client, key, start_ns, end_ns)

    def record_op(self, record: OpRecord) -> None:
        self.record(*record)

    def record_message(self, msg_type: str, size_bytes: int,
                       time_ns: Optional[float] = None, count: int = 1) -> None:
        """``count``: copies sent at once (a broadcast's fan-out)."""
        self.messages_by_type[msg_type] = self.messages_by_type.get(msg_type, 0) + count
        self.bytes_by_type[msg_type] = self.bytes_by_type.get(msg_type, 0) + count * size_bytes
        if self.window_ns is not None and time_ns is not None:
            key = (int(time_ns // self.window_ns), msg_type)
            self.message_windows[key] = self.message_windows.get(key, 0) + count

    def note_causal_buffer(self, current_buffered: int) -> None:
        self.causal_buffered_total += 1
        self.causal_buffer_peak = max(self.causal_buffer_peak, current_buffered)

    # -- time series -------------------------------------------------------------

    def op_series(self, window_ns: float) -> List[WindowStat]:
        """Whole-cluster windowed throughput/latency series."""
        return windowed_op_series(self.ops, window_ns)

    def op_series_by_node(self,
                          window_ns: float) -> Dict[int, List[WindowStat]]:
        """Per-coordinator-node windowed series (aligned windows)."""
        # One pass: each node's packed rows, in record order.
        rows, size = self._rows, _ROW.size
        by_node: Dict[int, bytearray] = {}
        for offset, row in zip(range(0, len(rows), size),
                               _ROW.iter_unpack(rows)):
            by_node.setdefault(row[1], bytearray()).extend(
                rows[offset:offset + size])
        return {
            node: windowed_op_series(_unpacked(by_node[node]), window_ns)
            for node in sorted(by_node)
        }

    def message_window_series(self) -> Dict[str, List[int]]:
        """Per-message-type windowed counts (requires ``window_ns``)."""
        if not self.message_windows:
            return {}
        last = max(index for index, _ in self.message_windows)
        types = sorted({t for _, t in self.message_windows})
        return {
            msg_type: [self.message_windows.get((index, msg_type), 0)
                       for index in range(last + 1)]
            for msg_type in types
        }

    # -- aggregates ----------------------------------------------------------------

    @property
    def total_messages(self) -> int:
        return sum(self.messages_by_type.values())

    @property
    def total_bytes(self) -> int:
        return sum(self.bytes_by_type.values())

    def summarize(self, duration_ns: float) -> Summary:
        """Aggregate into the per-figure quantities.

        Only operations that *completed after warmup* count, mirroring
        the paper's warmup-then-measure methodology.
        """
        warmup_end_ns = self.warmup_end_ns
        reads: List[float] = []
        writes: List[float] = []
        for code, _node, _client, _key, start_ns, end_ns in _ROW.iter_unpack(
                self._rows):
            if end_ns >= warmup_end_ns:
                code &= _TYPE
                if code == _READ:
                    reads.append(end_ns - start_ns)
                elif code == _WRITE:
                    writes.append(end_ns - start_ns)
        reads.sort()
        writes.sort()
        # Means are folds over the sorted latencies (float addition is
        # order-sensitive; these orders are what the digests pin).
        all_lat = sorted(reads + writes)
        span = max(duration_ns - warmup_end_ns, 1.0)
        requests = len(all_lat)
        return Summary(
            requests=requests,
            duration_ns=span,
            throughput_ops_per_s=requests / (span * 1e-9),
            mean_read_ns=(fold_sum(reads) / len(reads)) if reads else float("nan"),
            mean_write_ns=(fold_sum(writes) / len(writes)) if writes else float("nan"),
            mean_access_ns=(fold_sum(all_lat) / len(all_lat)) if all_lat else float("nan"),
            p95_read_ns=_percentile(reads, 0.95),
            p95_write_ns=_percentile(writes, 0.95),
            p99_read_ns=_percentile(reads, 0.99),
            p99_write_ns=_percentile(writes, 0.99),
            total_messages=self.total_messages,
            total_bytes=self.total_bytes,
            persists=self.persists,
            txn_conflicts=self.txn_conflicts,
            txn_commits=self.txn_commits,
            read_stalls=self.read_stalls,
            reads_blocked_by_unpersisted=self.reads_blocked_by_unpersisted,
            causal_buffer_peak=self.causal_buffer_peak,
            causal_buffered_total=self.causal_buffered_total,
        )


@dataclass(frozen=True)
class Summary:
    """Aggregated results of one run (the rows of the paper's plots)."""

    requests: int
    duration_ns: float
    throughput_ops_per_s: float
    mean_read_ns: float
    mean_write_ns: float
    mean_access_ns: float
    p95_read_ns: float
    p95_write_ns: float
    p99_read_ns: float
    p99_write_ns: float
    total_messages: int
    total_bytes: int
    persists: int
    txn_conflicts: int
    txn_commits: int
    read_stalls: int
    reads_blocked_by_unpersisted: int
    causal_buffer_peak: int
    causal_buffered_total: int

    @property
    def read_conflict_fraction(self) -> float:
        """Fraction of reads that stalled on a yet-to-persist write."""
        read_count = max(self.requests, 1)
        return self.reads_blocked_by_unpersisted / read_count

    def normalized_to(self, baseline: Summary) -> Dict[str, float]:
        """Ratios against a baseline run (the paper normalizes all plots
        to <Linearizable, Synchronous>)."""
        def ratio(mine: float, theirs: float) -> float:
            if theirs == 0 or math.isnan(theirs) or math.isnan(mine):
                return float("nan")
            return mine / theirs

        return {
            "throughput": ratio(self.throughput_ops_per_s,
                                baseline.throughput_ops_per_s),
            "mean_read": ratio(self.mean_read_ns, baseline.mean_read_ns),
            "mean_write": ratio(self.mean_write_ns, baseline.mean_write_ns),
            "mean_access": ratio(self.mean_access_ns, baseline.mean_access_ns),
            "p95_read": ratio(self.p95_read_ns, baseline.p95_read_ns),
            "p95_write": ratio(self.p95_write_ns, baseline.p95_write_ns),
            "traffic_bytes": ratio(float(self.total_bytes),
                                   float(baseline.total_bytes)),
        }
