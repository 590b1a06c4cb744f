"""The Chrome ``trace_event`` file a run streams.

The Chrome format (the ``traceEvents`` array consumed by Perfetto and
``chrome://tracing``) maps onto the simulation like this:

* **pid** — one "process" per node: ``pid = node_id + 1``; records with
  no node (cluster-wide events) go to ``pid 0`` ("cluster").
* **tid** — one "thread" per lane; categories are grouped into lanes
  (requests, protocol, replication, durability, network, memory,
  recovery) so related events share a timeline row.
* **ts / dur** — microseconds, as the format requires; simulated
  nanoseconds are divided by 1000, keeping sub-ns precision as decimals.
* **ph** — ``"X"`` for spans (emitted with ``dur``), ``"i"`` for
  instants, as :class:`repro.sim.trace.Tracer` classifies them.

:class:`ChromeTraceSink` is the tracer that writes it: each emission
becomes its trace event at once and goes to disk as soon as the clock
has reached it, so a run of any length keeps only the few spans
recorded ahead of the clock in memory.  The file holds the record
events in time order (ties in emission order), then the process and
thread names, the journey and health lanes, and ``otherData``, all
written when the run ends.  Every event is serialised with sorted
keys, so two runs with the same seed produce byte-identical files —
asserted by the test suite.
"""

from __future__ import annotations

import heapq
import json
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from repro.sim.trace import INSTANT, SPAN

__all__ = ["LANES", "ChromeTraceSink", "journey_chrome_events"]

CLUSTER_PID = 0
"""pid for records carrying no node id."""

LANES: Dict[str, Iterable[str]] = {
    "requests": ("write_issue", "read_stall", "write_stall",
                 "read_blocked_unpersisted", "txn_begin", "txn_commit",
                 "txn_abort", "scope_persist", "fwd_write"),
    "protocol": ("msg_send", "msg_recv", "msg_handle", "xdc_upd"),
    "replication": ("apply", "causal_buffered", "causal_released"),
    "durability": ("persist", "persist_issue", "nvm_persist"),
    "network": ("net_send", "net_deliver"),
    "memory": ("dram_access", "llc_access"),
    "recovery": ("recovery_scan", "recovery_catch_up"),
    "journey": ("journey_vp", "journey_dp", "write_complete"),
    "health": ("health", "health.kernel", "health.pressure",
               "health_violation", "fault"),
}

_LANE_NAMES = list(LANES) + ["misc"]
_CATEGORY_LANE: Dict[str, int] = {
    category: index
    for index, (_lane, categories) in enumerate(LANES.items())
    for category in categories
}
_MISC_TID = len(LANES)


def _lane_of(category: str) -> int:
    return _CATEGORY_LANE.get(category, _MISC_TID)


def _jsonable(value: Any) -> Any:
    """Details may carry tuples (versions), enums, arbitrary objects."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return str(value)


def journey_chrome_events(journeys: Iterable[Any],
                          num_nodes: int) -> List[dict]:
    """Journey lanes: one ``journey_vp`` / ``journey_dp`` span per
    completed update, anchored at its coordinator's process, carrying
    the critical-path bucket split in ``args``."""
    from repro.analysis.waterfall import decompose

    events: List[dict] = []
    for journey in journeys:
        breakdown = decompose(journey, num_nodes)
        for name in ("journey_vp", "journey_dp"):
            path = breakdown.vp if name == "journey_vp" else breakdown.dp
            if path is None:
                continue
            events.append({
                "name": name,
                "cat": "journey",
                "ph": SPAN,
                "pid": journey.coordinator + 1,
                "tid": _lane_of(name),
                "ts": journey.client_issue_ns / 1000.0,
                "dur": path.latency_ns / 1000.0,
                "args": _jsonable({
                    "key": journey.key,
                    "version": list(journey.version),
                    "via_node": path.node,
                    "buckets_ns": path.buckets,
                }),
            })
    return events


def _metadata_events(pids: Iterable[int]) -> List[dict]:
    """process/thread naming so Perfetto shows node/lane labels."""
    events: List[dict] = []
    for pid in sorted(pids):
        name = "cluster" if pid == CLUSTER_PID else f"node{pid - 1}"
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "tid": 0, "args": {"name": name}})
        for tid, lane in enumerate(_LANE_NAMES):
            events.append({"name": "thread_name", "ph": "M", "pid": pid,
                           "tid": tid, "args": {"name": lane}})
    return events


_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


class ChromeTraceSink:
    """A tracer that streams a run's Chrome trace to ``path``.

    It keeps no history: each ``emit`` is serialised at once and
    written as soon as the clock has reached its timestamp — at once,
    except for the few spans recorded ahead of the clock with their
    computed end (``net_send``), which wait in a small reorder heap so
    that the events are sorted by time.  The clock is read off the
    records themselves: no record starts (``time - dur``) after the
    moment it is emitted.  :meth:`close` ends the file.
    """

    enabled = True
    dropped = 0
    """A stream keeps every record; the run report and the health
    monitor read this count as a :class:`~repro.sim.trace.Tracer`'s."""

    def __init__(self, path: str):
        self._fh = open(path, "w")
        self._fh.write('{"traceEvents":[')
        self._sep = ""
        self._counts: Dict[str, int] = {}
        self._pids: Set[int] = set()
        self._emitted = 0
        self._clock = 0.0
        self._ahead: List[Tuple[float, int, str]] = []

    def emit(self, time: float, category: str, node: Optional[int] = None,
             dur: Optional[float] = None, phase: Optional[str] = None,
             **details: Any) -> None:
        pid = CLUSTER_PID if node is None else node + 1
        tid = _lane_of(category)
        if phase is None:
            phase = SPAN if dur is not None else INSTANT
        dur = dur if dur is not None else 0.0
        event: Dict[str, Any] = {"name": category, "cat": _LANE_NAMES[tid],
                                 "ph": phase, "pid": pid, "tid": tid}
        if phase == SPAN:
            event["ts"] = (time - dur) / 1000.0
            event["dur"] = dur / 1000.0
        else:
            event["ts"] = time / 1000.0
            if phase == INSTANT:
                event["s"] = "t"  # thread-scoped instant
        if details:
            event["args"] = {k: _jsonable(v) for k, v in details.items()}
        self._emitted += 1
        self._counts[category] = self._counts.get(category, 0) + 1
        self._pids.add(pid)
        self._clock = max(self._clock, time - dur)
        ahead = self._ahead
        heapq.heappush(ahead, (time, self._emitted, _encode(event)))
        while ahead and ahead[0][0] <= self._clock:
            self._write(heapq.heappop(ahead)[2])

    def _write(self, text: str) -> None:
        self._fh.write(self._sep + text)
        self._sep = ","

    def categories(self) -> Dict[str, int]:
        """Category -> record count."""
        return dict(self._counts)

    def __len__(self) -> int:
        return self._emitted

    def close(self, meta: Optional[Dict[str, Any]] = None,
              extra_events: Iterable[dict] = ()) -> None:
        """Write the held-back spans, the process and thread names,
        ``extra_events`` (e.g. the journey lanes from
        :func:`journey_chrome_events`) and ``otherData`` — the record
        count and ``meta`` — and close the file."""
        while self._ahead:
            self._write(heapq.heappop(self._ahead)[2])
        for event in _metadata_events(self._pids) + list(extra_events):
            self._write(_encode(event))
        other: Dict[str, Any] = {"record_count": self._emitted}
        if meta:
            other.update({str(k): _jsonable(v) for k, v in meta.items()})
        self._fh.write(f'],"displayTimeUnit":"ns","otherData":'
                       f'{_encode(other)}}}\n')
        self._fh.close()
