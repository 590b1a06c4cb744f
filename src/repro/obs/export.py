"""Trace exporters: Chrome ``trace_event`` JSON and JSONL streaming.

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
  instants, straight from :class:`repro.sim.trace.TraceRecord.phase`.

Everything is emitted in deterministic order (records stably sorted by
time — a span may be recorded ahead of the clock, stamped with its
computed end — and metadata sorted), so two runs with the same seed
produce byte-identical files — asserted by the test suite.
"""

from __future__ import annotations

import heapq
import json
from operator import attrgetter
from typing import IO, Any, Dict, Iterable, List, Optional, Tuple, Union

from repro.sim.trace import INSTANT, SPAN, TraceRecord

__all__ = ["LANES", "chrome_trace_events", "journey_chrome_events",
           "chrome_trace_payload", "write_chrome_trace", "JsonlSink"]

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
    "recovery": ("recovery_scan", "recovery_reconcile", "recovery_resolve",
                 "recovery_done"),
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


def chrome_trace_events(records: Iterable[TraceRecord]) -> List[dict]:
    """Convert trace records to ``trace_event`` dicts (no metadata)."""
    events: List[dict] = []
    for record in records:
        pid = CLUSTER_PID if record.node is None else record.node + 1
        event: Dict[str, Any] = {
            "name": record.category,
            "cat": _LANE_NAMES[_lane_of(record.category)],
            "ph": record.phase,
            "pid": pid,
            "tid": _lane_of(record.category),
        }
        if record.phase == SPAN:
            event["ts"] = record.start / 1000.0
            event["dur"] = record.dur / 1000.0
        else:
            event["ts"] = record.time / 1000.0
            if record.phase == INSTANT:
                event["s"] = "t"  # thread-scoped instant
        if record.details:
            event["args"] = {k: _jsonable(v)
                             for k, v in record.details.items()}
        events.append(event)
    return events


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


def _metadata_events(records: Iterable[TraceRecord]) -> List[dict]:
    """process/thread naming so Perfetto shows node/lane labels."""
    pids = sorted({CLUSTER_PID if r.node is None else r.node + 1
                   for r in records})
    events: List[dict] = []
    for pid in pids:
        name = "cluster" if pid == CLUSTER_PID else f"node{pid - 1}"
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "tid": 0, "args": {"name": name}})
        for tid, lane in enumerate(_LANE_NAMES):
            events.append({"name": "thread_name", "ph": "M", "pid": pid,
                           "tid": tid, "args": {"name": lane}})
    return events


def chrome_trace_payload(records: Iterable[TraceRecord],
                         dropped: int = 0,
                         meta: Optional[Dict[str, Any]] = None,
                         extra_events: Optional[List[dict]] = None) -> dict:
    """The full JSON document: metadata + events + run information.

    ``extra_events`` are appended after the record events — e.g. the
    journey lanes from :func:`journey_chrome_events`.
    """
    records = sorted(records, key=attrgetter("time"))
    other: Dict[str, Any] = {"record_count": len(records),
                             "dropped_records": dropped}
    if meta:
        other.update({str(k): _jsonable(v) for k, v in meta.items()})
    return {
        "traceEvents": (_metadata_events(records)
                        + chrome_trace_events(records)
                        + list(extra_events or [])),
        "displayTimeUnit": "ns",
        "otherData": other,
    }


def write_chrome_trace(path: str, records: Iterable[TraceRecord],
                       dropped: int = 0,
                       meta: Optional[Dict[str, Any]] = None,
                       extra_events: Optional[List[dict]] = None) -> None:
    """Write a Perfetto-loadable trace file (deterministic bytes)."""
    payload = chrome_trace_payload(records, dropped=dropped, meta=meta,
                                   extra_events=extra_events)
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


class JsonlSink:
    """A duck-typed tracer that streams records as JSON lines.

    Unlike :class:`~repro.sim.trace.Tracer` it keeps no history: each
    ``emit`` is serialized and written as soon as the clock has reached
    its timestamp — at once, except for the few spans recorded ahead of
    the clock with their computed end (``net_send``), which wait in a
    small reorder heap so that the file is sorted by ``ts``.  The clock
    is read off the records themselves: no record starts (``ts - dur``)
    after the moment it is emitted.  Arbitrarily long runs stream to
    disk.  Plug it into a :class:`~repro.obs.fanout.FanoutTracer` to
    both keep records and stream them.
    """

    enabled = True

    def __init__(self, destination: Union[str, IO[str]]):
        if isinstance(destination, str):
            self._fh: IO[str] = open(destination, "w")
            self._owns = True
        else:
            self._fh = destination
            self._owns = False
        self.emitted = 0
        self._clock = 0.0
        self._ahead: List[Tuple[float, int, str]] = []

    def emit(self, time: float, category: str, node: Optional[int] = None,
             dur: Optional[float] = None, phase: Optional[str] = None,
             **details: Any) -> None:
        line: Dict[str, Any] = {"ts": time, "cat": category}
        if node is not None:
            line["node"] = node
        if dur is not None:
            line["dur"] = dur
        line["ph"] = phase if phase is not None else (
            SPAN if dur is not None else INSTANT)
        if details:
            line["args"] = {k: _jsonable(v) for k, v in details.items()}
        text = json.dumps(line, sort_keys=True, separators=(",", ":")) + "\n"
        self.emitted += 1
        self._clock = max(self._clock, time - (dur or 0.0))
        ahead = self._ahead
        heapq.heappush(ahead, (time, self.emitted, text))
        while ahead and ahead[0][0] <= self._clock:
            self._fh.write(heapq.heappop(ahead)[2])

    def span(self, start: float, end: float, category: str,
             node: Optional[int] = None, **details: Any) -> None:
        self.emit(end, category, node=node, dur=end - start, **details)

    def close(self) -> None:
        while self._ahead:
            self._fh.write(heapq.heappop(self._ahead)[2])
        self._fh.flush()
        if self._owns:
            self._fh.close()

    def __enter__(self) -> JsonlSink:
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
