"""Critical-path latency attribution for update journeys.

Given the :class:`~repro.obs.journey.UpdateJourney` records a run
collected, this module answers *why* each update's Visibility Point and
Durability Point arrived when they did.  The causal chain to the
last-reaching replica is cut at the journey's recorded milestones
(client issue -> version allocation -> INV/UPD injection -> delivery ->
apply / persist enqueue -> NVM service) and every segment is assigned
to exactly one of five buckets:

* ``network`` — wire time: queue-pair wait, serialization, propagation
  (plus the leader variant's forwarding hop);
* ``coord_wait`` — deliberate coordination waits: write stalls on
  transient keys, lazy propagation/persist delays, causal buffering,
  scope-end and ENDX persist placement, leader worker queueing;
* ``nvm_queue`` — persist enqueue to media-write start: the write-
  combining pending slot plus NVM bank queueing (the paper's "NVM
  pressure");
* ``device`` — NVM media service time of the completing write;
* ``compute`` — CPU and volatile-memory work (request processing,
  store walks, message handling, DDIO/cache/DRAM accesses).

Because the buckets partition consecutive timeline segments, they sum
to the end-to-end VP / DP latency by construction — the *conservation
invariant* the test suite asserts for every DDP model.

:func:`aggregate_journeys` rolls per-update decompositions into a
:class:`WaterfallReport` (whole run, per coordinator node, and per
key-hotness class), :func:`waterfall_json` shapes it as the
``journeys`` section of the ``repro.run_report/6`` artifact, and
:func:`format_waterfall` renders that section as a text waterfall —
``repro journey`` reads it back from a saved run or sweep report.

The same records give the report's ``lag`` section: :func:`lag_summary`
(the VP and DP lag distributions, Table 2's "when" column as a number)
and :func:`window_lags` (per node, the lags bucketed by issue window).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.metrics import _percentile, fold_sum
from repro.obs.journey import UpdateJourney

__all__ = ["BUCKETS", "PathDecomposition", "JourneyBreakdown",
           "WaterfallAggregate", "WaterfallReport", "LagSummary",
           "decompose", "aggregate_journeys", "lag_summary", "window_lags",
           "format_waterfall", "waterfall_json"]

BUCKETS: Tuple[str, ...] = ("network", "coord_wait", "nvm_queue",
                            "device", "compute")

_WAIT_TRIGGERS = frozenset({"lazy", "scope", "endx"})
"""Persist triggers whose placement delay is a coordination choice
(waiting for a timer, a Persist call, or an ENDX round) rather than
work; ``inline``/``eager``/``strict`` persists start as soon as the
handler reaches them, so their placement gap is compute."""

HOTNESS_CLASSES: Tuple[str, ...] = ("hot", "warm", "cold")

SLOWEST = 5
"""Updates a report breaks down one by one (the slowest by DP)."""


@dataclass(frozen=True)
class PathDecomposition:
    """One update's latency split along its critical path."""

    latency_ns: float
    node: int
    """The replica the critical path runs through (last to reach the
    point)."""
    buckets: Dict[str, float]


@dataclass(frozen=True)
class JourneyBreakdown:
    """VP and DP decompositions for one journey (None = point not yet
    reached at every replica when the run ended, or absorbed by write
    combining)."""

    journey: UpdateJourney
    vp: Optional[PathDecomposition]
    dp: Optional[PathDecomposition]


def _new_buckets() -> Dict[str, float]:
    return {bucket: 0.0 for bucket in BUCKETS}


def _prefix(journey: UpdateJourney, target: int,
            fallback_arrival: float) -> Tuple[Dict[str, float], float]:
    """Buckets from client issue up to the update's arrival at
    ``target`` (its INV/UPD delivery, or version allocation when the
    target is the coordinator itself).  Returns (buckets, arrival)."""
    buckets = _new_buckets()
    seg = journey.issue_ns - journey.client_issue_ns
    stall = min(journey.stall_ns, seg)
    fwd_net = min(journey.fwd_net_ns, seg - stall)
    fwd_wait = min(journey.fwd_wait_ns, seg - stall - fwd_net)
    buckets["coord_wait"] += stall + fwd_wait
    buckets["network"] += fwd_net
    buckets["compute"] += seg - stall - fwd_net - fwd_wait
    if target == journey.coordinator:
        return buckets, journey.issue_ns
    arrival = journey.recvs.get(target, fallback_arrival)
    send = journey.sends.get(target)
    if send is None or send > arrival:
        # No injection record (e.g. a pruned trace): the whole gap is
        # attributed to the wire rather than silently dropped.
        buckets["network"] += arrival - journey.issue_ns
    else:
        seg_send = send - journey.issue_ns
        if target in journey.lazy_dsts:
            buckets["coord_wait"] += seg_send
        else:
            buckets["compute"] += seg_send
        buckets["network"] += arrival - send
    return buckets, arrival


def decompose_vp(journey: UpdateJourney,
                 num_nodes: int) -> Optional[PathDecomposition]:
    """Split the end-to-end visibility latency along the critical path
    to the last-applying replica."""
    latency = journey.vp_ns(num_nodes)
    if latency is None:
        return None
    node = journey.vp_node
    applied = journey.applies[node]
    buckets, arrival = _prefix(journey, node, applied)
    seg = max(applied - arrival, 0.0)
    wait = min(journey.buffer_wait_ns.get(node, 0.0), seg)
    buckets["coord_wait"] += wait
    buckets["compute"] += seg - wait
    return PathDecomposition(latency, node, buckets)


def decompose_dp(journey: UpdateJourney,
                 num_nodes: int) -> Optional[PathDecomposition]:
    """Split the end-to-end durability latency along the critical path
    to the last-persisting replica."""
    latency = journey.dp_ns(num_nodes)
    if latency is None:
        return None
    node = journey.dp_node
    durable = journey.persists[node]
    issue = min(journey.persist_issues.get(node, durable), durable)
    buckets, arrival = _prefix(journey, node, issue)
    issue = max(issue, arrival)
    seg = issue - arrival
    wait = min(journey.buffer_wait_ns.get(node, 0.0), seg)
    buckets["coord_wait"] += wait
    trigger = journey.persist_triggers.get(node, "inline")
    placement = "coord_wait" if trigger in _WAIT_TRIGGERS else "compute"
    buckets[placement] += seg - wait
    tail = durable - issue
    device = min(journey.device_ns.get(node, 0.0), tail)
    buckets["device"] += device
    buckets["nvm_queue"] += tail - device
    return PathDecomposition(latency, node, buckets)


def decompose(journey: UpdateJourney, num_nodes: int) -> JourneyBreakdown:
    return JourneyBreakdown(journey, decompose_vp(journey, num_nodes),
                            decompose_dp(journey, num_nodes))


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WaterfallAggregate:
    """Mean bucket decomposition over a set of updates."""

    count: int
    mean_latency_ns: float
    buckets_ns: Dict[str, float]
    """Mean nanoseconds per bucket (sums to ``mean_latency_ns``)."""

    def fraction(self, bucket: str) -> float:
        if self.mean_latency_ns <= 0:
            return 0.0
        return self.buckets_ns[bucket] / self.mean_latency_ns


class _Accumulator:
    def __init__(self) -> None:
        self.count = 0
        self.latency_sum = 0.0
        self.bucket_sums = _new_buckets()

    def add(self, path: PathDecomposition) -> None:
        self.count += 1
        self.latency_sum += path.latency_ns
        for bucket, value in path.buckets.items():
            self.bucket_sums[bucket] += value

    def result(self) -> Optional[WaterfallAggregate]:
        if self.count == 0:
            return None
        return WaterfallAggregate(
            count=self.count,
            mean_latency_ns=self.latency_sum / self.count,
            buckets_ns={bucket: total / self.count
                        for bucket, total in self.bucket_sums.items()})


@dataclass(frozen=True)
class WaterfallReport:
    """Aggregated critical-path attribution for one run."""

    journeys: int
    vp: Optional[WaterfallAggregate]
    dp: Optional[WaterfallAggregate]
    vp_incomplete: int
    dp_incomplete: int
    by_node: Dict[int, Dict[str, Optional[WaterfallAggregate]]]
    """Coordinator node -> {"vp": ..., "dp": ...}."""
    by_hotness: Dict[str, Dict[str, Optional[WaterfallAggregate]]]
    """Key-hotness class ("hot"/"warm"/"cold") -> {"vp": ..., "dp": ...}."""
    slowest: List[JourneyBreakdown]
    """The :data:`SLOWEST` slowest updates (by DP latency, VP as
    tiebreak), each with its full per-update decomposition."""
    dropped: int = 0


def _hotness_classes(journeys: Sequence[UpdateJourney]) -> Dict[int, str]:
    """Classify keys by how often they were written in this run: the
    top decile of per-key write counts is ``hot``, the bottom half
    ``cold``, the rest ``warm``."""
    counts: Dict[int, int] = {}
    for journey in journeys:
        counts[journey.key] = counts.get(journey.key, 0) + 1
    if not counts:
        return {}
    ordered = sorted(counts.values())
    hot_floor = _percentile(ordered, 0.90)
    cold_ceil = _percentile(ordered, 0.50)
    classes: Dict[int, str] = {}
    for key, count in counts.items():
        if count >= hot_floor and count > cold_ceil:
            classes[key] = "hot"
        elif count <= cold_ceil:
            classes[key] = "cold"
        else:
            classes[key] = "warm"
    return classes


def aggregate_journeys(journeys: Iterable[UpdateJourney], num_nodes: int,
                       dropped: int = 0) -> WaterfallReport:
    """Decompose every journey and roll the results up."""
    journeys = list(journeys)
    hotness = _hotness_classes(journeys)
    overall = {"vp": _Accumulator(), "dp": _Accumulator()}
    by_node: Dict[int, Dict[str, _Accumulator]] = {}
    by_hot: Dict[str, Dict[str, _Accumulator]] = {
        cls: {"vp": _Accumulator(), "dp": _Accumulator()}
        for cls in HOTNESS_CLASSES}
    breakdowns: List[JourneyBreakdown] = []
    vp_incomplete = dp_incomplete = 0
    for journey in journeys:
        breakdown = decompose(journey, num_nodes)
        breakdowns.append(breakdown)
        node_acc = by_node.setdefault(
            journey.coordinator, {"vp": _Accumulator(), "dp": _Accumulator()})
        hot_acc = by_hot[hotness[journey.key]]
        for point in ("vp", "dp"):
            path = getattr(breakdown, point)
            if path is None:
                if point == "vp":
                    vp_incomplete += 1
                else:
                    dp_incomplete += 1
                continue
            overall[point].add(path)
            node_acc[point].add(path)
            hot_acc[point].add(path)
    ranked = sorted(
        (b for b in breakdowns if b.vp is not None or b.dp is not None),
        key=lambda b: (-(b.dp.latency_ns if b.dp else 0.0),
                       -(b.vp.latency_ns if b.vp else 0.0)))
    return WaterfallReport(
        journeys=len(journeys),
        vp=overall["vp"].result(), dp=overall["dp"].result(),
        vp_incomplete=vp_incomplete, dp_incomplete=dp_incomplete,
        by_node={node: {p: acc.result() for p, acc in accs.items()}
                 for node, accs in sorted(by_node.items())},
        by_hotness={cls: {p: acc.result() for p, acc in accs.items()}
                    for cls, accs in by_hot.items()
                    if any(acc.count for acc in accs.values())},
        slowest=ranked[:SLOWEST], dropped=dropped)


# ---------------------------------------------------------------------------
# VP/DP lags (the run report's ``lag`` section)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LagSummary:
    """Visibility/durability lag distributions for one run.  A lag runs
    from the write's version allocation (``issue_ns``) to its apply (VP)
    or persist (DP) at the last of all replicas."""

    writes_tracked: int
    fully_visible: int
    fully_durable: int
    mean_visibility_lag_ns: float
    p95_visibility_lag_ns: float
    mean_durability_lag_ns: float
    p95_durability_lag_ns: float

    @property
    def visibility_completion_fraction(self) -> float:
        return self.fully_visible / max(self.writes_tracked, 1)

    @property
    def durability_completion_fraction(self) -> float:
        return self.fully_durable / max(self.writes_tracked, 1)


def _mean(values: Sequence[float]) -> float:
    return fold_sum(values) / len(values) if values else float("nan")


def lag_summary(journeys: Sequence[UpdateJourney],
                num_nodes: int) -> LagSummary:
    """VP and DP lags of the writes that reached all ``num_nodes``
    replicas (a write some replica never applied or persisted counts as
    tracked, not as complete)."""
    visibility = [max(j.applies.values()) - j.issue_ns for j in journeys
                  if len(j.applies) == num_nodes]
    durability = [max(j.persists.values()) - j.issue_ns for j in journeys
                  if len(j.persists) == num_nodes]
    return LagSummary(
        writes_tracked=len(journeys),
        fully_visible=len(visibility),
        fully_durable=len(durability),
        mean_visibility_lag_ns=_mean(visibility),
        p95_visibility_lag_ns=_percentile(sorted(visibility), 0.95),
        mean_durability_lag_ns=_mean(durability),
        p95_durability_lag_ns=_percentile(sorted(durability), 0.95))


def window_lags(journeys: Iterable[UpdateJourney],
                window_ns: float) -> Dict[int, List[Dict[str, float]]]:
    """Per-node windowed VP-lag / DP-lag series.

    Each write contributes, per node, the lag from its issue to the
    node's apply (VP) and persist (DP); samples are bucketed by the
    write's *issue* window.  Returns ``node -> [window dict]`` with
    aligned windows across nodes, each dict carrying mean and p99 lags
    plus sample counts (NaN means no sample landed there).
    """
    if window_ns <= 0:
        raise ValueError(f"window_ns must be positive: {window_ns}")
    # node -> window index -> (vp samples, dp samples)
    samples: Dict[int, Dict[int, Tuple[List[float], List[float]]]] = {}
    last_window = -1
    for journey in journeys:
        issued = journey.issue_ns
        index = int(issued // window_ns)
        last_window = max(last_window, index)
        for node, applied in journey.applies.items():
            samples.setdefault(node, {}).setdefault(
                index, ([], []))[0].append(applied - issued)
        for node, persisted in journey.persists.items():
            samples.setdefault(node, {}).setdefault(
                index, ([], []))[1].append(persisted - issued)
    series: Dict[int, List[Dict[str, float]]] = {}
    for node in sorted(samples):
        rows = []
        for index in range(last_window + 1):
            vp, dp = samples[node].get(index, ([], []))
            rows.append({
                "start_ns": index * window_ns,
                "end_ns": (index + 1) * window_ns,
                "vp_samples": len(vp),
                "vp_mean_ns": _mean(vp),
                "vp_p99_ns": _percentile(sorted(vp), 0.99),
                "dp_samples": len(dp),
                "dp_mean_ns": _mean(dp),
                "dp_p99_ns": _percentile(sorted(dp), 0.99),
            })
        series[node] = rows
    return series


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

_BAR_WIDTH = 24


def _bucket_line(name: str, value_ns: float, total_ns: float) -> str:
    fraction = value_ns / total_ns if total_ns > 0 else 0.0
    bar = "#" * max(int(round(fraction * _BAR_WIDTH)),
                    1 if value_ns > 0 else 0)
    return (f"    {name:<10} {value_ns:>10.0f} ns  {fraction:>6.1%}  {bar}")


def _format_aggregate(title: str, aggregate: Optional[dict],
                      incomplete: int) -> List[str]:
    if aggregate is None:
        return [f"  {title}: no update reached this point at every replica"]
    mean = aggregate["mean_latency_ns"]
    lines = [f"  {title}: mean {mean:.0f} ns over "
             f"{aggregate['count']} updates"
             + (f" ({incomplete} incomplete)" if incomplete else "")]
    for bucket in BUCKETS:
        lines.append(_bucket_line(bucket, aggregate["buckets_ns"][bucket],
                                  mean))
    return lines


def _one_line(aggregate: Optional[dict]) -> str:
    if aggregate is None:
        return "--"
    parts = " ".join(f"{bucket[:3]}={aggregate['fractions'][bucket]:.0%}"
                     for bucket in BUCKETS
                     if aggregate["buckets_ns"][bucket] > 0)
    return f"{aggregate['mean_latency_ns']:>8.0f} ns  {parts}"


def format_waterfall(journeys: dict, title: str) -> str:
    """Render a ``journeys`` section (:func:`waterfall_json`, as a run
    report or a sweep cell carries it) as a text waterfall."""
    dropped = journeys["dropped"]
    lines = [f"critical-path waterfall — {title}  "
             f"({journeys['journeys']} journeys tracked"
             + (f", {dropped} dropped" if dropped else "") + ")"]
    lines += _format_aggregate("VP (visibility)", journeys["vp"],
                               journeys["vp_incomplete"])
    lines += _format_aggregate("DP (durability)", journeys["dp"],
                               journeys["dp_incomplete"])
    by_node = journeys["by_node"]
    if by_node:
        lines.append("  by coordinator node:")
        for node in sorted(by_node, key=int):
            points = by_node[node]
            lines.append(f"    n{node}  vp {_one_line(points['vp'])}")
            lines.append(f"        dp {_one_line(points['dp'])}")
    by_hotness = journeys["by_hotness"]
    if by_hotness:
        lines.append("  by key hotness:")
        for cls in HOTNESS_CLASSES:
            points = by_hotness.get(cls)
            if points is None:
                continue
            lines.append(f"    {cls:<5} vp {_one_line(points['vp'])}")
            lines.append(f"          dp {_one_line(points['dp'])}")
    if journeys["slowest"]:
        lines.append("  slowest updates (by DP latency):")
        for update in journeys["slowest"]:
            lines.append(
                f"    key={update['key']} v={tuple(update['version'])} "
                f"coord=n{update['coordinator']}")
            for point in ("vp", "dp"):
                path = update[point]
                if path is None:
                    continue
                parts = "  ".join(
                    f"{bucket}={path['buckets_ns'][bucket]:.0f}"
                    for bucket in BUCKETS if path["buckets_ns"][bucket] > 0)
                lines.append(f"      {point} {path['latency_ns']:>8.0f} ns "
                             f"via n{path['node']}:  {parts}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# JSON shaping (for repro.run_report/6)
# ---------------------------------------------------------------------------


def _aggregate_json(aggregate: Optional[WaterfallAggregate]) -> Optional[dict]:
    if aggregate is None:
        return None
    return {
        "count": aggregate.count,
        "mean_latency_ns": aggregate.mean_latency_ns,
        "buckets_ns": dict(aggregate.buckets_ns),
        "fractions": {bucket: aggregate.fraction(bucket)
                      for bucket in BUCKETS},
    }


def _points_json(points: Dict[str, Optional[WaterfallAggregate]]) -> dict:
    return {point: _aggregate_json(agg) for point, agg in points.items()}


def waterfall_json(report: WaterfallReport) -> dict:
    """The ``journeys`` section of the run-report artifact."""
    return {
        "buckets": list(BUCKETS),
        "journeys": report.journeys,
        "dropped": report.dropped,
        "vp": _aggregate_json(report.vp),
        "dp": _aggregate_json(report.dp),
        "vp_incomplete": report.vp_incomplete,
        "dp_incomplete": report.dp_incomplete,
        "by_node": {str(node): _points_json(points)
                    for node, points in report.by_node.items()},
        "by_hotness": {cls: _points_json(points)
                       for cls, points in report.by_hotness.items()},
        "slowest": [
            {
                "key": b.journey.key,
                "version": list(b.journey.version),
                "coordinator": b.journey.coordinator,
                **{point: (None if getattr(b, point) is None else {
                    "latency_ns": getattr(b, point).latency_ns,
                    "node": getattr(b, point).node,
                    "buckets_ns": dict(getattr(b, point).buckets),
                }) for point in ("vp", "dp")},
            }
            for b in report.slowest
        ],
    }
