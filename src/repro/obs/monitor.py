"""Online health monitoring: periodic in-simulation pressure sampling.

The DDP trade-offs show up at runtime as *pressure* long before they
show up in end-of-run summaries: NVM persist queues back up under
Strict/Synchronous persistency, causal buffers grow under Causal
consistency, and coordination rounds pile up under Linearizable
consistency.  :class:`HealthMonitor` samples those signals *while the
simulation runs*, driven entirely by the DES clock (``sim.call_at`` —
no wall clock, so monitored runs stay deterministic and a monitored run
is byte-identical to an unmonitored one).

Each sample captures:

* simulator event-queue depth (kernel backlog),
* per-node NVM outstanding accesses and busy banks (persist pressure),
* per-node causal-buffer size and inflight INV/ACK/VAL rounds,
* tracer / journey-tracker ``dropped`` counters (observability loss),
* a top-K hot-key sketch (which keys absorbed the interval's writes).

On top of the samples, lightweight **invariant probes** check ordering
properties online and record violations as first-class health events:
``applied_monotonic`` / ``persisted_monotonic`` (per-key versions never
move backwards at a replica) and ``vp_before_dp`` (a replica never
reports a version durable before it is visible).  Which of them may be
held against the attached cluster's model is the ``probes`` column of
the contract table (:mod:`repro.core.contracts`).

Storage is bounded (:data:`MAX_SAMPLES` / :data:`MAX_VIOLATIONS`, with
``dropped`` counters) so long runs cannot grow without limit.  The
sample stream exports as Chrome ``counter`` events on a ``health`` lane
(:func:`health_chrome_events`) and folds into the run report
(:func:`health_json`, the ``health`` section of ``repro.run_report/6``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.core.contracts import PROBES, contract_for
from repro.core.replica import Version

__all__ = ["HealthSample", "HealthViolation", "HealthMonitor",
           "health_json", "health_chrome_events"]

INTERVAL_NS = 5_000.0
"""Simulated time between two samples."""
MAX_SAMPLES = 10_000
"""Samples kept; later ones are counted in ``dropped``."""
TOP_K = 8
"""Keys in the hot-key sketch, per sample and over the run."""
MAX_VIOLATIONS = 1_000
"""Violations kept; later ones are counted in ``violations_dropped``."""


@dataclass(frozen=True)
class HealthSample:
    """One periodic snapshot of cluster pressure signals."""

    time_ns: float
    event_queue_depth: int
    """Simulator heap size (scheduled-but-unprocessed events)."""
    nvm_outstanding: Tuple[int, ...]
    """Per node: NVM accesses queued or in service (persist pressure)."""
    nvm_banks_busy: Tuple[int, ...]
    """Per node: NVM banks currently in service (utilization numerator;
    the denominator is the device's fixed bank count)."""
    causal_buffer: Tuple[int, ...]
    """Per node: updates buffered for unmet causal dependencies."""
    inflight_writes: Tuple[int, ...]
    """Per node: coordinator-side INV/UPD rounds awaiting ACKs/VALs."""
    inflight_rounds: Tuple[int, ...]
    """Per node: outstanding INITX/ENDX/PERSIST rounds."""
    tracer_dropped: int
    journey_dropped: int
    top_keys: Tuple[Tuple[int, int], ...]
    """(key, writes since previous sample), hottest first."""
    violations_total: int
    """Cumulative invariant violations observed up to this sample."""


@dataclass(frozen=True)
class HealthViolation:
    """One online invariant-probe failure (a first-class health event)."""

    time_ns: float
    probe: str
    node: int
    key: int
    detail: str


class HealthMonitor:
    """Periodic in-simulation health sampler (see module docstring).

    Lifecycle: construct, optionally :meth:`watch` observability sinks,
    pass to :class:`repro.cluster.cluster.Cluster` (which calls
    :meth:`attach`); the monitor schedules itself on the simulation
    clock and :meth:`stop` (called by ``Cluster.run``) ends sampling.
    Purely observational: samples read state, never mutate it.
    """

    def __init__(self):
        self.samples: List[HealthSample] = []
        self.dropped = 0
        self.violations: List[HealthViolation] = []
        self.violations_total = 0
        self.violations_dropped = 0
        self.probes: Dict[str, bool] = {}
        self._sim = None
        self._engines: List[Any] = []
        self._memories: List[Any] = []
        self._tracer = None
        self._journey = None
        self._running = False
        self.stopped_at_ns: Optional[float] = None
        # Per-node per-key (applied, persisted) versions at the previous
        # sample, for the monotonicity probes.
        self._prev_versions: List[Dict[int, Tuple[Version, Version]]] = []
        # Per-key highest applied sequence seen anywhere, for the
        # hot-key sketch (delta per interval, cumulative at report time).
        self._key_seq: Dict[int, int] = {}

    # -- wiring ------------------------------------------------------------

    def watch(self, tracer: Any = None, journey: Any = None) -> None:
        """Register sinks whose ``dropped`` counters each sample echoes."""
        if tracer is not None:
            self._tracer = tracer
        if journey is not None:
            self._journey = journey

    def attach(self, cluster: Any) -> None:
        """Bind to a built cluster and start the sampling loop."""
        if self._sim is not None:
            raise RuntimeError("monitor already attached")
        self._sim = cluster.sim
        self._engines = list(cluster.engines)
        self._memories = [node.memory for node in cluster.nodes]
        self._prev_versions = [{} for _ in self._engines]
        held = contract_for(cluster.model).probes
        self.probes = {probe: probe in held for probe in PROBES}
        self._running = True
        self._sim.call_at(self._sim.now + INTERVAL_NS, self._tick)

    def stop(self, now_ns: Optional[float] = None) -> None:
        """End sampling; the pending tick (if any) becomes a no-op."""
        self._running = False
        if self.stopped_at_ns is None and self._sim is not None:
            self.stopped_at_ns = self._sim.now if now_ns is None else now_ns

    # -- sampling ----------------------------------------------------------

    def _tick(self) -> None:
        if not self._running:
            return
        sample = self._sample()
        if len(self.samples) < MAX_SAMPLES:
            self.samples.append(sample)
        else:
            self.dropped += 1
        self._sim.call_at(self._sim.now + INTERVAL_NS, self._tick)

    def _sample(self) -> HealthSample:
        now = self._sim.now
        self._run_probes(now)
        return HealthSample(
            time_ns=now,
            event_queue_depth=self._sim.queue_depth,
            nvm_outstanding=tuple(m.nvm.outstanding for m in self._memories),
            nvm_banks_busy=tuple(m.nvm.banks_busy for m in self._memories),
            causal_buffer=tuple(e.causal_buffer_len for e in self._engines),
            inflight_writes=tuple(e.outstanding_write_count
                                  for e in self._engines),
            inflight_rounds=tuple(e.inflight_round_count
                                  for e in self._engines),
            tracer_dropped=(self._tracer.dropped
                            if self._tracer is not None else 0),
            journey_dropped=(self._journey.dropped
                             if self._journey is not None else 0),
            top_keys=self._hot_keys(),
            violations_total=self.violations_total,
        )

    def _hot_keys(self) -> Tuple[Tuple[int, int], ...]:
        """Top-K keys by writes since the previous sample (delta of the
        highest applied sequence seen at any replica)."""
        current: Dict[int, int] = {}
        for engine in self._engines:
            for replica in engine.replicas:
                seq = replica.applied_version[0]
                if seq > current.get(replica.key, 0):
                    current[replica.key] = seq
        deltas = [(key, seq - self._key_seq.get(key, 0))
                  for key, seq in current.items()
                  if seq > self._key_seq.get(key, 0)]
        deltas.sort(key=lambda kv: (-kv[1], kv[0]))
        self._key_seq.update(current)
        return tuple(deltas[:TOP_K])

    # -- invariant probes --------------------------------------------------

    def _run_probes(self, now: float) -> None:
        check_applied = self.probes.get("applied_monotonic", False)
        check_persisted = self.probes.get("persisted_monotonic", False)
        check_order = self.probes.get("vp_before_dp", False)
        for node, engine in enumerate(self._engines):
            prev = self._prev_versions[node]
            for replica in engine.replicas:
                applied = replica.applied_version
                persisted = replica.persisted_version
                seen = prev.get(replica.key)
                if seen is not None:
                    if check_applied and applied < seen[0]:
                        self._record(now, "applied_monotonic", node,
                                     replica.key,
                                     f"applied {seen[0]} -> {applied}")
                    if check_persisted and persisted < seen[1]:
                        self._record(now, "persisted_monotonic", node,
                                     replica.key,
                                     f"persisted {seen[1]} -> {persisted}")
                if check_order and persisted > applied:
                    self._record(now, "vp_before_dp", node, replica.key,
                                 f"persisted {persisted} ahead of "
                                 f"applied {applied}")
                prev[replica.key] = (applied, persisted)

    def _record(self, now: float, probe: str, node: int, key: int,
                detail: str) -> None:
        self.violations_total += 1
        if len(self.violations) < MAX_VIOLATIONS:
            self.violations.append(
                HealthViolation(now, probe, node, key, detail))
        else:
            self.violations_dropped += 1

    # -- derived -----------------------------------------------------------

    @property
    def peak_event_queue_depth(self) -> int:
        return max((s.event_queue_depth for s in self.samples), default=0)

    @property
    def peak_nvm_outstanding(self) -> int:
        return max((max(s.nvm_outstanding, default=0)
                    for s in self.samples), default=0)

    def top_keys_total(self) -> List[Tuple[int, int]]:
        """(key, total writes observed) over the whole run, hottest
        first — the cumulative view of the per-sample sketch."""
        totals = sorted(self._key_seq.items(), key=lambda kv: (-kv[1], kv[0]))
        return totals[:TOP_K]

    def __len__(self) -> int:
        return len(self.samples)


# ---------------------------------------------------------------------------
# export shaping
# ---------------------------------------------------------------------------

def health_json(monitor: HealthMonitor) -> Dict[str, Any]:
    """The ``health`` section of the ``repro.run_report/6`` artifact."""
    samples = monitor.samples
    nodes = range(len(monitor._memories))
    return {
        "interval_ns": INTERVAL_NS,
        "samples": len(samples),
        "dropped": monitor.dropped,
        "series": {
            "time_ns": [s.time_ns for s in samples],
            "event_queue_depth": [s.event_queue_depth for s in samples],
            "tracer_dropped": [s.tracer_dropped for s in samples],
            "journey_dropped": [s.journey_dropped for s in samples],
            "per_node": {
                str(node): {
                    "nvm_outstanding": [s.nvm_outstanding[node]
                                        for s in samples],
                    "nvm_banks_busy": [s.nvm_banks_busy[node]
                                       for s in samples],
                    "causal_buffer": [s.causal_buffer[node]
                                      for s in samples],
                    "inflight_writes": [s.inflight_writes[node]
                                        for s in samples],
                    "inflight_rounds": [s.inflight_rounds[node]
                                        for s in samples],
                }
                for node in nodes
            },
        },
        "top_keys": [[key, count] for key, count in monitor.top_keys_total()],
        "probes": dict(monitor.probes),
        "violations": {
            "total": monitor.violations_total,
            "dropped": monitor.violations_dropped,
            "events": [
                {"time_ns": v.time_ns, "probe": v.probe, "node": v.node,
                 "key": v.key, "detail": v.detail}
                for v in monitor.violations
            ],
        },
    }


def health_chrome_events(monitor: HealthMonitor) -> List[dict]:
    """Chrome ``counter`` events for the ``health`` lane.

    One cluster-wide counter (event-queue depth, pid 0) plus one
    multi-series counter per node per sample; invariant violations
    appear as instants so they stand out on the timeline.
    """
    from repro.obs.export import _lane_of

    tid = _lane_of("health")
    events: List[dict] = []
    for sample in monitor.samples:
        ts = sample.time_ns / 1000.0
        events.append({
            "name": "health.kernel", "cat": "health", "ph": "C",
            "pid": 0, "tid": tid, "ts": ts,
            "args": {"event_queue_depth": sample.event_queue_depth},
        })
        for node in range(len(sample.nvm_outstanding)):
            events.append({
                "name": "health.pressure", "cat": "health", "ph": "C",
                "pid": node + 1, "tid": tid, "ts": ts,
                "args": {
                    "nvm_outstanding": sample.nvm_outstanding[node],
                    "nvm_banks_busy": sample.nvm_banks_busy[node],
                    "causal_buffer": sample.causal_buffer[node],
                    "inflight_writes": sample.inflight_writes[node],
                    "inflight_rounds": sample.inflight_rounds[node],
                },
            })
    for violation in monitor.violations:
        events.append({
            "name": "health_violation", "cat": "health", "ph": "i",
            "s": "p", "pid": violation.node + 1, "tid": tid,
            "ts": violation.time_ns / 1000.0,
            "args": {"probe": violation.probe, "key": violation.key,
                     "detail": violation.detail},
        })
    return events
