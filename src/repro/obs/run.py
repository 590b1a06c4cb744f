"""One description of a run, one recipe that observes it.

Every experiment in the repository is the same five steps::

    CellSpec  ->  Cluster  ->  observers  ->  run report  ->  views

* :class:`CellSpec` is the one description of a run — model, workload,
  cluster shape, seed, duration — and the owner of the one
  :meth:`~CellSpec.meta` / ``config_hash`` every artifact carries.  Its
  ``__post_init__`` is the only run-shape validation.
* :class:`Observers` names the sinks the run is watched through; all
  optional, all pure observation (a same-seed run is byte-identical
  with or without any of them).  :func:`section_observers` builds them
  for a spec's report ``sections``, each at its one setting.
* :func:`observed_run` is the only code that wires them together: sink
  fan-out, ``monitor.watch``, cluster build, run, closing the trace
  stream, recorder finalisation and audit.  It returns an
  :class:`ObservedRun`, whose ``waterfall`` and ``report`` (the
  ``repro.run_report`` document) are assembled once, on first use.

``repro run`` / ``recover`` and the sweep worker
(:func:`repro.obs.sweep.run_cell`) are views: they build a spec and its
``section_observers``, call :func:`observed_run`, and print or select
from the result.  A sweep cell's ``journeys`` / ``health`` / ``profile`` /
``audit`` section therefore *is* the run report's section, and
``repro trace`` / ``journey`` / ``profile`` simulate nothing: they read
the artifacts ``run`` (and ``sweep``) wrote.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Dict, Optional, Tuple

from repro.analysis.metrics import Metrics, Summary
from repro.analysis.waterfall import aggregate_journeys
from repro.cluster.cluster import Cluster
from repro.cluster.config import ClusterConfig
from repro.core.model import Consistency, DdpModel, Persistency
from repro.obs.export import ChromeTraceSink, journey_chrome_events
from repro.obs.fanout import FanoutTracer
from repro.obs.history import (History, HistoryRecorder,
                               recovered_from_cluster)
from repro.obs.journey import JourneyTracker
from repro.obs.monitor import HealthMonitor, health_chrome_events
from repro.obs.profile import KernelProfile
from repro.obs.report import build_run_report, config_fingerprint
from repro.obs.schemas import SECTIONS
from repro.workload.ycsb import WORKLOADS

__all__ = ["CellSpec", "Observers", "ObservedRun",
           "observed_run", "section_observers"]

_DEFAULT_WINDOW_NS = 10_000.0


@dataclass(frozen=True)
class CellSpec:
    """One run: a (model, seed) cell of the matrix and its shape.

    ``clients`` is the total across the cluster; every server gets
    ``clients // servers`` of them, and ``clients`` is normalised to the
    count the run really has, so ``meta()`` never records a client that
    was not simulated.
    """

    consistency: str
    persistency: str
    seed: int
    workload: str = "A"
    servers: int = 5
    clients: int = 100
    duration_ns: float = 100_000.0
    warmup_ns: float = 10_000.0
    sections: Tuple[str, ...] = ()

    def __post_init__(self):
        unknown = set(self.sections) - set(SECTIONS)
        if unknown:
            raise ValueError(f"unknown sweep section(s): "
                             f"{', '.join(sorted(unknown))}")
        if self.workload not in WORKLOADS:
            raise ValueError(f"unknown workload {self.workload!r} (known: "
                             f"{', '.join(sorted(WORKLOADS))})")
        if self.servers < 2:
            raise ValueError(f"a replicated cluster needs at least 2 "
                             f"servers (got {self.servers})")
        if self.clients < self.servers:
            raise ValueError(f"{self.clients} clients cannot cover "
                             f"{self.servers} servers: every server needs "
                             f"at least one client")
        if not 0 <= self.warmup_ns < self.duration_ns:
            raise ValueError(f"need 0 <= warmup < duration (got warmup "
                             f"{self.warmup_ns:g} ns, duration "
                             f"{self.duration_ns:g} ns)")
        object.__setattr__(self, "clients",
                           self.clients // self.servers * self.servers)

    @property
    def model(self) -> DdpModel:
        return DdpModel(Consistency(self.consistency),
                        Persistency(self.persistency))

    @property
    def sort_key(self) -> Tuple[str, str, int]:
        """The deterministic merge key: completion order never matters."""
        return (self.consistency, self.persistency, self.seed)

    @property
    def label(self) -> str:
        return f"{str(self.model)} seed={self.seed}"

    def config(self) -> ClusterConfig:
        return ClusterConfig(servers=self.servers,
                             clients_per_server=self.clients // self.servers,
                             seed=self.seed)

    def meta(self) -> Dict[str, Any]:
        """Artifact metadata, including the ``config_hash`` that lets
        ``repro diff`` refuse apples-to-oranges comparisons.  The hash
        covers the resolved experiment shape (model, workload, cluster
        size) but not the seed or duration, so same-shape runs with
        different seeds stay comparable."""
        shape = {"model": str(self.model), "workload": self.workload,
                 "servers": self.servers, "clients": self.clients}
        return {
            **shape,
            "consistency": self.consistency,
            "persistency": self.persistency,
            "seed": self.seed,
            "duration_ns": self.duration_ns,
            "warmup_ns": self.warmup_ns,
            "config_hash": config_fingerprint(shape),
        }


@dataclass
class Observers:
    """The sinks one run is observed through; each is optional."""

    trace: Optional[ChromeTraceSink] = None
    """Streams the Chrome trace; :func:`observed_run` closes it with
    the run's journey and health lanes and meta."""
    journey: Optional[JourneyTracker] = None
    profile: Optional[KernelProfile] = None
    monitor: Optional[HealthMonitor] = None
    recorder: Optional[HistoryRecorder] = None
    audit: bool = False
    """Audit the recorded history against the 5x5 matrix (needs
    ``recorder``)."""
    report: bool = False
    """Collect what the run report's ``windows`` and ``lag`` series
    need: windowed :class:`Metrics` and a :class:`JourneyTracker`
    (``journey``, or one of the run's own when that is unset)."""


def section_observers(spec: CellSpec, *, profile: bool = False,
                      history: bool = False, trace: Optional[str] = None,
                      report: bool = False) -> Observers:
    """The observers ``spec.sections`` asks for — each at its one
    setting, the same for ``repro run`` and every sweep cell — plus a
    :class:`KernelProfile` (``profile``), a history recorder
    (``history``), a Chrome trace streamed to the path ``trace``, and
    the run report's windowed series (``report``)."""
    wanted = spec.sections
    return Observers(
        trace=ChromeTraceSink(trace) if trace else None,
        journey=JourneyTracker(spec.servers) if "journeys" in wanted else None,
        profile=KernelProfile() if profile or "profile" in wanted else None,
        monitor=HealthMonitor() if "health" in wanted else None,
        recorder=HistoryRecorder() if history or "audit" in wanted else None,
        audit="audit" in wanted,
        report=report)


@dataclass
class ObservedRun:
    """A finished run and everything its observers saw."""

    spec: CellSpec
    observers: Observers
    cluster: Cluster
    summary: Summary
    journey: Optional[JourneyTracker] = None
    """The tracker the run fed: ``observers.journey``, or the one the
    report's ``lag`` section was collected with."""
    history: Optional[History] = None
    audit: Optional[Dict[str, Any]] = None

    @cached_property
    def waterfall(self):
        """The journey tracker's critical-path aggregate (or ``None``)."""
        journey = self.observers.journey
        if journey is None:
            return None
        return aggregate_journeys(journey.journeys, self.spec.servers,
                                  dropped=journey.dropped)

    @cached_property
    def report(self) -> Dict[str, Any]:
        """The ``repro.run_report`` document of this run."""
        obs = self.observers
        return build_run_report(
            self.summary, self.cluster.metrics, _DEFAULT_WINDOW_NS,
            meta=self.spec.meta(),
            lag=self.journey if obs.report else None,
            profile=obs.profile, tracer=obs.trace,
            journeys=self.waterfall, monitor=obs.monitor,
            faults=self.cluster.faults, audit=self.audit)


def observed_run(spec: CellSpec, observers: Optional[Observers] = None,
                 faults=None) -> ObservedRun:
    """Build the cluster ``spec`` describes, run it under ``observers``
    (and the :class:`repro.faults.FaultInjector` ``faults``, if any),
    and hand back what they saw."""
    obs = observers if observers is not None else Observers()
    metrics, journey = None, obs.journey
    if obs.report:
        metrics = Metrics(window_ns=_DEFAULT_WINDOW_NS)
        if journey is None:
            journey = JourneyTracker(spec.servers)
    if obs.monitor is not None:
        obs.monitor.watch(tracer=obs.trace, journey=obs.journey)
    sinks = [sink for sink in (obs.trace, journey) if sink is not None]
    cluster = Cluster(
        spec.model, config=spec.config(), workload=WORKLOADS[spec.workload],
        tracer=(sinks[0] if len(sinks) == 1
                else FanoutTracer(sinks) if sinks else None),
        metrics=metrics, profile=obs.profile, monitor=obs.monitor,
        faults=faults, history=obs.recorder)
    summary = cluster.run(spec.duration_ns, warmup_ns=spec.warmup_ns)
    if obs.trace is not None:
        extra = []
        if obs.journey is not None:
            extra += journey_chrome_events(obs.journey.journeys,
                                           spec.servers)
        if obs.monitor is not None:
            extra += health_chrome_events(obs.monitor)
        obs.trace.close(meta=spec.meta(), extra_events=extra)
    run = ObservedRun(spec, obs, cluster, summary, journey=journey)
    if obs.recorder is not None:
        obs.recorder.meta = spec.meta()
        obs.recorder.recovered = recovered_from_cluster(cluster)
        run.history = obs.recorder.history()
        if obs.audit:
            # Here, not at the top: only an audited run loads the auditor.
            from repro.audit.engine import audit_history
            run.audit = audit_history(run.history)
    return run
