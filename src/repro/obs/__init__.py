"""Observability: trace export, kernel profiling, run reports, health.

This package turns the raw signals the simulation already produces
(trace emissions, :class:`repro.analysis.metrics.Metrics` operation
records, the :class:`repro.obs.journey.JourneyTracker`'s per-write
records) into artifacts a human or a tool can consume:

* :mod:`repro.obs.export` — :class:`ChromeTraceSink`, which streams a
  run's Chrome ``trace_event`` JSON (open in Perfetto /
  ``chrome://tracing``) while the run goes.
* :mod:`repro.obs.profile` — :class:`KernelProfile`, cheap counters for
  the simulation kernel itself (events processed, heap high-water mark,
  processes spawned, wall-clock per simulated second) plus per-event-kind
  and per-message-handler wall attribution and scheduling statistics,
  and the ``repro profile`` hotspot table that ranks them from a saved
  run report's ``profile`` section.
* :mod:`repro.obs.report` — the machine-readable run-report JSON with
  windowed throughput/latency series and per-node VP/DP lag.
* :mod:`repro.obs.run` — :class:`CellSpec` (the one description of a
  run and owner of its ``meta()`` / ``config_hash``) and
  :func:`observed_run`, the one build-run-observe recipe that
  ``repro run``, ``repro recover`` and every sweep cell are views over
  (``repro trace`` / ``journey`` / ``profile`` read what ``run``
  wrote), and :func:`section_observers`, the one place the report
  sections' observers are built.
* :mod:`repro.obs.fanout` — :class:`FanoutTracer` to feed one engine's
  emissions to several sinks (e.g. a ChromeTraceSink and a
  JourneyTracker).
* :mod:`repro.obs.journey` — :class:`JourneyTracker`, a sink that
  assembles one end-to-end :class:`UpdateJourney` per write for the
  critical-path waterfalls and the VP/DP lags of
  :mod:`repro.analysis.waterfall`.
* :mod:`repro.obs.monitor` — :class:`HealthMonitor`, a DES-clock-driven
  periodic sampler of cluster pressure (persist queues, causal buffers,
  inflight rounds, hot keys) with online invariant probes.
* :mod:`repro.obs.diff` — cross-run regression diffing of run reports
  and ``BENCH_*.json`` artifacts (the ``repro diff`` subcommand).
* :mod:`repro.obs.history` — :class:`HistoryRecorder`, the bounded
  client-boundary operation recorder behind the black-box contract
  auditor (:mod:`repro.audit`), and the ``repro.history/1`` artifact.
* :mod:`repro.obs.schemas` — the one registry of every artifact schema
  tag, with :func:`validate_artifact` used by all CLI load paths.
* :mod:`repro.obs.sweep` — the sweep observatory: the models x seeds
  matrix fanned across worker processes and merged deterministically
  into ``repro.sweep_report/1`` (byte-identical for any worker count).
"""

from repro.obs.diff import (
    DiffError,
    DiffReport,
    diff_documents,
    diff_json,
    diff_paths,
    format_markdown,
    load_artifact,
)
from repro.obs.export import ChromeTraceSink, journey_chrome_events
from repro.obs.fanout import FanoutTracer
from repro.obs.history import (
    HISTORY_SCHEMA,
    History,
    HistoryOpRecord,
    HistoryRecorder,
    load_history,
    recovered_from_cluster,
    write_history,
)
from repro.obs.journey import JourneyTracker, UpdateJourney
from repro.obs.monitor import (
    HealthMonitor,
    HealthSample,
    HealthViolation,
    health_chrome_events,
    health_json,
)
from repro.obs.profile import (
    KernelProfile,
    format_hotspots,
    format_kernel,
    hotspot_rows,
)
from repro.obs.report import (
    build_run_report,
    config_fingerprint,
    write_run_report,
)
from repro.obs.run import (
    CellSpec,
    ObservedRun,
    Observers,
    observed_run,
    section_observers,
)
from repro.obs.schemas import (
    SchemaError,
    parse_schema_tag,
    schema_tag,
    schema_tags,
    validate_artifact,
)
from repro.obs.sweep import (
    CellResult,
    SweepProgress,
    build_sweep_report,
    matrix_specs,
    run_cell,
    run_sweep,
    strip_wall_clock,
    write_sweep_report,
)

__all__ = [
    "ChromeTraceSink",
    "journey_chrome_events",
    "FanoutTracer",
    "HISTORY_SCHEMA",
    "History",
    "HistoryOpRecord",
    "HistoryRecorder",
    "load_history",
    "recovered_from_cluster",
    "write_history",
    "JourneyTracker",
    "UpdateJourney",
    "HealthMonitor",
    "HealthSample",
    "HealthViolation",
    "health_chrome_events",
    "health_json",
    "KernelProfile",
    "format_hotspots",
    "format_kernel",
    "hotspot_rows",
    "build_run_report",
    "config_fingerprint",
    "write_run_report",
    "ObservedRun",
    "Observers",
    "observed_run",
    "section_observers",
    "DiffError",
    "DiffReport",
    "diff_documents",
    "diff_json",
    "diff_paths",
    "format_markdown",
    "load_artifact",
    "SchemaError",
    "parse_schema_tag",
    "schema_tag",
    "schema_tags",
    "validate_artifact",
    "CellResult",
    "CellSpec",
    "SweepProgress",
    "build_sweep_report",
    "matrix_specs",
    "run_cell",
    "run_sweep",
    "strip_wall_clock",
    "write_sweep_report",
]
