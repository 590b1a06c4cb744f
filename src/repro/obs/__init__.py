"""Observability: how a run is watched, and the artifacts it leaves.

Each module owns one recipe, observer or artifact: ``run`` (``CellSpec``
and ``observed_run``, the one build-run-observe recipe that ``repro
run``, ``recover`` and every sweep cell are views over), ``sweep`` (the
models x seeds matrix across worker processes, merged into one
byte-identical report), ``export`` (the streamed Chrome trace),
``profile`` (kernel counters and the ``repro profile`` hotspot table),
``report`` (the run-report JSON), ``journey`` (one record per write, for
the waterfalls and VP/DP lags of :mod:`repro.analysis.waterfall`),
``fanout`` (one engine's emissions to several sinks), ``monitor`` (the
health sampler and its online probes), ``history`` (the client-history
recorder behind :mod:`repro.audit`), ``diff`` (cross-run regression
diffing) and ``schemas`` (the one registry of artifact schema tags).

The public names below are resolved on first use (PEP 562), so
importing one module of the package loads only that module.
"""

from repro import _lazy

#: Public name -> the module that defines it.
_EXPORTS = {
    "DiffError": "repro.obs.diff",
    "DiffReport": "repro.obs.diff",
    "diff_documents": "repro.obs.diff",
    "diff_json": "repro.obs.diff",
    "diff_paths": "repro.obs.diff",
    "format_markdown": "repro.obs.diff",
    "load_artifact": "repro.obs.diff",
    "ChromeTraceSink": "repro.obs.export",
    "journey_chrome_events": "repro.obs.export",
    "FanoutTracer": "repro.obs.fanout",
    "History": "repro.obs.history",
    "HistoryOpRecord": "repro.obs.history",
    "HistoryRecorder": "repro.obs.history",
    "load_history": "repro.obs.history",
    "recovered_from_cluster": "repro.obs.history",
    "write_history": "repro.obs.history",
    "JourneyTracker": "repro.obs.journey",
    "UpdateJourney": "repro.obs.journey",
    "HealthMonitor": "repro.obs.monitor",
    "HealthSample": "repro.obs.monitor",
    "HealthViolation": "repro.obs.monitor",
    "health_chrome_events": "repro.obs.monitor",
    "health_json": "repro.obs.monitor",
    "KernelProfile": "repro.obs.profile",
    "format_hotspots": "repro.obs.profile",
    "format_kernel": "repro.obs.profile",
    "hotspot_rows": "repro.obs.profile",
    "build_run_report": "repro.obs.report",
    "config_fingerprint": "repro.obs.report",
    "write_run_report": "repro.obs.report",
    "CellSpec": "repro.obs.run",
    "ObservedRun": "repro.obs.run",
    "Observers": "repro.obs.run",
    "observed_run": "repro.obs.run",
    "section_observers": "repro.obs.run",
    "HISTORY_SCHEMA": "repro.obs.schemas",
    "SchemaError": "repro.obs.schemas",
    "parse_schema_tag": "repro.obs.schemas",
    "schema_tag": "repro.obs.schemas",
    "schema_tags": "repro.obs.schemas",
    "validate_artifact": "repro.obs.schemas",
    "CellResult": "repro.obs.sweep",
    "SweepProgress": "repro.obs.sweep",
    "build_sweep_report": "repro.obs.sweep",
    "matrix_specs": "repro.obs.sweep",
    "run_cell": "repro.obs.sweep",
    "run_sweep": "repro.obs.sweep",
    "strip_wall_clock": "repro.obs.sweep",
    "write_sweep_report": "repro.obs.sweep",
}

__all__ = [*_EXPORTS]
__getattr__, __dir__ = _lazy(globals(), _EXPORTS)
