"""The machine-readable run report.

One JSON artifact per run, containing everything the paper's evaluation
plots need without re-running: the end-of-run :class:`Summary`, windowed
throughput / p50 / p99 latency series (whole cluster and per node),
windowed per-message-type traffic, per-node Visibility-Point and
Durability-Point lag series, and (optionally) the kernel profile.

Schema (see DESIGN.md "Run-report JSON" for field-level docs)::

    {
      "schema": "repro.run_report/6",
      "meta":     {model, consistency, persistency, servers, clients,
                   seed, workload, duration_ns, warmup_ns, window_ns,
                   config_hash},
      "summary":  {...Summary fields...},
      "windows":  [{start_ns, end_ns, ops, throughput_ops_per_s,
                    mean_ns, p50_ns, p99_ns}],
      "windows_by_node": {"0": [...], ...},
      "messages": {"by_type": {...}, "bytes_by_type": {...},
                   "windows_by_type": {"INV": [..counts..], ...}},
      "lag":      {"per_node": {"0": [{start_ns, vp_mean_ns, vp_p99_ns,
                                       dp_mean_ns, dp_p99_ns, ...}]},
                   "summary": {...LagSummary fields...}},
      "profile":  {...KernelProfile.snapshot()...},
      "trace":    {"records": n, "dropped": n, "categories": {...}},
      "journeys": {...repro.analysis.waterfall.waterfall_json(...)...},
      "health":   {...repro.obs.monitor.health_json(...)...},
      "faults":   {...repro.faults.faults_json(...)...},
      "audit":    {...repro.audit.audit_history(...)...}
    }

``/6`` added the optional ``audit`` section to ``/5`` (the embedded
``repro.audit_report/1`` document from the black-box contract auditor,
see docs/handbook.md "Auditing"); the loader reads those two versions.

NaN/inf values (empty windows, models that never persist) are emitted
as ``null`` so the document is strict JSON.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from typing import Any, Dict, Optional

from repro.analysis.metrics import Metrics, Summary
from repro.obs.schemas import RUN_REPORT_SCHEMA as SCHEMA

__all__ = ["SCHEMA", "config_fingerprint", "build_run_report",
           "write_run_report"]


def _clean(value: Any) -> Any:
    """Recursively make a value strict-JSON-safe (NaN/inf -> null)."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {str(k): _clean(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_clean(v) for v in value]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _clean(dataclasses.asdict(value))
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    return str(value)


def config_fingerprint(config: Dict[str, Any]) -> str:
    """A short, stable fingerprint of a resolved run configuration.

    blake2b (not the salted builtin ``hash()``) over the canonical JSON
    of the cleaned config dict, so the same configuration hashes the
    same across processes and Python versions.  ``repro diff`` refuses
    to compare artifacts whose fingerprints differ.  Seeds and run
    durations are echoed separately in the report meta and deliberately
    left *out* of the dict callers pass here: two runs of the same
    cluster/workload shape are comparable even across seeds.
    """
    payload = json.dumps(_clean(dict(config)), sort_keys=True,
                         separators=(",", ":"))
    return hashlib.blake2b(payload.encode("utf-8"),
                           digest_size=8).hexdigest()


def build_run_report(summary: Summary, metrics: Metrics,
                     window_ns: float,
                     meta: Optional[Dict[str, Any]] = None,
                     lag: Any = None,
                     profile: Any = None,
                     tracer: Any = None,
                     journeys: Any = None,
                     monitor: Any = None,
                     faults: Any = None,
                     audit: Any = None) -> Dict[str, Any]:
    """Assemble the report dict from a finished run's collectors.

    ``lag`` is the :class:`repro.obs.journey.JourneyTracker` whose
    records give the ``lag`` section (or None), ``profile`` a
    :class:`repro.obs.profile.KernelProfile`,
    ``tracer`` the run's :class:`repro.obs.export.ChromeTraceSink` (or
    a :class:`repro.sim.trace.Tracer`: both count their records by
    ``len``, ``dropped`` and ``categories()``), ``journeys`` a
    :class:`repro.analysis.waterfall.WaterfallReport`, ``monitor`` a
    :class:`repro.obs.monitor.HealthMonitor`, ``faults`` a
    :class:`repro.faults.FaultInjector`, ``audit`` a
    ``repro.audit_report/1`` document from
    :func:`repro.audit.audit_history`; all optional so callers include
    only what they measured.
    """
    report: Dict[str, Any] = {
        "schema": SCHEMA,
        "meta": dict(meta or {}, window_ns=window_ns),
        "summary": _clean(summary),
        "windows": _clean(metrics.op_series(window_ns)),
        "windows_by_node": _clean(metrics.op_series_by_node(window_ns)),
        "messages": _clean({
            "by_type": metrics.messages_by_type,
            "bytes_by_type": metrics.bytes_by_type,
            "windows_by_type": metrics.message_window_series(),
        }),
    }
    if lag is not None:
        from repro.analysis.waterfall import lag_summary, window_lags
        records = lag.journeys
        report["lag"] = _clean({
            "per_node": window_lags(records, window_ns),
            "summary": lag_summary(records, lag.num_nodes),
        })
    if profile is not None:
        report["profile"] = _clean(profile.snapshot())
    if tracer is not None:
        report["trace"] = _clean({
            "records": len(tracer),
            "dropped": tracer.dropped,
            "categories": tracer.categories(),
        })
    if journeys is not None:
        from repro.analysis.waterfall import waterfall_json
        report["journeys"] = _clean(waterfall_json(journeys))
    if monitor is not None:
        from repro.obs.monitor import health_json
        report["health"] = _clean(health_json(monitor))
    if faults is not None:
        from repro.faults.injector import faults_json
        report["faults"] = _clean(faults_json(faults))
    if audit is not None:
        report["audit"] = _clean(audit)
    return report


def write_run_report(path: str, report: Dict[str, Any]) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
