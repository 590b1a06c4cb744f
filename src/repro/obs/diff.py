"""Cross-run regression diffing for run reports and bench artifacts.

Three PRs of observability produce machine-readable artifacts
(``repro.run_report/*`` from the CLI, ``BENCH_*.json`` from the
benchmark suite) that, until now, nobody compared.  This module turns
two such artifacts into a decision:

* **compatibility check** — artifacts are only compared apples-to-apples
  (same schema family, and matching ``config_hash`` where present; a
  mismatch is an error unless forced);
* **per-metric deltas** — every shared numeric metric of the summary
  (run reports) or of each swept configuration (bench artifacts) is
  diffed with a relative noise threshold;
* **verdict** — metrics have directions (throughput up = good, latency
  up = bad, counters informational), so the diff ends in a
  ``regression`` / ``no-regression`` verdict naming the offending
  metrics.

Output is markdown (:func:`format_markdown`) for humans and
``repro.diff_report/1`` JSON (:func:`diff_json`) for machines.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.schemas import (DIFF_REPORT_SCHEMA as DIFF_SCHEMA,
                               WALL_CLOCK_DIRECTIONS, SchemaError,
                               schema_tags, validate_artifact)

__all__ = ["DiffError", "MetricDelta", "DiffReport", "load_artifact",
           "diff_documents", "diff_paths", "format_markdown", "diff_json"]

RUN_REPORT_SCHEMAS = schema_tags("repro.run_report")
BENCH_SCHEMAS = schema_tags("repro.bench")
SWEEP_SCHEMAS = schema_tags("repro.sweep_report")

#: Metric name -> direction.  "higher" means an increase is good (a
#: decrease beyond the threshold is a regression), "lower" the reverse;
#: anything not listed is informational: reported, never a verdict — as
#: is every wall-clock metric (``schemas.WALL_CLOCK_DIRECTIONS``), which
#: is shown with its direction but is machine-dependent.
METRIC_DIRECTIONS: Dict[str, str] = {
    "throughput_ops_per_s": "higher",
    "mean_read_ns": "lower",
    "mean_write_ns": "lower",
    "mean_access_ns": "lower",
    "p95_read_ns": "lower",
    "p95_write_ns": "lower",
    "p99_read_ns": "lower",
    "p99_write_ns": "lower",
    # Audit totals (the ``audit`` row of run_report/6): a new contract
    # violation in the candidate is a regression, not noise.
    "violations_total": "lower",
    "cells_failed": "lower",
    "target_failed_checks": "lower",
    # Sweep reports: a cell that errored in the candidate but ran clean
    # in the baseline is a regression in its own right.
    "cell_error": "lower",
    # Kernel cost of a protocol message (KernelProfile scheduling
    # section, kernel bench rows): deterministic counters, so a rise is
    # a code change — the ROADMAP item-1 ratio must not creep back.
    "events_per_message": "lower",
    "processes_per_message": "lower",
}

DEFAULT_THRESHOLD = 0.05
"""Relative change below which a delta is attributed to noise."""


class DiffError(Exception):
    """Unusable input (unreadable, bad schema, incompatible configs).

    The CLI maps this to exit code 2 with a one-line message.
    """


@dataclass(frozen=True)
class MetricDelta:
    """One metric compared across the two artifacts."""

    label: str
    """Which result row the metric belongs to ("summary" for run
    reports, the swept-configuration label for bench artifacts)."""
    metric: str
    baseline: Optional[float]
    candidate: Optional[float]
    delta_frac: Optional[float]
    """(candidate - baseline) / baseline, or None if undefined."""
    direction: str
    """"higher" | "lower" | "info"."""
    verdict: str
    """"ok" | "regression" | "improvement" | "info" | "info-better" |
    "info-worse" | "n/a".  The ``info-*`` verdicts are direction-
    annotated wall-clock observations (see
    :data:`~repro.obs.schemas.WALL_CLOCK_DIRECTIONS`);
    they never count toward the regression verdict."""


@dataclass
class DiffReport:
    """The outcome of comparing two artifacts."""

    baseline: str
    candidate: str
    schema_family: str
    config_hash: Tuple[Optional[str], Optional[str]]
    threshold: float
    entries: List[MetricDelta] = field(default_factory=list)
    forced: bool = False
    only_in_baseline: List[str] = field(default_factory=list)
    only_in_candidate: List[str] = field(default_factory=list)
    """``row/metric`` keys present in exactly one artifact (rows missing
    from the other side contribute all their metrics).  One-sided keys
    never affect the verdict, but a silent disappearance of a metric is
    itself a signal, so they are always surfaced."""

    @property
    def regressions(self) -> List[MetricDelta]:
        return [e for e in self.entries if e.verdict == "regression"]

    @property
    def improvements(self) -> List[MetricDelta]:
        return [e for e in self.entries if e.verdict == "improvement"]

    @property
    def wall_clock_notes(self) -> List[MetricDelta]:
        """Direction-annotated wall-clock rows (informational only)."""
        return [e for e in self.entries
                if e.verdict in ("info-better", "info-worse")]

    @property
    def verdict(self) -> str:
        return "regression" if self.regressions else "no-regression"


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------

#: The artifact kinds ``repro diff`` can compare.
_DIFFABLE = RUN_REPORT_SCHEMAS + BENCH_SCHEMAS + SWEEP_SCHEMAS

# The required top-level sections the readers below walk, per family,
# with the JSON type each must have.
_SECTION_TYPES = {
    "run_report": {"meta": dict, "summary": dict},
    "sweep_report": {"meta": dict, "cells": list},
    "bench": {"metrics": dict},
}


def load_artifact(path: str) -> Dict[str, Any]:
    """Load and schema-check one artifact; :class:`DiffError` on any
    unusable input."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise DiffError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DiffError(f"{path} is not valid JSON ({exc})") from exc
    try:
        validate_artifact(doc, path=path)
    except SchemaError as exc:
        raise DiffError(str(exc)) from exc
    schema = doc["schema"]
    if schema not in _DIFFABLE:
        raise DiffError(f"{path}: cannot diff a {schema} artifact "
                        f"(expected one of {', '.join(_DIFFABLE)})")
    for key, kind in _SECTION_TYPES[_schema_family(doc)].items():
        if not isinstance(doc[key], kind):
            raise DiffError(f"{path}: '{key}' is a "
                            f"{type(doc[key]).__name__}, not a JSON "
                            f"{'object' if kind is dict else 'array'}")
    return doc


def _schema_family(doc: Dict[str, Any]) -> str:
    if doc["schema"] in BENCH_SCHEMAS:
        return "bench"
    if doc["schema"] in SWEEP_SCHEMAS:
        return "sweep_report"
    return "run_report"


def _doc_config_hash(doc: Dict[str, Any]) -> Optional[str]:
    if _schema_family(doc) == "bench":
        value = doc.get("config_hash")
    else:
        value = doc.get("meta", {}).get("config_hash")
    return value if isinstance(value, str) else None


def _sweep_cell_label(cell: Dict[str, Any]) -> str:
    return (f"{cell.get('consistency', '?')}/{cell.get('persistency', '?')}"
            f"@seed{cell.get('seed', '?')}")


def _metric_rows(doc: Dict[str, Any]) -> Dict[str, Dict[str, float]]:
    """label -> {metric: value} for any diffable artifact kind."""
    if _schema_family(doc) == "bench":
        rows = {}
        for label, metrics in doc.get("metrics", {}).items():
            if isinstance(metrics, dict):
                rows[label] = {k: v for k, v in metrics.items()
                               if isinstance(v, (int, float))}
        return rows
    if _schema_family(doc) == "sweep_report":
        # One row per matrix cell.  ``cell_error`` (0 ok / 1 errored)
        # diffs with direction "lower", so a cell that crashed only in
        # the candidate is a regression even with no shared metrics;
        # cells present on one side only surface via only_in_*.
        rows = {}
        for cell in doc.get("cells", []):
            if not isinstance(cell, dict):
                continue
            metrics = {"cell_error":
                       0 if cell.get("status") == "ok" else 1}
            summary = cell.get("summary")
            if isinstance(summary, dict):
                metrics.update({k: v for k, v in summary.items()
                                if isinstance(v, (int, float))})
            rows[_sweep_cell_label(cell)] = metrics
        return rows
    summary = doc.get("summary", {})
    rows = {"summary": {k: v for k, v in summary.items()
                        if isinstance(v, (int, float))}}
    # The profile section (when the run was profiled): deterministic
    # counters diff as plain info, wall-clock metrics as direction-
    # annotated info rows (see WALL_CLOCK_DIRECTIONS).  Nested
    # attribution/scheduling dicts are not flattened into rows, except
    # for the two gated per-message ratios.
    profile = doc.get("profile")
    if isinstance(profile, dict):
        rows["profile"] = {k: v for k, v in profile.items()
                           if isinstance(v, (int, float))}
        scheduling = profile.get("scheduling")
        if isinstance(scheduling, dict):
            rows["profile"].update(
                {k: scheduling[k] for k in ("events_per_message",
                                            "processes_per_message")
                 if isinstance(scheduling.get(k), (int, float))})
    # The audit section (run_report/6): violation totals gate the
    # verdict (a new violation is a regression), checker wall time is
    # a direction-annotated info row.
    audit = doc.get("audit")
    if isinstance(audit, dict) and isinstance(audit.get("totals"), dict):
        rows["audit"] = {k: v for k, v in audit["totals"].items()
                         if isinstance(v, (int, float))}
    return rows


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------

def _compare_one(label: str, metric: str, base: Optional[float],
                 cand: Optional[float], threshold: float) -> MetricDelta:
    wall_clock = metric in WALL_CLOCK_DIRECTIONS
    direction = (WALL_CLOCK_DIRECTIONS[metric] if wall_clock
                 else METRIC_DIRECTIONS.get(metric, "info"))
    if (base is None or cand is None
            or (isinstance(base, float) and math.isnan(base))
            or (isinstance(cand, float) and math.isnan(cand))):
        return MetricDelta(label, metric, base, cand, None, direction, "n/a")
    delta = (cand - base) / base if base else (0.0 if cand == base else None)
    if direction == "info":
        return MetricDelta(label, metric, base, cand, delta, direction,
                           "info")
    if delta is None:
        # base == 0, cand != 0: the relative delta is undefined but the
        # change is real — judge it by direction (e.g. a violation
        # where the baseline had none is a regression, not "n/a").
        worsened = cand > base if direction == "lower" else cand < base
        if worsened:
            verdict = "info-worse" if wall_clock else "regression"
        else:
            verdict = "info-better" if wall_clock else "improvement"
        return MetricDelta(label, metric, base, cand, None, direction,
                           verdict)
    worse = -delta if direction == "higher" else delta
    if worse > threshold:
        verdict = "info-worse" if wall_clock else "regression"
    elif -worse > threshold:
        verdict = "info-better" if wall_clock else "improvement"
    else:
        verdict = "info" if wall_clock else "ok"
    return MetricDelta(label, metric, base, cand, delta, direction, verdict)


def diff_documents(base_doc: Dict[str, Any], cand_doc: Dict[str, Any],
                   baseline: str = "baseline", candidate: str = "candidate",
                   threshold: float = DEFAULT_THRESHOLD,
                   force: bool = False) -> DiffReport:
    """Compare two loaded artifacts; :class:`DiffError` if they are not
    comparable (different kinds, or conflicting config hashes) unless
    ``force`` is set."""
    family_a, family_b = _schema_family(base_doc), _schema_family(cand_doc)
    if family_a != family_b:
        raise DiffError(f"cannot diff a {family_a} artifact against a "
                        f"{family_b} artifact")
    hash_a, hash_b = _doc_config_hash(base_doc), _doc_config_hash(cand_doc)
    if (hash_a is not None and hash_b is not None and hash_a != hash_b
            and not force):
        raise DiffError(
            f"config mismatch: {baseline} was produced by config "
            f"{hash_a} but {candidate} by {hash_b} — an apples-to-"
            f"oranges comparison (pass --force to diff anyway)")
    report = DiffReport(baseline=baseline, candidate=candidate,
                        schema_family=family_a,
                        config_hash=(hash_a, hash_b),
                        threshold=threshold, forced=force)
    rows_a, rows_b = _metric_rows(base_doc), _metric_rows(cand_doc)
    shared_labels = [label for label in rows_a if label in rows_b]
    if not shared_labels:
        raise DiffError("the artifacts share no result rows to compare")
    for label in sorted(shared_labels):
        base_metrics, cand_metrics = rows_a[label], rows_b[label]
        for metric in sorted(set(base_metrics) & set(cand_metrics)):
            report.entries.append(_compare_one(
                label, metric, base_metrics.get(metric),
                cand_metrics.get(metric), threshold))
        for metric in sorted(set(base_metrics) - set(cand_metrics)):
            report.only_in_baseline.append(f"{label}/{metric}")
        for metric in sorted(set(cand_metrics) - set(base_metrics)):
            report.only_in_candidate.append(f"{label}/{metric}")
    if not report.entries:
        raise DiffError("the artifacts share no metrics to compare")
    # Rows missing entirely on one side are listed once by label.
    report.only_in_baseline.extend(sorted(set(rows_a) - set(rows_b)))
    report.only_in_candidate.extend(sorted(set(rows_b) - set(rows_a)))
    return report


def diff_paths(baseline: str, candidate: str,
               threshold: float = DEFAULT_THRESHOLD,
               force: bool = False) -> DiffReport:
    """Load two artifact files and compare them."""
    return diff_documents(load_artifact(baseline), load_artifact(candidate),
                          baseline=baseline, candidate=candidate,
                          threshold=threshold, force=force)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if isinstance(value, float) and math.isnan(value):
        return "nan"
    if abs(value) >= 1e6:
        return f"{value:,.0f}"
    if isinstance(value, float) and value != int(value):
        return f"{value:,.1f}"
    return f"{value:,.0f}"


def _fmt_delta(delta: Optional[float]) -> str:
    return "-" if delta is None else f"{delta:+.1%}"


def format_markdown(report: DiffReport, show_ok: bool = True) -> str:
    """A human-readable markdown diff (verdict first, then the table)."""
    lines = [
        f"# repro diff — {report.verdict}",
        "",
        f"* baseline:  `{report.baseline}` (config {report.config_hash[0] or 'unhashed'})",
        f"* candidate: `{report.candidate}` (config {report.config_hash[1] or 'unhashed'})",
        f"* noise threshold: {report.threshold:.0%}"
        + ("  (forced past a config mismatch)" if report.forced
           and report.config_hash[0] != report.config_hash[1] else ""),
        "",
    ]
    if report.regressions:
        lines.append("Regressions:")
        for entry in report.regressions:
            lines.append(f"* **{entry.label} / {entry.metric}**: "
                         f"{_fmt(entry.baseline)} -> {_fmt(entry.candidate)} "
                         f"({_fmt_delta(entry.delta_frac)})")
        lines.append("")
    if report.improvements:
        lines.append("Improvements:")
        for entry in report.improvements:
            lines.append(f"* {entry.label} / {entry.metric}: "
                         f"{_fmt(entry.baseline)} -> {_fmt(entry.candidate)} "
                         f"({_fmt_delta(entry.delta_frac)})")
        lines.append("")
    if report.wall_clock_notes:
        lines.append("Wall-clock (informational, excluded from verdict):")
        for entry in report.wall_clock_notes:
            arrow = "faster" if entry.verdict == "info-better" else "slower"
            lines.append(f"* {entry.label} / {entry.metric}: "
                         f"{_fmt(entry.baseline)} -> {_fmt(entry.candidate)} "
                         f"({_fmt_delta(entry.delta_frac)}, {arrow})")
        lines.append("")
    if report.only_in_baseline:
        lines.append("Only in baseline (not compared):")
        lines.extend(f"* `{key}`" for key in report.only_in_baseline)
        lines.append("")
    if report.only_in_candidate:
        lines.append("Only in candidate (not compared):")
        lines.extend(f"* `{key}`" for key in report.only_in_candidate)
        lines.append("")
    entries = (report.entries if show_ok
               else [e for e in report.entries
                     if e.verdict in ("regression", "improvement")])
    if entries:
        lines.append("| row | metric | baseline | candidate | delta | verdict |")
        lines.append("|---|---|---:|---:|---:|---|")
        for entry in entries:
            lines.append(
                f"| {entry.label} | {entry.metric} | {_fmt(entry.baseline)} "
                f"| {_fmt(entry.candidate)} | {_fmt_delta(entry.delta_frac)} "
                f"| {entry.verdict} |")
    return "\n".join(lines)


def diff_json(report: DiffReport) -> Dict[str, Any]:
    """The machine-readable ``repro.diff_report/1`` document."""
    def clean(value: Optional[float]) -> Optional[float]:
        if value is None:
            return None
        return value if math.isfinite(value) else None

    return {
        "schema": DIFF_SCHEMA,
        "baseline": report.baseline,
        "candidate": report.candidate,
        "kind": report.schema_family,
        "config_hash": {"baseline": report.config_hash[0],
                        "candidate": report.config_hash[1]},
        "threshold": report.threshold,
        "forced": report.forced,
        "verdict": report.verdict,
        "regressions": [f"{e.label}/{e.metric}" for e in report.regressions],
        "improvements": [f"{e.label}/{e.metric}"
                         for e in report.improvements],
        "wall_clock_notes": [f"{e.label}/{e.metric}"
                             for e in report.wall_clock_notes],
        "only_in_baseline": list(report.only_in_baseline),
        "only_in_candidate": list(report.only_in_candidate),
        "metrics": [
            {"row": e.label, "metric": e.metric,
             "baseline": clean(e.baseline), "candidate": clean(e.candidate),
             "delta_frac": clean(e.delta_frac), "direction": e.direction,
             "verdict": e.verdict}
            for e in report.entries
        ],
    }
