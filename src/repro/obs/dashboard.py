"""The sweep dashboard: one self-contained static HTML page.

:func:`build_dashboard` renders a ``repro.sweep_report/1`` document
(plus, optionally, a baseline sweep to diff against and a directory of
``BENCH_*.json`` artifacts for trend context) into a single HTML string
with inline CSS and SVG — no external scripts, stylesheets, fonts, or
images, so the file can be archived next to the artifact it renders,
attached to CI runs, and opened years later from disk.

Sections (each with a ``<details>`` table view, so every number is
readable without color or geometry):

* **matrix heatmaps** — the 5x5 consistency x persistency grid for
  throughput and mean read/write latency, seed-averaged, on a single-
  hue sequential ramp; errored cells are marked with an icon + label
  (never color alone).  Every cell carries ``data-metric`` /
  ``data-cell`` / ``data-value`` attributes mirroring the merged
  report, which is how the tests assert the page matches the artifact.
* **journey waterfalls** — per-model VP/DP critical-path bars stacked
  from the five journey buckets (categorical palette, fixed slot
  order, 2px surface gaps between segments).
* **kernel attribution** — event-kind and message-type counts
  aggregated across profiled cells.
* **baseline diff** — per-cell deltas from :func:`repro.obs.diff.
  diff_documents`, colored by verdict with icon + label.
* **bench trends** — sparklines over ``benchmarks/results/
  BENCH_*.json``; files sharing a bench name chart together only when
  their ``config_fingerprint`` matches, mismatches are listed, not
  silently mixed.

Palette, mark geometry, and accessibility rules follow the dataviz
conventions: single-hue sequential ramp for magnitude, fixed-order
categorical slots for the bucket identity, status colors reserved for
ok/error with icon + label, text always in ink tokens, one axis per
chart, dark mode via ``prefers-color-scheme`` on CSS custom
properties.
"""

from __future__ import annotations

import glob
import html
import json
import os
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.model import Consistency, Persistency

__all__ = ["build_dashboard", "load_bench_dir", "write_dashboard"]

# ---------------------------------------------------------------------------
# palette (validated reference instance — see the dataviz skill notes)
# ---------------------------------------------------------------------------

#: Single-hue sequential ramp, light -> dark (magnitude encoding).
SEQUENTIAL_RAMP = (
    "#cde2fb", "#b7d3f6", "#9ec5f4", "#86b6ef", "#6da7ec", "#5598e7",
    "#3987e5", "#2a78d6", "#256abf", "#1c5cab", "#184f95", "#104281",
    "#0d366b",
)

#: First ramp index dark enough to need light text on top.
_LIGHT_TEXT_FROM = 7

#: Journey buckets in fixed categorical slot order (identity encoding;
#: never cycled, never re-assigned when a bucket is empty).
BUCKETS = ("network", "coord_wait", "nvm_queue", "device", "compute")

#: The heatmapped summary metrics: (metric, heading, unit).
HEATMAP_METRICS = (
    ("throughput_ops_per_s", "Throughput", "ops/s"),
    ("mean_write_ns", "Mean write latency", "ns"),
    ("mean_read_ns", "Mean read latency", "ns"),
)


def _esc(value: Any) -> str:
    return html.escape(str(value), quote=True)


def _fmt(value: Optional[float]) -> str:
    """Compact human number: 113.0M, 1.36k, 0.257, or an em dash."""
    if value is None:
        return "—"
    if isinstance(value, float) and value != value:  # NaN
        return "—"
    magnitude = abs(value)
    for factor, suffix in ((1e9, "G"), (1e6, "M"), (1e3, "k")):
        if magnitude >= factor:
            return f"{value / factor:.4g}{suffix}"
    if magnitude >= 1 or value == 0:
        return f"{value:.4g}"
    return f"{value:.3g}"


# ---------------------------------------------------------------------------
# report digestion
# ---------------------------------------------------------------------------

def _canon_order(values: Sequence[str], axis) -> List[str]:
    canon = [member.value for member in axis]
    present = set(values)
    ordered = [v for v in canon if v in present]
    return ordered + sorted(present - set(canon))


def _grid_axes(doc: Dict[str, Any]) -> Tuple[List[str], List[str]]:
    cells = doc.get("cells", [])
    rows = _canon_order([c["consistency"] for c in cells], Consistency)
    cols = _canon_order([c["persistency"] for c in cells], Persistency)
    return rows, cols


def _cell_groups(doc) -> Dict[Tuple[str, str], List[Dict[str, Any]]]:
    """(consistency, persistency) -> that model's cells, one per seed."""
    groups: Dict[Tuple[str, str], List[Dict[str, Any]]] = {}
    for cell in doc.get("cells", []):
        groups.setdefault((cell["consistency"], cell["persistency"]),
                          []).append(cell)
    return groups


def _seed_mean(cells: List[Dict[str, Any]], metric: str,
               ) -> Tuple[Optional[float], List[Tuple[int, float]]]:
    """Seed-averaged summary metric plus the per-seed samples."""
    samples = []
    for cell in cells:
        value = (cell.get("summary") or {}).get(metric)
        if isinstance(value, (int, float)):
            samples.append((cell.get("seed"), float(value)))
    if not samples:
        return None, []
    return sum(v for _, v in samples) / len(samples), samples


def _mean_buckets(cells: List[Dict[str, Any]], side: str,
                  ) -> Optional[Dict[str, float]]:
    """Seed-averaged journey ``buckets_ns`` for ``side`` ("vp"/"dp")."""
    rows = []
    for cell in cells:
        journeys = cell.get("journeys")
        if isinstance(journeys, dict):
            buckets = (journeys.get(side) or {}).get("buckets_ns")
            if isinstance(buckets, dict):
                rows.append(buckets)
    if not rows:
        return None
    return {b: sum(float(r.get(b, 0.0) or 0.0) for r in rows) / len(rows)
            for b in BUCKETS}


# ---------------------------------------------------------------------------
# section renderers
# ---------------------------------------------------------------------------

def _heat_step(value: float, lo: float, hi: float) -> int:
    if hi <= lo:
        return len(SEQUENTIAL_RAMP) // 2
    frac = (value - lo) / (hi - lo)
    return min(len(SEQUENTIAL_RAMP) - 1,
               max(0, int(frac * (len(SEQUENTIAL_RAMP) - 1) + 0.5)))


def _heatmap(doc: Dict[str, Any], metric: str, heading: str,
             unit: str) -> str:
    rows, cols = _grid_axes(doc)
    groups = _cell_groups(doc)
    values: Dict[Tuple[str, str], Optional[float]] = {}
    samples: Dict[Tuple[str, str], List[Tuple[int, float]]] = {}
    errors: Dict[Tuple[str, str], int] = {}
    for key, cells in groups.items():
        values[key], samples[key] = _seed_mean(cells, metric)
        errors[key] = sum(1 for c in cells if c.get("status") != "ok")
    present = [v for v in values.values() if v is not None]
    lo, hi = (min(present), max(present)) if present else (0.0, 0.0)

    body: List[str] = ['<table class="heat" role="grid">']
    body.append("<tr><th></th>" + "".join(
        f"<th scope=\"col\">{_esc(c)}</th>" for c in cols) + "</tr>")
    table_rows: List[str] = []
    for cons in rows:
        tds = [f"<th scope=\"row\">{_esc(cons)}</th>"]
        for pers in cols:
            key = (cons, pers)
            value = values.get(key)
            errs = errors.get(key, 0)
            tip = f"{cons}/{pers} {metric}"
            if samples.get(key):
                tip += " — " + ", ".join(
                    f"seed {s}: {_fmt(v)}" for s, v in samples[key])
            if errs:
                tip += f" — {errs} errored seed(s)"
            if key not in groups:
                tds.append('<td class="empty">·</td>')
            elif value is None:
                tds.append(
                    f'<td class="err" data-metric="{_esc(metric)}" '
                    f'data-cell="{_esc(cons)}/{_esc(pers)}" '
                    f'data-tip="{_esc(tip)}">✗ error</td>')
            else:
                step = _heat_step(value, lo, hi)
                ink = ("var(--heat-ink-dark)"
                       if step >= _LIGHT_TEXT_FROM else
                       "var(--heat-ink-light)")
                badge = (f' <span class="errmark">✗{errs}</span>'
                         if errs else "")
                tds.append(
                    f'<td style="background:{SEQUENTIAL_RAMP[step]};'
                    f'color:{ink}" data-metric="{_esc(metric)}" '
                    f'data-cell="{_esc(cons)}/{_esc(pers)}" '
                    f'data-value="{value!r}" data-tip="{_esc(tip)}">'
                    f'{_fmt(value)}{badge}</td>')
            table_rows.append((cons, pers, value, errs))
        body.append("<tr>" + "".join(tds) + "</tr>")
    body.append("</table>")

    detail = ['<details><summary>Table view</summary><table class="data">',
              "<tr><th>consistency</th><th>persistency</th>"
              f"<th>{_esc(metric)} ({_esc(unit)})</th><th>errors</th></tr>"]
    for cons, pers, value, errs in table_rows:
        detail.append(f"<tr><td>{_esc(cons)}</td><td>{_esc(pers)}</td>"
                      f"<td class=\"num\">"
                      f"{'—' if value is None else repr(value)}</td>"
                      f"<td class=\"num\">{errs}</td></tr>")
    detail.append("</table></details>")
    return (f'<div class="card"><h3>{_esc(heading)} '
            f'<span class="unit">{_esc(unit)}, seed-averaged</span></h3>'
            + "".join(body) + "".join(detail) + "</div>")


def _waterfalls(doc: Dict[str, Any]) -> str:
    rows, cols = _grid_axes(doc)
    groups = _cell_groups(doc)
    bars: List[Tuple[str, str, Dict[str, float]]] = []
    for cons in rows:
        for pers in cols:
            cells = groups.get((cons, pers))
            if not cells:
                continue
            for side in ("vp", "dp"):
                buckets = _mean_buckets(cells, side)
                if buckets is not None:
                    bars.append((f"{cons}/{pers}", side.upper(), buckets))
    if not bars:
        return ""
    peak = max(sum(b.values()) for _, _, b in bars) or 1.0
    width, bar_h, gap = 560, 16, 2
    svg_rows: List[str] = []
    for label, side, buckets in bars:
        x = 0.0
        segs = []
        total = sum(buckets.values())
        for i, bucket in enumerate(BUCKETS):
            ns = buckets.get(bucket, 0.0)
            w = ns / peak * width
            if w <= 0:
                continue
            segs.append(
                f'<rect x="{x:.1f}" width="{max(w - gap, 0.8):.1f}" '
                f'height="{bar_h}" rx="2" class="b{i + 1}">'
                f'<title>{_esc(label)} {side} {bucket}: {_fmt(ns)} ns '
                f'({ns / total * 100 if total else 0:.0f}%)</title></rect>')
            x += w
        svg_rows.append(
            f'<div class="wrow"><span class="wlabel">{_esc(label)} '
            f'<b>{side}</b></span>'
            f'<svg width="{width}" height="{bar_h}" role="img" '
            f'aria-label="{_esc(label)} {side} {_fmt(total)} ns">'
            + "".join(segs) + "</svg>"
            f'<span class="wtotal">{_fmt(total)} ns</span></div>')
    legend = "".join(
        f'<span class="key"><span class="swatch b{i + 1}"></span>'
        f'{_esc(b)}</span>' for i, b in enumerate(BUCKETS))
    detail = ['<details><summary>Table view</summary><table class="data">',
              "<tr><th>model</th><th>path</th>"
              + "".join(f"<th>{_esc(b)} ns</th>" for b in BUCKETS)
              + "</tr>"]
    for label, side, buckets in bars:
        detail.append(f"<tr><td>{_esc(label)}</td><td>{side}</td>" + "".join(
            f"<td class=\"num\">{_fmt(buckets.get(b, 0.0))}</td>"
            for b in BUCKETS) + "</tr>")
    detail.append("</table></details>")
    return ('<div class="card"><h3>Journey waterfalls '
            '<span class="unit">seed-averaged critical-path ns; VP = '
            'visibility point, DP = durability point</span></h3>'
            f'<div class="legend">{legend}</div>'
            + "".join(svg_rows) + "".join(detail) + "</div>")


def _attribution(doc: Dict[str, Any]) -> str:
    by_kind: Dict[str, int] = {}
    by_msg: Dict[str, int] = {}
    profiled = 0
    for cell in doc.get("cells", []):
        profile = cell.get("profile")
        if not isinstance(profile, dict):
            continue
        profiled += 1
        attribution = profile.get("attribution") or {}
        for kind, row in (attribution.get("by_event_kind") or {}).items():
            by_kind[kind] = by_kind.get(kind, 0) + int(row.get("count", 0))
        for msg, row in (attribution.get("by_msg_type") or {}).items():
            by_msg[msg] = by_msg.get(msg, 0) + int(row.get("count", 0))
    if not profiled:
        return ""

    def bar_list(title: str, counts: Dict[str, int]) -> str:
        total = sum(counts.values()) or 1
        peak = max(counts.values()) if counts else 1
        items = []
        for name, count in sorted(counts.items(),
                                  key=lambda kv: (-kv[1], kv[0])):
            w = count / peak * 100
            items.append(
                f'<div class="arow"><span class="alabel">{_esc(name)}'
                f'</span><svg width="260" height="12" role="img" '
                f'aria-label="{_esc(name)} {count}">'
                f'<rect width="{w * 2.6:.1f}" height="12" rx="2" '
                f'class="b1"/></svg>'
                f'<span class="num">{count:,} '
                f'({count / total * 100:.0f}%)</span></div>')
        return f"<h4>{_esc(title)}</h4>" + "".join(items)

    return ('<div class="card"><h3>Kernel attribution '
            f'<span class="unit">event counts summed over {profiled} '
            'profiled cell(s); deterministic counters only</span></h3>'
            + bar_list("by event kind", by_kind)
            + bar_list("by message type", by_msg) + "</div>")


_VERDICT_BADGES = {
    "regression": ("badge crit", "✗ regression"),
    "improvement": ("badge good", "✓ improvement"),
    "info-better": ("badge info", "· faster here"),
    "info-worse": ("badge info", "· slower here"),
}


def _diff_section(doc: Dict[str, Any],
                  baseline_doc: Dict[str, Any]) -> str:
    from repro.obs.diff import DiffError, diff_documents
    try:
        report = diff_documents(baseline_doc, doc, baseline="baseline",
                                candidate="this sweep")
    except DiffError as exc:
        return ('<div class="card"><h3>Baseline diff</h3>'
                f'<p class="badge crit">✗ not comparable</p>'
                f'<p class="unit">{_esc(exc)}</p></div>')
    if report.verdict == "regression":
        banner = (f'<p class="badge crit">✗ regression — '
                  f'{len(report.regressions)} metric(s)</p>')
    else:
        banner = '<p class="badge good">✓ no regression</p>'
    shown = [e for e in report.entries if e.verdict in _VERDICT_BADGES]
    rows = []
    for entry in shown:
        cls, label = _VERDICT_BADGES[entry.verdict]
        delta = ("—" if entry.delta_frac is None
                 else f"{entry.delta_frac * 100:+.1f}%")
        rows.append(
            f'<tr><td>{_esc(entry.label)}</td><td>{_esc(entry.metric)}'
            f'</td><td class="num">{_fmt(entry.baseline)}</td>'
            f'<td class="num">{_fmt(entry.candidate)}</td>'
            f'<td class="num">{delta}</td>'
            f'<td><span class="{cls}">{label}</span></td></tr>')
    table = ""
    if rows:
        table = ('<table class="data"><tr><th>cell</th><th>metric</th>'
                 '<th>baseline</th><th>this sweep</th><th>Δ</th>'
                 '<th>verdict</th></tr>' + "".join(rows) + "</table>")
    else:
        table = ('<p class="unit">All shared metrics within the '
                 f'{report.threshold * 100:.0f}% noise threshold.</p>')
    one_sided = ""
    if report.only_in_baseline or report.only_in_candidate:
        items = ([f"<li>only in baseline: {_esc(k)}</li>"
                  for k in report.only_in_baseline]
                 + [f"<li>only in this sweep: {_esc(k)}</li>"
                    for k in report.only_in_candidate])
        one_sided = ("<details><summary>One-sided cells/metrics "
                     f"({len(items)})</summary><ul>" + "".join(items)
                     + "</ul></details>")
    return ('<div class="card"><h3>Baseline diff '
            f'<span class="unit">threshold {report.threshold * 100:.0f}%; '
            'wall-clock rows are informational</span></h3>'
            + banner + table + one_sided + "</div>")


def _sparkline(series: Sequence[float], width: int = 180,
               height: int = 36) -> str:
    if len(series) < 2:
        return ""
    lo, hi = min(series), max(series)
    span = (hi - lo) or 1.0
    step = width / (len(series) - 1)
    points = " ".join(
        f"{i * step:.1f},{height - 3 - (v - lo) / span * (height - 6):.1f}"
        for i, v in enumerate(series))
    return (f'<svg width="{width}" height="{height}" role="img" '
            f'aria-label="trend {_fmt(series[0])} to {_fmt(series[-1])}">'
            f'<polyline points="{points}" fill="none" class="spark"/>'
            "</svg>")


def _bench_trends(bench_docs: Sequence[Tuple[str, Dict[str, Any]]]) -> str:
    if not bench_docs:
        return ""
    by_name: Dict[str, List[Tuple[str, Dict[str, Any]]]] = {}
    for fname, doc in bench_docs:
        by_name.setdefault(str(doc.get("bench", fname)), []).append(
            (fname, doc))
    cards: List[str] = []
    for bench in sorted(by_name):
        entries = sorted(by_name[bench])
        # Only artifacts sharing the newest file's config fingerprint
        # chart together; a changed config is a different experiment.
        ref_hash = entries[-1][1].get("config_hash")
        matched = [(f, d) for f, d in entries
                   if d.get("config_hash") == ref_hash]
        excluded = [f for f, d in entries
                    if d.get("config_hash") != ref_hash]
        latest = matched[-1][1]
        metrics = latest.get("metrics", {})
        numeric_keys: List[str] = []
        for row in metrics.values():
            if isinstance(row, dict):
                for key in ("throughput_ops_per_s", "mean_write_ns"):
                    if isinstance(row.get(key), (int, float)) \
                            and key not in numeric_keys:
                        numeric_keys.append(key)
        lines = []
        for key in numeric_keys:
            if len(matched) > 1:
                # True trend: this metric's mean across each archived
                # artifact, oldest file first.
                series = []
                for _, d in matched:
                    vals = [row[key] for row in d.get("metrics", {}).values()
                            if isinstance(row, dict)
                            and isinstance(row.get(key), (int, float))]
                    if vals:
                        series.append(sum(vals) / len(vals))
                label = f"{key} across {len(matched)} archives"
            else:
                series = [row[key] for row in metrics.values()
                          if isinstance(row, dict)
                          and isinstance(row.get(key), (int, float))]
                label = f"{key} across {len(series)} rows"
            spark = _sparkline(series)
            if spark:
                lines.append(
                    f'<div class="srow"><span class="alabel">'
                    f'{_esc(label)}</span>{spark}'
                    f'<span class="num">{_fmt(series[-1])}</span></div>')
        note = (f'<p class="unit">fingerprint {_esc(ref_hash or "n/a")}'
                + (f"; excluded (fingerprint mismatch): "
                   f"{_esc(', '.join(excluded))}" if excluded else "")
                + "</p>")
        if lines:
            cards.append(f'<div class="benchcard"><h4>{_esc(bench)}</h4>'
                         + "".join(lines) + note + "</div>")
    if not cards:
        return ""
    return ('<div class="card"><h3>Bench trends '
            '<span class="unit">from BENCH_*.json archives</span></h3>'
            '<div class="benchgrid">' + "".join(cards) + "</div></div>")


# ---------------------------------------------------------------------------
# page assembly
# ---------------------------------------------------------------------------

_CSS = """
:root {
  --surface: #fcfcfb; --ink: #0b0b0b; --ink2: #52514e; --muted: #898781;
  --grid: #e1e0d9; --good: #0ca30c; --crit: #d03b3b;
  --b1: #2a78d6; --b2: #eb6834; --b3: #1baf7a; --b4: #eda100;
  --b5: #e87ba4;
  --heat-ink-light: #0b0b0b; --heat-ink-dark: #ffffff;
}
@media (prefers-color-scheme: dark) {
  :root {
    --surface: #1a1a19; --ink: #ffffff; --ink2: #c3c2b7;
    --grid: #2c2c2a;
    --b1: #3987e5; --b2: #d95926; --b3: #199e70; --b4: #c98500;
    --b5: #d55181;
  }
}
body { background: var(--surface); color: var(--ink); margin: 24px;
  font: 14px/1.45 system-ui, sans-serif; }
h1 { font-size: 20px; margin: 0 0 4px; }
h3 { font-size: 15px; margin: 0 0 10px; }
h4 { font-size: 13px; margin: 12px 0 6px; color: var(--ink2); }
.unit { color: var(--muted); font-weight: normal; font-size: 12px; }
.chips { color: var(--ink2); font-size: 12px; margin-bottom: 18px; }
.chips b { color: var(--ink); }
.card { border: 1px solid var(--grid); border-radius: 8px;
  padding: 14px 16px; margin-bottom: 18px; }
.grid2 { display: flex; flex-wrap: wrap; gap: 18px; }
.grid2 > .card { flex: 1 1 360px; margin-bottom: 0; }
table.heat { border-collapse: separate; border-spacing: 2px;
  font-variant-numeric: tabular-nums; }
table.heat th { font-weight: normal; color: var(--ink2);
  font-size: 12px; padding: 2px 6px; text-align: right; }
table.heat td { padding: 6px 8px; border-radius: 4px; text-align: right;
  min-width: 64px; }
table.heat td.err { background: none;
  border: 1.5px solid var(--crit); color: var(--crit); }
table.heat td.empty { color: var(--muted); }
.errmark { color: var(--heat-ink-dark); font-size: 11px; }
table.data { border-collapse: collapse; margin-top: 8px;
  font-variant-numeric: tabular-nums; font-size: 12.5px; }
table.data th, table.data td { border-bottom: 1px solid var(--grid);
  padding: 3px 10px 3px 0; text-align: left; }
table.data td.num, .num { text-align: right;
  font-variant-numeric: tabular-nums; color: var(--ink2); }
details { margin-top: 8px; }
summary { color: var(--muted); font-size: 12px; cursor: pointer; }
.legend { margin-bottom: 8px; font-size: 12px; color: var(--ink2); }
.key { margin-right: 14px; }
.swatch { display: inline-block; width: 10px; height: 10px;
  border-radius: 2px; margin-right: 4px; }
.b1 { fill: var(--b1); background: var(--b1); }
.b2 { fill: var(--b2); background: var(--b2); }
.b3 { fill: var(--b3); background: var(--b3); }
.b4 { fill: var(--b4); background: var(--b4); }
.b5 { fill: var(--b5); background: var(--b5); }
.wrow, .arow, .srow { display: flex; align-items: center; gap: 10px;
  margin: 3px 0; }
.wlabel, .alabel { width: 220px; text-align: right; font-size: 12px;
  color: var(--ink2); flex: none; }
.wtotal { font-size: 12px; color: var(--ink2);
  font-variant-numeric: tabular-nums; }
.badge { display: inline-block; border-radius: 10px; padding: 2px 10px;
  font-size: 12px; border: 1.5px solid var(--grid);
  color: var(--ink2); }
.badge.good { border-color: var(--good); color: var(--good); }
.badge.crit { border-color: var(--crit); color: var(--crit); }
.spark { stroke: var(--b1); stroke-width: 2; }
.benchgrid { display: flex; flex-wrap: wrap; gap: 18px; }
.benchcard { flex: 1 1 280px; }
#tip { position: fixed; display: none; background: var(--ink);
  color: var(--surface); padding: 4px 8px; border-radius: 4px;
  font-size: 12px; pointer-events: none; max-width: 420px; z-index: 9; }
"""

_JS = """
const tip = document.getElementById('tip');
document.addEventListener('mouseover', (e) => {
  const t = e.target.closest('[data-tip]');
  if (!t) { tip.style.display = 'none'; return; }
  tip.textContent = t.dataset.tip;
  tip.style.display = 'block';
});
document.addEventListener('mousemove', (e) => {
  if (tip.style.display === 'none') return;
  tip.style.left = Math.min(e.clientX + 12,
    window.innerWidth - tip.offsetWidth - 8) + 'px';
  tip.style.top = (e.clientY + 14) + 'px';
});
"""


def build_dashboard(doc: Dict[str, Any],
                    baseline: Optional[Dict[str, Any]] = None,
                    bench_docs: Sequence[Tuple[str, Dict[str, Any]]] = (),
                    title: str = "DDP sweep dashboard") -> str:
    """Render one sweep report (plus optional context) to HTML."""
    meta = doc.get("meta", {})
    totals = doc.get("totals", {})
    status = (f'<span class="badge good">✓ {totals.get("ok", 0)} ok</span>'
              if not totals.get("errors") else
              f'<span class="badge crit">✗ {totals.get("errors")} '
              f'errored / {totals.get("cells")} cells</span>')
    chips = (f'workload <b>{_esc(meta.get("workload"))}</b> · '
             f'<b>{_esc(meta.get("servers"))}</b> servers · '
             f'<b>{_esc(meta.get("clients"))}</b> clients · '
             f'<b>{_fmt(meta.get("duration_ns"))}</b> ns · seeds '
             f'<b>{_esc(meta.get("seeds"))}</b> · '
             f'<b>{len(meta.get("models", []))}</b> models · '
             f'config <b>{_esc(meta.get("config_hash"))}</b> · {status}')
    heatmaps = "".join(_heatmap(doc, metric, heading, unit)
                       for metric, heading, unit in HEATMAP_METRICS)
    error_cells = [c for c in doc.get("cells", [])
                   if c.get("status") != "ok"]
    error_card = ""
    if error_cells:
        items = "".join(
            f'<tr><td>{_esc(c["consistency"])}/{_esc(c["persistency"])}'
            f'@seed{_esc(c.get("seed"))}</td>'
            f'<td>{_esc(c.get("error", ""))}</td></tr>'
            for c in error_cells)
        error_card = ('<div class="card"><h3>Errored cells</h3>'
                      '<table class="data"><tr><th>cell</th><th>error</th>'
                      '</tr>' + items + "</table></div>")
    sections = [
        f"<h1>{_esc(title)}</h1>",
        f'<div class="chips">{chips}</div>',
        error_card,
        f'<div class="grid2">{heatmaps}</div>',
        _waterfalls(doc),
        _attribution(doc),
        _diff_section(doc, baseline) if baseline is not None else "",
        _bench_trends(bench_docs),
    ]
    return ("<!DOCTYPE html>\n<html lang=\"en\"><head>"
            "<meta charset=\"utf-8\">"
            "<meta name=\"viewport\" "
            "content=\"width=device-width, initial-scale=1\">"
            f"<title>{_esc(title)}</title><style>{_CSS}</style></head>"
            "<body>" + "".join(s for s in sections if s)
            + f'<div id="tip"></div><script>{_JS}</script></body></html>\n')


def load_bench_dir(path: str) -> List[Tuple[str, Dict[str, Any]]]:
    """All parseable ``BENCH_*.json`` files under ``path``, sorted by
    filename; unparseable files are skipped (trend context is
    best-effort, never a reason to fail the dashboard)."""
    docs: List[Tuple[str, Dict[str, Any]]] = []
    for file in sorted(glob.glob(os.path.join(path, "BENCH_*.json"))):
        try:
            with open(file) as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError):
            continue
        if isinstance(doc, dict) and isinstance(doc.get("metrics"), dict):
            docs.append((os.path.basename(file), doc))
    return docs


def write_dashboard(path: str, html_text: str) -> None:
    with open(path, "w") as fh:
        fh.write(html_text)
