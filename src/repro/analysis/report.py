"""Result-table formatting for benchmarks and examples.

The paper's figures group bars by consistency model with one bar per
persistency model, all normalized to <Linearizable, Synchronous>.
:func:`format_figure6_table` renders exactly that layout as text;
:func:`format_summary_table` renders arbitrary (label, Summary) rows.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.analysis.metrics import Summary
from repro.core.model import Consistency, DdpModel, Persistency

__all__ = ["format_summary_table", "format_figure6_table", "format_grid"]


def format_summary_table(rows: Iterable[Tuple[str, Summary]],
                         baseline: Optional[Summary] = None) -> str:
    """Render labeled summaries; with a baseline, add normalized columns."""
    lines = []
    header = (f"{'model':<40} {'thr(Mops/s)':>12} {'rd(ns)':>9} "
              f"{'wr(ns)':>9} {'p95rd':>9} {'p95wr':>9} {'msgs':>9}")
    if baseline is not None:
        header += f" {'thr(norm)':>10}"
    lines.append(header)
    lines.append("-" * len(header))
    for label, summary in rows:
        line = (f"{label:<40} {summary.throughput_ops_per_s / 1e6:>12.3f} "
                f"{summary.mean_read_ns:>9.0f} {summary.mean_write_ns:>9.0f} "
                f"{summary.p95_read_ns:>9.0f} {summary.p95_write_ns:>9.0f} "
                f"{summary.total_messages:>9d}")
        if baseline is not None:
            norm = summary.normalized_to(baseline)
            line += f" {norm['throughput']:>10.2f}"
        lines.append(line)
    return "\n".join(lines)


def format_grid(values: Dict[DdpModel, float], title: str) -> str:
    """Render a consistency x persistency grid of one metric, in the
    paper's Figure 6 layout (rows = consistency groups, columns =
    persistency models)."""
    consistencies = list(Consistency)
    persistencies = list(Persistency)
    lines = [title]
    header = f"{'':<14}" + "".join(
        f"{p.short_name:>15}" for p in persistencies)
    lines.append(header)
    for c in consistencies:
        cells = []
        for p in persistencies:
            value = values.get(DdpModel(c, p))
            cells.append(f"{value:>15.2f}" if value is not None
                         else f"{'--':>15}")
        lines.append(f"{c.short_name:<14}" + "".join(cells))
    return "\n".join(lines)


def format_figure6_table(summaries: Dict[DdpModel, Summary]) -> str:
    """Render all six Figure 6 panels, normalized like the paper (to
    <Linearizable, Synchronous>)."""
    baseline = summaries[DdpModel(Consistency.LINEARIZABLE,
                                  Persistency.SYNCHRONOUS)]
    panels = [
        ("(a) Throughput (normalized)", "throughput"),
        ("(b) Mean Read Latency (normalized)", "mean_read"),
        ("(c) Mean Write Latency (normalized)", "mean_write"),
        ("(d) Mean Latency (normalized)", "mean_access"),
        ("(e) 95th Percentile Read Latency (normalized)", "p95_read"),
        ("(f) 95th Percentile Write Latency (normalized)", "p95_write"),
    ]
    sections: List[str] = []
    for title, metric in panels:
        values = {model: summary.normalized_to(baseline)[metric]
                  for model, summary in summaries.items()}
        sections.append(format_grid(values, title))
    return "\n\n".join(sections)
