"""Analysis: metrics collection, result tables, validation checkers,
and Visibility/Durability Point measurement."""

from repro.analysis.linearizability import HistoryOp, is_linearizable
from repro.analysis.metrics import Metrics, OpRecord, Summary
from repro.analysis.points import PointsSummary, PointsTracker
from repro.analysis.report import (
    format_figure6_table,
    format_grid,
    format_summary_table,
)

__all__ = [
    "HistoryOp",
    "Metrics",
    "OpRecord",
    "PointsSummary",
    "PointsTracker",
    "Summary",
    "format_figure6_table",
    "format_grid",
    "format_summary_table",
    "is_linearizable",
]
