"""The audit engine: evaluate the full 5×5 DDP matrix over a history.

:func:`audit_history` runs every consistency checker and durability
predicate once, then combines them per matrix cell, producing a
``repro.audit_report/1`` document: per-cell verdicts, the target
model's pass/fail, violation witnesses (the offending sub-history as
recorded op JSON), and checker cost statistics.  The same document
feeds the human verdict table (:func:`format_audit_table`), the run
report's ``audit`` section, and ``repro diff``.

A history is *unusable* — no verdicts, only a reason — when it was
truncated by the recorder bound or contains no operations: auditing a
partial view could both miss real violations and invent false ones.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional

from repro.audit.checkers import (CONSISTENCY_CHECKERS, CheckResult,
                                  PreparedHistory, check_no_phantom)
from repro.audit.durability import DURABILITY_CHECKERS, checks_for_cell
from repro.core.contracts import contract_for
from repro.core.model import (Consistency, DdpModel, Persistency,
                              all_ddp_models)
from repro.obs.history import History, HistoryOpRecord
from repro.obs.schemas import AUDIT_REPORT_SCHEMA as AUDIT_SCHEMA

__all__ = ["AUDIT_SCHEMA", "audit_history", "audit_exit_code",
           "format_audit_table"]

_ROWS = tuple(c.value for c in Consistency)
_COLUMNS = tuple(p.value for p in Persistency)

#: Witness operations serialized per violation detail.
_MAX_WITNESS_OPS = 8


def _clock() -> float:
    # Checker cost is genuinely host time: the audit runs after the
    # simulation has stopped and reports its own expense, never feeding
    # it back into event order.
    return time.perf_counter()


def _op_json(op: HistoryOpRecord) -> Dict[str, Any]:
    doc: Dict[str, Any] = {
        "index": op.index, "client": op.client, "session": op.session,
        "op": op.op, "key": op.key,
        "version": None if op.version is None else list(op.version),
        "invoke_us": op.invoke_us, "respond_us": op.respond_us,
    }
    if op.txn_id is not None:
        doc["txn_id"] = op.txn_id
        doc["committed"] = op.committed
    if op.scope_id is not None:
        doc["scope_id"] = op.scope_id
    if op.severed:
        doc["severed"] = True
    return doc


def _check_json(result: CheckResult,
                by_index: Dict[int, HistoryOpRecord]) -> Dict[str, Any]:
    details = []
    for detail in result.details:
        witness = [_op_json(by_index[i]) for i in
                   detail["ops"][:_MAX_WITNESS_OPS] if i in by_index]
        details.append({"rule": detail["rule"], "detail": detail["detail"],
                        "ops": detail["ops"], "witness": witness})
    return {
        "ok": result.ok,
        "skipped": result.skipped,
        "vacuous": result.vacuous,
        "checked": result.checked,
        "violations": result.violations,
        "wall_ms": round(result.wall_ms, 3),
        "stats": dict(result.stats),
        "details": details,
    }


def _owed(model: DdpModel) -> List[str]:
    """The checks a cell is held to: phantom freedom, its row's history
    checker and its column's durability predicates."""
    return ["no_phantom", contract_for(model).checker] + checks_for_cell(model)


def _timed(checker, prep: PreparedHistory) -> CheckResult:
    start = _clock()
    result = checker(prep)
    result.wall_ms = (_clock() - start) * 1000.0
    return result


def _unusable(reason: str, target_consistency: Optional[str],
              target_persistency: Optional[str]) -> Dict[str, Any]:
    target = None
    if target_consistency and target_persistency:
        target = {"consistency": target_consistency,
                  "persistency": target_persistency, "ok": None}
    return {"schema": AUDIT_SCHEMA, "usable": False, "reason": reason,
            "target": target}


def audit_history(history: History,
                  consistency: Optional[str] = None,
                  persistency: Optional[str] = None) -> Dict[str, Any]:
    """Audit one history against the full matrix.

    ``consistency`` / ``persistency`` override the target cell (which
    otherwise comes from the history's recorded run metadata); the
    other 24 cells are always evaluated too — a weaker model passing a
    stronger cell's checks is informative, a stronger model failing a
    weaker cell's is a bug somewhere.
    """
    meta = history.meta or {}
    model_meta = meta.get("model")
    if not isinstance(model_meta, dict):
        # CLI run metadata carries the model label as a string and the
        # component values at the top level.
        model_meta = meta
    target_consistency = consistency or model_meta.get("consistency")
    target_persistency = persistency or model_meta.get("persistency")
    if history.truncated:
        return _unusable(
            f"history truncated: recorder dropped {history.dropped} "
            f"operations", target_consistency, target_persistency)
    if not history.ops:
        return _unusable("history is empty", target_consistency,
                         target_persistency)
    prep = PreparedHistory(history)
    by_index = {op.index: op for op in history.ops}

    results: Dict[str, CheckResult] = {
        "no_phantom": _timed(check_no_phantom, prep)}
    for name in _ROWS:
        results[name] = _timed(CONSISTENCY_CHECKERS[name], prep)
    durability: Dict[str, CheckResult] = {}
    for name, checker in sorted(DURABILITY_CHECKERS.items()):
        if prep.recovered_captured:
            durability[name] = _timed(checker, prep)
        else:
            skipped = CheckResult(name, skipped=True)
            skipped.stats["note"] = "recovered state not captured"
            durability[name] = skipped

    all_checks = {**results, **durability}
    matrix: List[Dict[str, Any]] = []
    target: Optional[Dict[str, Any]] = None
    for model in all_ddp_models():
        cons, pers = model.key
        owed = [all_checks[name] for name in _owed(model)]
        failed = [c.name for c in owed if not c.ok]
        cell = {"consistency": cons, "persistency": pers,
                "ok": not failed, "failed_checks": failed,
                "durability_skipped": any(c.skipped for c in owed)}
        matrix.append(cell)
        if cons == target_consistency and pers == target_persistency:
            target = dict(cell)

    sessions = {(op.client, op.session) for op in history.ops}
    wall_ms = sum(r.wall_ms for r in all_checks.values())
    return {
        "schema": AUDIT_SCHEMA,
        "usable": True,
        "history": {
            "ops": len(history.ops),
            "reads": sum(1 for op in history.ops if op.op == "read"),
            "writes": sum(1 for op in history.ops if op.op == "write"),
            "pending": prep.pending_ops,
            "severed": sum(1 for op in history.ops if op.severed),
            "failed": sum(1 for op in history.ops if not op.ok),
            "clients": len({op.client for op in history.ops}),
            "sessions": len(sessions),
            "keys": len({op.key for op in history.ops
                         if op.key is not None}),
            "recovered_captured": prep.recovered_captured,
        },
        "target": target,
        "consistency": {name: _check_json(results[name], by_index)
                        for name in ("no_phantom",) + _ROWS},
        "durability": {
            "skipped": not prep.recovered_captured,
            "checks": {name: _check_json(durability[name], by_index)
                       for name in sorted(durability)},
        },
        "matrix": matrix,
        "totals": {
            "cells": len(matrix),
            "cells_failed": sum(not cell["ok"] for cell in matrix),
            "violations_total": sum(r.violations
                                    for r in all_checks.values()),
            "target_failed_checks": (len(target["failed_checks"])
                                     if target else None),
            "checker_wall_seconds": round(wall_ms / 1000.0, 6),
        },
    }


def audit_exit_code(report: Dict[str, Any]) -> int:
    """0 target cell passes, 1 it fails, 2 unusable or no target."""
    if not report.get("usable"):
        return 2
    target = report.get("target")
    if target is None or target.get("ok") is None:
        return 2
    return 0 if target["ok"] else 1


_COLUMN_LABELS = {"strict": "strict", "synchronous": "sync",
                  "read_enforced": "read_enf", "scope": "scope",
                  "eventual": "eventual"}

#: The ``stats`` counts that are observations a check left unjudged.
_EXCLUSIONS = ("unattributable_reads", "excluded_observations",
               "skipped_keys")


def _coverage_lines(report: Dict[str, Any], target: Dict[str, Any]
                    ) -> List[str]:
    """One line per check the target cell owes: its verdict, how many
    records it judged and how many it excluded."""
    checks = dict(report["consistency"], **report["durability"]["checks"])
    lines = []
    for name in _owed(DdpModel(Consistency(target["consistency"]),
                               Persistency(target["persistency"]))):
        check = checks[name]
        status = ("FAIL" if not check["ok"] else "skipped" if check["skipped"]
                  else "vacuous" if check["vacuous"] else "ok")
        lines.append(f"  {name:26s} {status:8s} checked={check['checked']}"
                     + "".join(f" {key}={check['stats'][key]}"
                               for key in _EXCLUSIONS
                               if key in check["stats"]))
    return lines


def format_audit_table(report: Dict[str, Any]) -> str:
    """Human verdict table for one audit report."""
    lines: List[str] = []
    if not report.get("usable"):
        lines.append(f"audit: UNUSABLE -- {report.get('reason')}")
        return "\n".join(lines)
    info = report["history"]
    lines.append(
        f"audit: {info['ops']} ops, {info['clients']} clients, "
        f"{info['sessions']} sessions, {info['pending']} pending "
        f"({info['severed']} crash-severed)"
        + ("" if info["recovered_captured"]
           else " -- durability skipped (no recovered state)"))
    target = report.get("target") or {}
    cells = {(c["consistency"], c["persistency"]): c
             for c in report["matrix"]}
    width = max(len(label) for label in _COLUMN_LABELS.values()) + 2
    name_width = max(len(name) for name in _ROWS) + 2
    header = " " * name_width + "".join(
        _COLUMN_LABELS[p].rjust(width) for p in _COLUMNS)
    lines.append(header)
    for cons in _ROWS:
        row = cons.ljust(name_width)
        for pers in _COLUMNS:
            cell = cells[(cons, pers)]
            mark = "ok" if cell["ok"] else "FAIL"
            if (cons == target.get("consistency")
                    and pers == target.get("persistency")):
                mark = f"*{mark}"
            row += mark.rjust(width)
        lines.append(row)
    if target:
        verdict = "PASS" if target["ok"] else "FAIL"
        lines.append(f"target <{target['consistency']}, "
                     f"{target['persistency']}>: {verdict}"
                     + (f" ({', '.join(target['failed_checks'])})"
                        if target["failed_checks"] else ""))
        lines.extend(_coverage_lines(report, target))
    else:
        lines.append("target: none (pass --consistency/--persistency "
                     "or audit a history with run metadata)")
    totals = report["totals"]
    lines.append(
        f"checks: {totals['violations_total']} violation(s) across "
        f"{totals['cells_failed']}/{totals['cells']} failing cells; "
        f"checker wall {totals['checker_wall_seconds'] * 1000.0:.1f} ms")
    sections = [("consistency", report["consistency"]),
                ("durability", report["durability"]["checks"])]
    for section, checks in sections:
        for name, check in checks.items():
            if check["ok"] or check["skipped"]:
                continue
            lines.append(f"  {section}/{name}: "
                         f"{check['violations']} violation(s)")
            for detail in check["details"][:3]:
                lines.append(f"    - [{detail['rule']}] {detail['detail']}")
                for op in detail["witness"][:4]:
                    lines.append(
                        f"        #{op['index']} client={op['client']} "
                        f"s={op['session']} {op['op']} key={op['key']} "
                        f"v={op['version']} "
                        f"[{op['invoke_us']:.3f}, "
                        + ("pending" if op["respond_us"] is None
                           else f"{op['respond_us']:.3f}") + "]")
    return "\n".join(lines)
