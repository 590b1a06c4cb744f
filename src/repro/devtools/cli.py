"""``repro lint`` / ``repro order`` — the CLI face of reprolint.

``lint`` runs the whole rule catalog; ``order`` is the determinism
certificate: the three ordering rules (effect-conflict,
schedule-sensitive-send, untracked-effect), golden effect-set dumps,
and the dynamic tie-batch sanitizer with static/dynamic
cross-referencing.

Exit codes (both commands): 0 clean (waived findings allowed), 1
unwaived findings or sanitizer divergence, 2 usage error.
"""

from __future__ import annotations

import argparse
import json

from repro.devtools.engine import (FileContext, UsageError, format_text,
                                   iter_python_files, run_lint, to_json)
from repro.devtools.registry import all_rules

__all__ = ["add_lint_parser", "cmd_lint", "add_order_parser", "cmd_order",
           "ORDER_RULES", "effects_document", "flagged_message_pairs"]

#: The rule subset `repro order` runs (see rules/ordering.py).
ORDER_RULES = ["effect-conflict", "schedule-sensitive-send",
               "untracked-effect"]


def add_lint_parser(subparsers) -> argparse.ArgumentParser:
    parser = subparsers.add_parser(
        "lint",
        help="run the project lint rules (reprolint)",
        description="AST-based project lint: determinism, tracer "
                    "guards, protocol-dispatch completeness. Waive a "
                    "finding inline with "
                    "`# repro: lint-ok[rule-id] reason`.")
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories (default: src)")
    parser.add_argument("--json", action="store_true",
                        help="emit the repro.lint_report/1 JSON document")
    parser.add_argument("--sarif", action="store_true",
                        help="emit a SARIF 2.1.0 document (for code "
                             "scanning upload)")
    parser.add_argument("--rules", default=None, metavar="ID[,ID...]",
                        help="run only these rule ids")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalog and exit")
    parser.add_argument("--show-waived", action="store_true",
                        help="include waived findings in text output")
    return parser


def _list_rules() -> int:
    for rule in all_rules():
        print(f"{rule.id:24s} {rule.summary}")
        print(f"{'':24s}   guards: {rule.guards}")
    return 0


def cmd_lint(args) -> int:
    if args.list_rules:
        return _list_rules()
    rule_ids = ([r.strip() for r in args.rules.split(",") if r.strip()]
                if args.rules else None)
    result = run_lint(args.paths, rule_ids=rule_ids)
    if args.sarif:
        from repro.devtools.sarif import to_sarif
        print(to_sarif(result))
    elif args.json:
        print(to_json(result))
    else:
        print(format_text(result, show_waived=args.show_waived))
    return result.exit_code


# ---------------------------------------------------------------------------
# repro order
# ---------------------------------------------------------------------------


def add_order_parser(subparsers) -> argparse.ArgumentParser:
    parser = subparsers.add_parser(
        "order",
        help="ordering/determinism certificate (static + dynamic)",
        description="Static effect analysis over every message handler "
                    "(effect-conflict, schedule-sensitive-send, "
                    "untracked-effect) plus the dynamic tie-batch "
                    "sanitizer. Exit 0 means tie-breaking order is "
                    "certified free for the DES kernel.")
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories (default: src)")
    parser.add_argument("--json", action="store_true",
                        help="emit a JSON report")
    parser.add_argument("--sarif", action="store_true",
                        help="emit the static findings as SARIF 2.1.0")
    parser.add_argument("--show-waived", action="store_true",
                        help="include waived findings in text output")
    parser.add_argument("--effects", action="store_true",
                        help="dump per-handler effect sets instead of "
                             "linting")
    parser.add_argument("--effects-out", metavar="FILE", default=None,
                        help="write the effect dump (repro.effects/1 "
                             "JSON) to FILE (golden-fixture form)")
    parser.add_argument("--sanitize", action="store_true",
                        help="also run the tie-batch permutation sweep "
                             "across all 25 DDP models")
    parser.add_argument("--seeds", default="1,2,3,4", metavar="S[,S...]",
                        help="permutation seeds for --sanitize "
                             "(default: 1,2,3,4)")
    parser.add_argument("--ops", type=int, default=30, metavar="N",
                        help="request budget per client for --sanitize "
                             "(fixed-work drain; default: 30)")
    parser.add_argument("--sweep-out", metavar="FILE", default=None,
                        help="write the sweep report (repro.order_sweep/1"
                             " JSON) to FILE")
    return parser


def _analyze(paths):
    from repro.devtools.effects import analyze_engines

    contexts = [FileContext.from_file(p) for p in iter_python_files(paths)]
    return analyze_engines(contexts)


def effects_document(reports_by_engine) -> dict:
    """The golden effect-dump document (``repro.effects/1``)."""
    engines = {}
    for engine in sorted(reports_by_engine):
        handlers = {}
        for report in reports_by_engine[engine]:
            handlers[report.handler] = {
                "msg_types": list(report.msg_types),
                "defined_in": report.defined_in,
                "effects": report.effects.summary(),
                "unresolved": sorted(report.effects.unresolved),
                "guarded_sends": len(report.effects.guarded_sends),
            }
        engines[engine] = handlers
    return {"schema": "repro.effects/1", "engines": engines}


def flagged_message_pairs(reports_by_engine):
    """Statically flagged handler conflicts as message-type pairs.

    The sanitizer observes ties as message-type labels, so conflicts are
    translated through each handler's dispatch entries for coverage
    cross-referencing.
    """
    from repro.devtools.effects import conflicts

    pairs = set()
    for engine, reports in reports_by_engine.items():
        types = {r.handler: r.msg_types for r in reports}
        for conflict in conflicts(reports):
            for a in types.get(conflict.handler_a, []):
                for b in types.get(conflict.handler_b, []):
                    pairs.add(tuple(sorted((a, b))))
    return sorted(pairs)


def _cmd_effects(args) -> int:
    reports = _analyze(args.paths)
    doc = effects_document(reports)
    payload = json.dumps(doc, indent=2, sort_keys=False)
    if args.effects_out:
        with open(args.effects_out, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
        total = sum(len(h) for h in doc["engines"].values())
        print(f"wrote {args.effects_out}: {len(doc['engines'])} "
              f"engine(s), {total} handler(s)")
    elif args.json:
        print(payload)
    else:
        for engine, handlers in doc["engines"].items():
            print(engine)
            for handler, info in handlers.items():
                msgs = ", ".join(info["msg_types"])
                print(f"  {handler}  [{msgs}]")
                for line in info["effects"]:
                    print(f"    {line}")
                for call in info["unresolved"]:
                    print(f"    ?  {call}  (unresolved)")
    return 0


def _run_sanitize(args, seeds, reports_by_engine):
    from repro.devtools.sanitizer import coverage, sweep

    result = sweep(ops_per_client=args.ops, seeds=seeds)
    cover = coverage(flagged_message_pairs(reports_by_engine), result)
    return result, cover


def cmd_order(args) -> int:
    if args.effects or args.effects_out:
        return _cmd_effects(args)
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    except ValueError as exc:
        raise UsageError(f"--seeds: {exc}") from exc
    result = run_lint(args.paths, rule_ids=ORDER_RULES)
    if args.sarif:
        from repro.devtools.sarif import to_sarif
        print(to_sarif(result, tool_name="repro-order"))
        return result.exit_code

    sweep_result = cover = None
    if args.sanitize:
        sweep_result, cover = _run_sanitize(args, seeds,
                                            _analyze(args.paths))
        if args.sweep_out:
            doc = sweep_result.to_dict()
            doc["coverage"] = cover
            with open(args.sweep_out, "w", encoding="utf-8") as handle:
                handle.write(json.dumps(doc, indent=2) + "\n")

    exit_code = result.exit_code
    if sweep_result is not None and not sweep_result.ok:
        exit_code = 1

    if args.json:
        doc = json.loads(to_json(result))
        if sweep_result is not None:
            doc["sweep"] = sweep_result.to_dict()
            doc["sweep"]["coverage"] = cover
        print(json.dumps(doc, indent=2))
        return exit_code

    print(format_text(result, show_waived=args.show_waived))
    if sweep_result is not None:
        cells = sweep_result.cells
        permuted = sum(sum(c.permuted.values()) for c in cells)
        print(f"sanitizer: {len(cells)} model(s) x "
              f"{len(sweep_result.seeds)} seed(s), "
              f"{permuted} batch permutation(s), "
              f"{'all byte-identical' if sweep_result.ok else 'FAILED'}")
        for cell in sweep_result.diverged:
            print(f"  DIVERGED {cell.model}: seeds {cell.diverged} "
                  f"(pairs: {cell.observed_pairs})")
        for cell in sweep_result.vacuous:
            print(f"  VACUOUS {cell.model}: no seed reordered a batch "
                  f"(byte-identity certifies nothing)")
        exercised, uncovered = cover["exercised"], cover["uncovered"]
        print(f"coverage: {len(cover['flagged'])} flagged pair(s), "
              f"{len(exercised)} exercised, {len(uncovered)} uncovered")
        for pair in uncovered:
            print(f"  uncovered: {pair[0]}~{pair[1]} (static claim "
                  f"never exercised dynamically)")
    return exit_code
