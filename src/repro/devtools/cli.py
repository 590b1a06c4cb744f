"""``repro lint`` / ``repro order`` — the CLI face of ``devtools``.

``lint`` runs the rule catalog.  ``order`` runs the tie-batch
sanitizer's permutation sweep (:mod:`repro.devtools.sanitizer`): every
DDP model once unpermuted and once per seed, final protocol state
byte-identical or not.

Exit codes (both commands): 0 clean (waived findings allowed), 1
unwaived findings / a diverged or vacuous sweep cell, 2 usage error.
"""

from __future__ import annotations

import argparse
import json

from repro.devtools import sanitizer
from repro.devtools.engine import UsageError, format_text, run_lint, to_json
from repro.devtools.registry import all_rules

__all__ = ["add_lint_parser", "cmd_lint", "add_order_parser", "cmd_order"]


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
    if args.json:
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
        help="tie-batch sanitizer sweep across all 25 DDP models",
        description="Permute the processing order of same-timestamp "
                    "message deliveries (one alternative order per "
                    "seed) and require every model's final protocol "
                    "state to stay byte-identical to its unpermuted "
                    "run.")
    parser.add_argument("--json", action="store_true",
                        help="emit the repro.order_sweep/2 JSON document")
    parser.add_argument("--seeds", default="1,2,3,4", metavar="S[,S...]",
                        help="permutation seeds (default: 1,2,3,4)")
    parser.add_argument("--ops", type=int, default=30, metavar="N",
                        help="request budget per client (fixed-work "
                             "drain; default: 30)")
    parser.add_argument("--sweep-out", metavar="FILE", default=None,
                        help="also write the JSON document to FILE")
    return parser


def cmd_order(args) -> int:
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    except ValueError as exc:
        raise UsageError(f"--seeds: {exc}") from exc
    result = sanitizer.sweep(ops_per_client=args.ops, seeds=seeds)
    payload = json.dumps(result.to_dict(), indent=2)
    if args.sweep_out:
        with open(args.sweep_out, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
    if args.json:
        print(payload)
    else:
        cells = result.cells
        permuted = sum(sum(c.permuted.values()) for c in cells)
        print(f"sanitizer: {len(cells)} model(s) x {len(result.seeds)} "
              f"seed(s), {permuted} batch permutation(s), "
              f"{'all byte-identical' if result.ok else 'FAILED'}")
        for cell in result.diverged:
            print(f"  DIVERGED {cell.model}: seeds {cell.diverged} "
                  f"(pairs: {cell.observed_pairs})")
        for cell in result.vacuous:
            print(f"  VACUOUS {cell.model}: no seed reordered a batch "
                  f"(byte-identity certifies nothing)")
    return 0 if result.ok else 1
