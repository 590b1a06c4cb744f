"""Compare two benchmark runs: ``python3 bench/compare.py BASE.json NEW.json``.

Both files are ``bench/run.py --out`` documents.  One row per workload x
end-to-end metric — base, new, ratio (new / base), bound, verdict:

``within``      the reported values differ by no more than the bound
``better``      new is better by more than the bound, and the samples agree
``worse``       new is worse by more than the bound, and the samples agree
``unresolved``  the reported values differ by more than the bound, but the
                two sides' quartile ranges overlap by more than the bound:
                the noise is wider than the difference

then exact-equality rows for ``sim_digest`` and every per-layer metric
that is a count or a simulated-time value — those repeat exactly for one
seed, so any difference is a change in what was simulated.

Exit 1 on any ``worse``, on a larger ``runs_failed_frac``, or — with
``--exact``, for two sets of runs of the same code — on any exact row
that differs.  Two back-to-back sets of one commit must come out with no
``worse`` and no ``unresolved``: that is the benchmark's own acceptance.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional, Tuple

import run as bench_run

#: Per-layer metrics that are counts or simulated-time values.
EXACT_PER_LAYER = (
    "sim.events_per_op", "sim.events_per_msg", "sim.procs_per_msg",
    "sim.heap_peak", "sim.max_tie_batch",
    "net.msgs_per_op", "net.bytes_per_op", "net.qp_peak_queue",
    "net.inbox_peak", "net.dropped", "net.resends",
    "net.bare_events_per_msg",
    "memory.persists_per_op", "memory.nvm_wait_ns_per_persist",
    "memory.nvm_busy_frac", "memory.nvm_peak_queue",
    "memory.bare_events_per_persist",
    "store.calls_per_op", "core.msgs_handled_per_op",
    "core.read_stalls_per_kop", "core.causal_buffer_peak",
    "txn.abort_frac", "analysis.sim_p99_write_us",
    "analysis.paper_anchor_err", "audit.target_ok", "host.pycalls_per_op",
)


def verdict(base: Dict[str, Any], new: Dict[str, Any], better: str,
            bound: float) -> Tuple[float, str]:
    """``(new / base, verdict)`` for one end-to-end metric."""
    ratio = new["value"] / base["value"]
    worsening = (ratio - 1.0) if better == "lower" else (1.0 - ratio)
    if abs(worsening) <= bound:
        return ratio, "within"
    overlap = min(base["q3"], new["q3"]) - max(base["q1"], new["q1"])
    if overlap > bound * abs(base["value"]):
        return ratio, "unresolved"
    return ratio, "worse" if worsening > 0 else "better"


def _shown(value: Any) -> str:
    if value is None:
        return "null"
    return value[:12] if isinstance(value, str) else f"{value:.6g}"


def compare(base: Dict[str, Any], new: Dict[str, Any],
            contract: Dict[str, Any]) -> Tuple[List[str], int, int, int]:
    """Rows, and the counts of ``worse``, ``unresolved`` and differing
    exact rows."""
    rows = [f"{'workload':<14} {'metric':<32} {'base':>12} {'new':>12} "
            f"{'new/base':>9} {'bound':>6}  verdict"]
    worse = unresolved = inexact = 0
    for name in (w["name"] for w in contract["workloads"]):
        old, cur = base["workloads"].get(name), new["workloads"].get(name)
        if old is None or cur is None:
            rows.append(f"{name:<14} missing on one side")
            worse += 1
            continue
        for spec in contract["end_to_end"]:
            a = old["end_to_end"].get(spec["name"])
            b = cur["end_to_end"].get(spec["name"])
            if a is None or b is None:
                rows.append(f"{name:<14} {spec['name']:<32} missing on one side")
                worse += 1
                continue
            ratio, word = verdict(a, b, spec["better"], spec["bound"])
            worse += word == "worse"
            unresolved += word == "unresolved"
            rows.append(f"{name:<14} {spec['name']:<32} {a['value']:>12.6g} "
                        f"{b['value']:>12.6g} {ratio:>9.4f} "
                        f"{spec['bound']:>6.0%}  {word}")
        old_frac = old["failed"] / old["attempted"]
        new_frac = cur["failed"] / cur["attempted"]
        word = "worse" if new_frac > old_frac else "within"
        worse += word == "worse"
        rows.append(f"{name:<14} {'runs_failed_frac':<32} {old_frac:>12.6g} "
                    f"{new_frac:>12.6g} {'':>9} {'0%':>6}  {word}")
        exact: List[Tuple[str, Optional[Any], Optional[Any]]] = [
            ("sim_digest", old["sim_digest"], cur["sim_digest"])]
        exact += [(metric, old["per_layer"].get(metric),
                   cur["per_layer"].get(metric)) for metric in EXACT_PER_LAYER]
        for metric, a, b in exact:
            same = a == b
            inexact += not same
            rows.append(f"{name:<14} {metric:<32} {_shown(a):>12} "
                        f"{_shown(b):>12} {'':>9} {'exact':>6}  "
                        f"{'equal' if same else 'DIFFERS'}")
    return rows, worse, unresolved, inexact


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--exact", action="store_true",
                        help="also exit 1 when an exact row differs or a "
                             "row is unresolved (two sets of the same code)")
    args = parser.parse_args(argv)
    documents = []
    for path in (args.base, args.new):
        with open(path, encoding="utf-8") as fh:
            documents.append(json.load(fh))
    base, new = documents
    if (base["seed"], base["scale"]) != (new["seed"], new["scale"]):
        print("compare: the two runs used different seeds or --seconds; "
              "exact rows will differ", file=sys.stderr)
    rows, worse, unresolved, inexact = compare(
        base, new, bench_run.load_contract())
    print("\n".join(rows))
    print(f"{worse} worse, {unresolved} unresolved, {inexact} exact rows differ")
    if worse or (args.exact and (unresolved or inexact)):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
