"""The repo's performance benchmark.

Two ways in, one estimator:

``python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1``
    One workload, the way ``BENCHMARK.json``'s driver runs it.  Prints
    every metric by name with its unit and, as the last line, one JSON
    object ``{correct, attempted, failed, metrics}`` holding the
    end-to-end metrics (``--trace 0``) or the per-layer metrics
    (``--trace 1``).

``python3 bench/run.py --seed N --out FILE [--trace-out FILE]``
    All five workloads: timed rounds, then the traced pass, the observer
    matrix and the layer ladder.  Writes the document ``compare.py``
    reads; exits 1 if any cell-run failed.

Host time is noisy on a small sandbox, so the estimator is fixed here:
every repeat runs in a fresh child process, one at a time; repeats are
interleaved round-robin across the workloads of the invocation; host
seconds are calibrated against fixed work timed beside them
(``calibrate.py``); and each host-time metric is the median over
``ROUNDS`` repeats.  Median and quartiles are printed beside each value
so the noise stays visible.  Simulated-time metrics and counts repeat
exactly for one seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Optional

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_DIR = os.path.dirname(BENCH_DIR)
WORKER = os.path.join(BENCH_DIR, "worker.py")

#: Timed repeats per workload (see README.md, "The estimator").
ROUNDS = 5
#: ``--seconds`` at which the workloads run the simulated durations in
#: ``worker.WORKLOADS``; durations scale linearly with ``--seconds`` (a
#: deterministic simulator measures a fixed amount of simulated work,
#: not a wall-clock window).
REFERENCE_SECONDS = 15.0
CHILD_TIMEOUT_S = 170.0
#: Workloads short enough for a cProfile pass (``host.pycalls_per_op``).
PYCALLS_WORKLOADS = ("msg_heavy", "read_local", "scale_out")
OBSERVER_WORKLOAD = "msg_heavy"
OBSERVERS = ("tracer", "journey", "health", "history", "sanitizer")

Job = Dict[str, Any]
Runner = Callable[[Job], Dict[str, Any]]


def load_contract() -> Dict[str, Any]:
    """``BENCHMARK.json``: the one list of workloads, metric names,
    units, directions and bounds."""
    with open(os.path.join(REPO_DIR, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_child(job: Job) -> Dict[str, Any]:
    """Run one job in a fresh interpreter and wait for it to end."""
    done = subprocess.run(
        [sys.executable, WORKER, json.dumps(job)], stdout=subprocess.PIPE,
        timeout=CHILD_TIMEOUT_S, check=True, text=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def _attempt(runner: Runner, job: Job) -> Optional[Dict[str, Any]]:
    """A repeat that cannot even report is a failed repeat, not a
    failed benchmark: the other repeats still count."""
    try:
        return runner(job)
    except (subprocess.SubprocessError, ValueError, IndexError, OSError) as exc:
        print(f"bench: job {job} failed: {exc!r}", file=sys.stderr)
        return None


# ---------------------------------------------------------------------------
# timed rounds -> end-to-end metrics
# ---------------------------------------------------------------------------

def timed_rounds(names: List[str], seed: int, scale: float, rounds: int,
                 runner: Runner = run_child,
                 ) -> Dict[str, List[Optional[Dict[str, Any]]]]:
    """``rounds`` repeats of every workload, interleaved round-robin so
    a slow minute on the host lands on all workloads alike."""
    repeats: Dict[str, List[Optional[Dict[str, Any]]]] = {n: [] for n in names}
    for _ in range(rounds):
        for name in names:
            job = {"mode": "timed", "workload": name, "seed": seed,
                   "scale": scale}
            repeats[name].append(_attempt(runner, job))
    return repeats


def _stats(values: List[float], value: float) -> Dict[str, Any]:
    """The reported value beside the sample's median and quartiles."""
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"value": value, "median": median, "q1": q1, "q3": q3,
            "n": len(values)}


def end_to_end(repeats: List[Optional[Dict[str, Any]]]) -> Dict[str, Any]:
    """Turn one workload's repeats into its end-to-end metrics and its
    failed cell-run count.

    A cell-run fails if it raised, completed nothing, was non-finite or
    broke a durability contract (the worker lists those), if its repeat
    never reported, or if the repeats' ``sim_digest``s disagree — then
    every cell-run of the workload fails: the simulator was not
    deterministic, and no number below means anything.
    """
    reported = [r for r in repeats if r is not None]
    # Cells per repeat; unknown (counted as 1) when no repeat reported.
    cells = reported[0]["cells"] if reported else 1
    attempted = len(repeats) * cells
    digests = sorted({r["sim_digest"] for r in reported})
    problems: List[str] = []
    if len(digests) > 1:
        failed = attempted
        problems.append(f"non-deterministic: {len(digests)} distinct "
                        "sim_digests over repeats of one seed")
    else:
        failed = (len(repeats) - len(reported)) * cells
        failed += sum(len(r["failures"]) for r in reported)
    for repeat in reported:
        problems.extend(repeat["failures"])
    usable = [r for r in reported
              if r["sim_throughput_mops"] and r["sim_mean_write_us"]]
    metrics: Dict[str, Dict[str, Any]] = {}
    raw_host_s = None
    if usable:
        first = usable[0]
        # Calibrated (reference) seconds: their noise is two-sided, so
        # the median; peak RSS can only be pushed up, so the minimum.
        setup_s = [r["setup_s"] for r in usable]
        host_s = [r["host_s"] for r in usable]
        typical = statistics.median(host_s)
        rss = [r["peak_rss_mb"] for r in usable]
        metrics = {
            "setup_s": _stats(setup_s, statistics.median(setup_s)),
            "host_s_per_sim_ms": _stats(
                [h / first["sim_ms"] for h in host_s],
                typical / first["sim_ms"]),
            "sim_ops_per_host_s": _stats(
                [first["requests"] / h for h in host_s],
                first["requests"] / typical),
            "peak_rss_mb": _stats(rss, min(rss)),
            "sim_throughput_mops": _stats(
                [r["sim_throughput_mops"] for r in usable],
                first["sim_throughput_mops"]),
            "sim_mean_write_us": _stats(
                [r["sim_mean_write_us"] for r in usable],
                first["sim_mean_write_us"]),
        }
        raw_host_s = _stats([r["raw_host_s"] for r in usable],
                            min(r["raw_host_s"] for r in usable))
        raw_host_s["speed"] = statistics.median(r["host_speed"] for r in usable)
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "problems": problems, "raw_host_s": raw_host_s,
            "sim_digest": digests[0] if len(digests) == 1 else None}


# ---------------------------------------------------------------------------
# traced pass -> per-layer metrics
# ---------------------------------------------------------------------------

def traced_pass(name: str, seed: int, scale: float,
                ladder: Optional[Dict[str, Any]], runner: Runner = run_child,
                ) -> Dict[str, Any]:
    """One bare and one traced repeat of ``name`` (their ratio is the
    tracing overhead, their digests must agree), the observer matrix on
    ``OBSERVER_WORKLOAD``, the call count on the short workloads, and the
    ladder's rungs, which do not depend on the workload."""

    def job(mode: str) -> Job:
        return {"mode": mode, "workload": name, "seed": seed, "scale": scale}

    bare = _attempt(runner, job("bare"))
    traced = _attempt(runner, job("traced"))
    runs = {"bare": bare, "traced": traced}
    per_layer: Dict[str, Optional[float]] = dict((traced or {}).get("per_layer", {}))
    per_layer.update((ladder or {}).get("per_layer", {}))
    per_layer["obs.profile_overhead_ratio"] = _host_ratio(traced, bare)
    if name in PYCALLS_WORKLOADS:
        counted = runs["pycalls"] = _attempt(runner, job("pycalls"))
        if counted and counted["requests"]:
            per_layer["host.pycalls_per_op"] = (
                counted["pycalls"] / counted["requests"])
    if name == OBSERVER_WORKLOAD:
        for observer in OBSERVERS:
            observed = runs[observer] = _attempt(
                runner, job("observer:" + observer))
            if observed and not observed["observer_missing"]:
                per_layer["obs.overhead_ratio." + observer] = _host_ratio(
                    observed, bare)
    cells = (bare or traced or {"cells": 1})["cells"]
    reference = bare["sim_digest"] if bare else None
    failed = 0
    problems: List[str] = []
    for label, run in runs.items():
        if run is None:
            failed += cells
            problems.append(f"{label} run did not report")
        elif run["sim_digest"] != reference:
            failed += cells
            problems.append(f"{label} run's sim_digest differs from the bare "
                            "run's: an observer perturbed the simulation")
        else:
            failed += len(run["failures"])
            problems.extend(run["failures"])
    return {"per_layer": per_layer, "attempted": len(runs) * cells,
            "failed": failed, "problems": problems, "sim_digest": reference,
            "spans": (traced or {}).get("spans", [])}


def _host_ratio(run: Optional[Dict[str, Any]], base: Optional[Dict[str, Any]],
                ) -> Optional[float]:
    """Uncalibrated, like every per-layer host time: the traced pass
    calibrates only around its runs, which is too coarse to help a
    single pair of measurements."""
    if not run or not base or not base["raw_host_s"]:
        return None
    return run["raw_host_s"] / base["raw_host_s"]


def run_ladder(seed: int, runner: Runner = run_child) -> Optional[Dict[str, Any]]:
    return _attempt(runner, {"mode": "ladder", "seed": seed})


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------

def print_end_to_end(name: str, outcome: Dict[str, Any],
                     contract: Dict[str, Any]) -> None:
    print(f"== {name}: end-to-end ({outcome['attempted']} cell-runs, "
          f"{outcome['failed']} failed)  sim_digest {outcome['sim_digest']}")
    for spec in contract["end_to_end"]:
        stat = outcome["metrics"].get(spec["name"])
        if stat is None:
            print(f"  {spec['name']:<22} missing")
            continue
        print(f"  {spec['name']:<22} {stat['value']:>14.6g} {spec['unit']:<6}"
              f" (median {stat['median']:.6g}, quartiles {stat['q1']:.6g}"
              f" .. {stat['q3']:.6g}, n={stat['n']};"
              f" {spec['better']} is better, bound {spec['bound']:.0%})")
    raw = outcome["raw_host_s"]
    if raw is not None:
        print(f"  uncalibrated wall inside Cluster.run: min {raw['value']:.4g} s"
              f" (median {raw['median']:.4g}, quartiles {raw['q1']:.4g}"
              f" .. {raw['q3']:.4g}, n={raw['n']}); host speed"
              f" {raw['speed']:.3f} x reference")
    print(f"  {'runs_failed_frac':<22} "
          f"{outcome['failed'] / outcome['attempted']:>14.6g} fraction")
    for problem in outcome["problems"]:
        print(f"  FAILED: {problem}")


def print_per_layer(name: str, outcome: Dict[str, Any],
                    contract: Dict[str, Any]) -> None:
    print(f"== {name}: per-layer ({outcome['attempted']} cell-runs, "
          f"{outcome['failed']} failed)  sim_digest {outcome['sim_digest']}")
    for spec in contract["per_layer"]:
        value = outcome["per_layer"].get(spec["name"])
        shown = "null" if value is None else f"{value:.6g}"
        print(f"  {spec['name']:<40} {shown:>14} {spec['unit']}")
    if outcome["per_layer"].get("analysis.paper_anchor_err") is not None:
        print("  analysis.paper_anchor_err is validated against the paper's "
              "normalised shapes only; no hardware reference")
    for problem in outcome["problems"]:
        print(f"  FAILED: {problem}")


def contract_line(metrics: Dict[str, Optional[float]], specs: List[Dict[str, Any]],
                  attempted: int, failed: int) -> str:
    """The driver's result line.  Its values must be numbers, so a
    per-layer metric that does not apply to the workload (or whose
    source is gone) reads 0 there; the printed table and ``--out`` keep
    ``null``."""
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {s["name"]: {"value": metrics.get(s["name"]) or 0,
                                "unit": s["unit"]} for s in specs},
    })


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def run_one(name: str, seed: int, scale: float, trace: bool,
            contract: Dict[str, Any], trace_out: Optional[str] = None,
            rounds: int = ROUNDS, runner: Runner = run_child) -> int:
    """The driver's contract: one workload, one result line."""
    if not trace:
        outcome = end_to_end(
            timed_rounds([name], seed, scale, rounds, runner)[name])
        print_end_to_end(name, outcome, contract)
        values = {k: v["value"] for k, v in outcome["metrics"].items()}
        # No usable repeat, no metrics: every cell-run failed.
        failed = outcome["failed"] if values else outcome["attempted"]
        print(contract_line(values, contract["end_to_end"],
                            outcome["attempted"], failed))
        return 0
    ladder = run_ladder(seed, runner)
    outcome = traced_pass(name, seed, scale, ladder, runner)
    print_per_layer(name, outcome, contract)
    if ladder is not None:
        print(ladder["table"])
    if trace_out:
        write_json(trace_out, {name: outcome["spans"]})
    print(contract_line(outcome["per_layer"], contract["per_layer"],
                        outcome["attempted"], outcome["failed"]))
    return 0


def run_all(seed: int, scale: float, contract: Dict[str, Any],
            rounds: int = ROUNDS, runner: Runner = run_child) -> Dict[str, Any]:
    """Every workload: timed rounds, traced passes, ladder.  Returns the
    document ``--out`` stores and ``compare.py`` reads."""
    started = time.perf_counter()
    names = [w["name"] for w in contract["workloads"]]
    repeats = timed_rounds(names, seed, scale, rounds, runner)
    ladder = run_ladder(seed, runner)
    workloads: Dict[str, Any] = {}
    spans: Dict[str, Any] = {}
    for name in names:
        timed = end_to_end(repeats[name])
        traced = traced_pass(name, seed, scale, ladder, runner)
        if traced["sim_digest"] != timed["sim_digest"]:
            traced["failed"] = traced["attempted"]
            traced["problems"].append(
                "traced pass simulated something else than the timed rounds")
        print_end_to_end(name, timed, contract)
        print_per_layer(name, traced, contract)
        spans[name] = traced.pop("spans")
        workloads[name] = {
            "sim_digest": timed["sim_digest"],
            "attempted": timed["attempted"] + traced["attempted"],
            "failed": timed["failed"] + traced["failed"],
            "problems": timed["problems"] + traced["problems"],
            "end_to_end": timed["metrics"],
            "per_layer": traced["per_layer"],
        }
    if ladder is not None:
        print(ladder["table"])
    wall_s = time.perf_counter() - started
    print(f"total wall time {wall_s:.1f} s "
          f"({rounds} rounds, one child process at a time)")
    return {
        "schema": "repro.bench_run/1",
        "seed": seed, "scale": scale, "rounds": rounds, "wall_s": wall_s,
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                 "platform": platform.platform()},
        "workloads": workloads, "spans": spans,
        "ladder": (ladder or {}).get("rungs"),
    }


def write_json(path: str, document: Any) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv: Optional[List[str]] = None) -> int:
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(
        description="The repo's performance benchmark (see bench/README.md).")
    parser.add_argument("--workload", choices=names,
                        help="run one workload and end with the driver's "
                             "result line; default: all of them")
    parser.add_argument("--seed", type=int, default=2021,
                        help="becomes ClusterConfig.seed and the fault-plan seed")
    parser.add_argument("--seconds", type=float,
                        default=float(contract["run_seconds"]),
                        help="scales every simulated duration "
                             f"(x seconds / {REFERENCE_SECONDS:g})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 0 end-to-end, 1 per-layer")
    parser.add_argument("--out", help="all workloads: write the run document")
    parser.add_argument("--trace-out", help="write the traced pass's spans")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isdir(os.path.join(REPO_DIR, "src", "repro")):
        print("bench: no src/repro beside bench/: nothing to measure",
              file=sys.stderr)
        return 2
    scale = args.seconds / REFERENCE_SECONDS
    if args.workload:
        return run_one(args.workload, args.seed, scale, bool(args.trace),
                       contract, args.trace_out)
    document = run_all(args.seed, scale, contract)
    if args.trace_out:
        write_json(args.trace_out, document["spans"])
    if args.out:
        write_json(args.out, document)
    failed = sum(w["failed"] for w in document["workloads"].values())
    attempted = sum(w["attempted"] for w in document["workloads"].values())
    print(f"runs_failed_frac {failed / attempted:.6g} ({failed} of {attempted})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
