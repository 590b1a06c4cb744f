"""One repeat of one benchmark workload, in the process that runs it.

``run.py`` starts this file as a fresh child process for every repeat
(``python bench/worker.py '<job json>'``) and reads one JSON object from
its standard output.  The timed path below imports only the narrow
public surface the benchmark is allowed to depend on — ``repro.cluster``
(``Cluster``, ``ClusterConfig``), ``repro.core.model``,
``repro.workload.ycsb.WORKLOADS`` and ``repro.faults`` — so a refactor of
anything else cannot break the end-to-end numbers without also breaking
the public API.  Everything that looks inside a layer lives in
``traced.py`` and is imported only when a job asks for it.
"""

from __future__ import annotations

import time

# Before the first ``repro`` import: set-up time counts the import.
_PROCESS_START = time.perf_counter()

import dataclasses
import gc
import hashlib
import json
import math
import os
import resource
import sys
import traceback
from typing import Any, Dict, List, Optional, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_DIR = os.path.dirname(BENCH_DIR)
# BENCHMARK.json's command may name no file outside bench/, so the
# source tree is put on the path here instead of through PYTHONPATH.
_SRC_DIR = os.path.join(REPO_DIR, "src")
if _SRC_DIR not in sys.path:
    sys.path.insert(0, _SRC_DIR)

from calibrate import CalibratedClock, Calibrator

from repro.cluster import Cluster, ClusterConfig
from repro.core.model import (Consistency, DdpModel, Persistency,
                              all_ddp_models)
from repro.faults import FaultInjector, load_fault_plan, validate_faulty_run
from repro.workload.ycsb import WORKLOADS as YCSB

IMPORT_S = time.perf_counter() - _PROCESS_START

#: Simulated warm-up as a share of the duration: excluded from the
#: simulated statistics, included in host time (every user run pays it).
WARMUP_FRACTION = 0.10
#: The paper's headline ratio T(<Eventual, Eventual>) /
#: T(<Linearizable, Synchronous>).
PAPER_ANCHOR_RATIO = 3.3

LIN_SYNC = DdpModel(Consistency.LINEARIZABLE, Persistency.SYNCHRONOUS)
CAUSAL_EVENTUAL = DdpModel(Consistency.CAUSAL, Persistency.EVENTUAL)
EVENTUAL_EVENTUAL = DdpModel(Consistency.EVENTUAL, Persistency.EVENTUAL)


@dataclasses.dataclass(frozen=True)
class Workload:
    """A closed-loop run: 20 clients per server (Table 5 defaults), each
    pinned to its server, ``hashtable`` stores that start empty."""

    name: str
    models: Tuple[DdpModel, ...]
    ycsb: str
    servers: int
    sim_us: float
    """Simulated microseconds per cell at scale 1 (``run.py`` derives the
    scale from ``--seconds``)."""
    chaos: bool = False


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("msg_heavy", (LIN_SYNC,), "W", 5, 75.0),
    Workload("read_local", (CAUSAL_EVENTUAL,), "B", 5, 175.0),
    Workload("scale_out", (CAUSAL_EVENTUAL,), "A", 8, 10.0),
    # 15 us is the floor: below it the slowest transactional cells
    # complete no request inside the window, which is a failed cell-run.
    Workload("matrix25", tuple(all_ddp_models()), "A", 5, 15.0),
    Workload("chaos_recover", (LIN_SYNC,), "A", 5, 125.0, chaos=True),
)}


def fault_plan(seed: int, duration_us: float):
    """The ``chaos_recover`` plan, placed as shares of the run so it
    scales with ``--seconds``: one crash-restart, then a lossy window, a
    delay window and a slow-NVM window, none overlapping the outage."""
    d = duration_us
    return load_fault_plan({"seed": seed, "events": [
        {"kind": "crash", "node": 1, "at_us": 0.30 * d,
         "restart_after_us": 0.20 * d},
        {"kind": "drop", "at_us": 0.55 * d, "duration_us": 0.15 * d,
         "probability": 0.02},
        {"kind": "delay", "at_us": 0.72 * d, "duration_us": 0.10 * d,
         "probability": 0.20, "extra_us": 2.0},
        {"kind": "nvm_slow", "node": 3, "at_us": 0.85 * d,
         "duration_us": 0.10 * d, "factor": 4.0},
    ]})


class Probe:
    """What a traced or observed repeat adds to a timed one.  The timed
    repeats use this base class: no observers, nothing installed."""

    def cluster_kwargs(self, workload: Workload, model: DdpModel) -> Dict[str, Any]:
        """Extra ``Cluster(...)`` arguments (``profile=``, ``tracer=`` ...)."""
        return {}

    def built(self, cluster: Cluster) -> None:
        """Called with the constructed cluster, before it runs."""

    def ran(self, cluster: Cluster, summary: Any) -> None:
        """Called after the run (and fault validation) of one cell."""

    def result(self) -> Dict[str, Any]:
        """Extra keys merged into the repeat's result."""
        return {}


def _cell_failure(summary: Any, checks: List[Any]) -> Optional[str]:
    if summary.requests <= 0:
        return "completed zero requests"
    for field in ("throughput_ops_per_s", "mean_write_ns", "mean_access_ns"):
        if not math.isfinite(getattr(summary, field)):
            return f"non-finite {field}"
    bad = [check.name for check in checks if not check.ok]
    if bad:
        return "contract checks failed: " + ", ".join(bad)
    return None


def sim_digest(summaries: List[Dict[str, Any]]) -> str:
    """sha256 of the sorted-key JSON of every cell's ``Summary``: two
    repeats (or two commits) with equal digests simulated the same thing."""
    text = json.dumps(summaries, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def run_workload(name: str, seed: int, scale: float,
                 probe: Optional[Probe] = None,
                 interleave: bool = True) -> Dict[str, Any]:
    """Build and run every cell of workload ``name`` once, serially.

    ``seed`` becomes ``ClusterConfig.seed`` and the fault-plan seed;
    nothing else reaches the program.  ``scale`` multiplies the
    workload's simulated duration.  ``interleave`` calibrates between
    slices of each run as well as around it; the traced pass turns it
    off (bursts inside the run would land in its spans) and uses only
    the raw seconds — a burst between slices runs on colder caches than
    one after the run, so reference seconds of the two kinds do not
    compare.  Returns the repeat's raw numbers; ``run.py`` turns
    repeats into metrics.
    """
    workload = WORKLOADS[name]
    probe = probe or Probe()
    duration_us = workload.sim_us * scale
    duration_ns = duration_us * 1000.0
    warmup_ns = duration_ns * WARMUP_FRACTION
    calibrator = Calibrator()
    # Raw seconds, and the same in reference seconds (see calibrate.py).
    build_s = run_s = validate_s = 0.0
    setup_ref_s = host_ref_s = 0.0
    speeds: List[float] = []
    summaries: List[Dict[str, Any]] = []
    failures: List[str] = []
    throughput: Dict[DdpModel, float] = {}
    for model in workload.models:
        # The previous cell's cluster is cyclic garbage: collect it now,
        # outside every timed region, so peak RSS does not depend on
        # when the collector happens to run.
        gc.collect()
        injector = (FaultInjector(fault_plan(seed, duration_us))
                    if workload.chaos else None)

        def build() -> Cluster:
            cluster = Cluster(
                model,
                config=ClusterConfig(servers=workload.servers, seed=seed),
                workload=YCSB[workload.ycsb], faults=injector,
                **probe.cluster_kwargs(workload, model))
            probe.built(cluster)
            return cluster

        clock = CalibratedClock(calibrator)
        try:
            cluster, cell_build_s = clock.measure(build)
            if interleave:
                clock.slice_runs(cluster.sim, duration_ns)
            summary, cell_run_s = clock.measure(
                lambda: cluster.run(duration_ns, warmup_ns))
            checks, cell_validate_s = (
                clock.measure(lambda: validate_faulty_run(cluster))
                if injector else ([], 0.0))
            probe.ran(cluster, summary)
        except Exception:
            # One broken cell must not hide the other 24: count it
            # failed, keep the traceback on stderr, go on.
            traceback.print_exc()
            failures.append(f"{model}: raised")
            continue
        build_s += cell_build_s
        run_s += cell_run_s
        validate_s += cell_validate_s
        if not summaries:
            setup_ref_s += IMPORT_S * clock.speed
        setup_ref_s += cell_build_s * clock.speed
        host_ref_s += (cell_run_s + cell_validate_s) * clock.speed
        speeds.append(clock.speed)
        summaries.append(dataclasses.asdict(summary))
        throughput[model] = summary.throughput_ops_per_s
        reason = _cell_failure(summary, checks)
        if reason is not None:
            failures.append(f"{model}: {reason}")
    cells = len(workload.models)

    def cell_mean(field: str, divisor: float) -> Optional[float]:
        """Mean over the cells that have the value (a cell that
        completed no write has no write latency; it is already counted
        as failed); None when no cell has it."""
        values = [s[field] for s in summaries if math.isfinite(s[field])]
        return sum(values) / len(values) / divisor if values else None

    anchor_ratio = None
    if throughput.get(LIN_SYNC) and EVENTUAL_EVENTUAL in throughput:
        anchor_ratio = throughput[EVENTUAL_EVENTUAL] / throughput[LIN_SYNC]
    result = {
        "workload": name,
        "seed": seed,
        "cells": cells,
        "failures": failures,
        "import_s": IMPORT_S,
        "build_s": build_s,
        "validate_s": validate_s if workload.chaos else None,
        "raw_host_s": run_s + validate_s,
        "setup_s": setup_ref_s,
        "host_s": host_ref_s,
        "host_speed": sum(speeds) / len(speeds) if speeds else None,
        "sim_ms": duration_ns * cells / 1e6,
        "requests": sum(s["requests"] for s in summaries),
        "sim_throughput_mops": cell_mean("throughput_ops_per_s", 1e6),
        "sim_mean_write_us": cell_mean("mean_write_ns", 1e3),
        "sim_p99_write_us": cell_mean("p99_write_ns", 1e3),
        "anchor_ratio": anchor_ratio,
        "sim_digest": sim_digest(summaries),
        # Linux reports ru_maxrss in KiB.
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    result.update(probe.result())
    return result


def main(argv: List[str]) -> int:
    job = json.loads(argv[1])
    mode = job.get("mode", "timed")
    if mode == "timed":
        result = run_workload(job["workload"], job["seed"], job["scale"])
    else:
        import traced
        result = traced.run_job(job)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # traced.py and layers.py ``import worker``: hand them this module
    # rather than a second copy whose import clock started late.
    sys.modules["worker"] = sys.modules[__name__]
    sys.exit(main(sys.argv))
