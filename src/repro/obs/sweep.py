"""The sweep observatory: a parallel matrix runner with deterministic merge.

The paper's core deliverable is the 5x5 consistency x persistency
matrix.  :func:`run_sweep` fans the ``models x seeds`` matrix across
worker processes (``concurrent.futures.ProcessPoolExecutor``;
``workers=1`` runs in-process) and merges the results
**deterministically**: cells are keyed and sorted by ``(consistency,
persistency, seed)`` regardless of completion order, and every
wall-clock-derived value is stripped from the merged document, so a
``--workers 8`` sweep emits a ``repro.sweep_report/1`` artifact
byte-identical to a ``--workers 1`` sweep (asserted in
``tests/obs/test_sweep.py``).

Three design rules:

* **workers run the one pipeline** — each cell is one
  :func:`repro.obs.run.observed_run`, the recipe behind ``repro run``,
  and a cell's ``journeys`` / ``health`` / ``profile`` / ``audit``
  section is that section of the run's report (wall clock stripped).
  Same-seed runs are byte-identical across processes (the PR-1
  ``SeededStream`` fix), so fanning out cannot change any simulated
  number.
* **failure is a value** — a worker that raises (or a pool that dies)
  becomes a per-cell ``status: "error"`` entry with the exception text;
  the partial artifact stays schema-valid and the CLI exits non-zero,
  rather than a hung or torn sweep.
* **timing is telemetry, not data** — per-cell wall seconds and
  events/sec (from the always-attached :class:`KernelProfile`) feed the
  live progress display and the caller's ``timing`` side-channel only;
  they never enter the merged artifact (see :func:`strip_wall_clock`).
"""

from __future__ import annotations

import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.analysis.metrics import Summary
from repro.core.model import DdpModel
from repro.obs.report import _clean, config_fingerprint
from repro.obs.run import CellSpec, observed_run, section_observers
from repro.obs.schemas import (SECTIONS, SWEEP_REPORT_SCHEMA,
                               WALL_CLOCK_DIRECTIONS)

__all__ = ["CellSpec", "CellResult", "SweepProgress", "matrix_specs",
           "run_cell", "run_sweep", "strip_wall_clock", "sweep_meta",
           "build_sweep_report", "write_sweep_report"]


@dataclass
class CellResult:
    """What one cell produced: a deterministic payload plus timing."""

    spec: CellSpec
    status: str                       # "ok" | "error"
    summary: Optional[Summary] = None
    sections: Dict[str, Any] = field(default_factory=dict)
    error: Optional[str] = None
    timing: Optional[Dict[str, float]] = None
    """``{wall_seconds, events_per_wall_second, events_processed}`` —
    progress telemetry only, never merged into the artifact."""


def matrix_specs(models: Sequence[DdpModel], seeds: Sequence[int],
                 workload: str = "A", servers: int = 5, clients: int = 100,
                 duration_ns: float = 100_000.0,
                 warmup_ns: float = 10_000.0,
                 sections: Sequence[str] = ()) -> List[CellSpec]:
    """The ``models x seeds`` cell list, in deterministic order.  A
    repeated seed is a ``ValueError``: cells are keyed by label, so its
    duplicates would run twice and then collapse into one."""
    if len(set(seeds)) != len(seeds):
        raise ValueError(f"seeds {list(seeds)} repeat a seed: each seed "
                         f"runs once")
    specs = [CellSpec(model.consistency.value, model.persistency.value,
                      seed, workload=workload, servers=servers,
                      clients=clients, duration_ns=duration_ns,
                      warmup_ns=warmup_ns, sections=tuple(sections))
             for model in models for seed in seeds]
    return sorted(specs, key=lambda s: s.sort_key)


def strip_wall_clock(value: Any) -> Any:
    """Recursively remove wall-clock-derived keys
    (:data:`~repro.obs.schemas.WALL_CLOCK_DIRECTIONS`) from a section.

    Every deterministic counter survives; anything measured in real
    seconds (or derived from it) is dropped so the merged artifact is
    byte-identical across machines and worker counts.
    """
    if isinstance(value, dict):
        return {k: strip_wall_clock(v) for k, v in value.items()
                if k not in WALL_CLOCK_DIRECTIONS}
    if isinstance(value, (list, tuple)):
        return [strip_wall_clock(v) for v in value]
    return value


def run_cell(spec: CellSpec) -> CellResult:
    """Run one cell in this process (the worker body): a view over
    :func:`repro.obs.run.observed_run`.

    Attaches a :class:`~repro.obs.profile.KernelProfile`
    unconditionally — profiled runs are byte-identical to unprofiled
    ones (``tests/obs/test_tracing_equivalence.py``), and its snapshot
    is the cell's timing telemetry — plus the
    :func:`~repro.obs.run.section_observers` ``spec.sections``
    requests, built as ``repro run`` builds them.  Each requested
    section is that section of the run report, wall clock stripped.
    """
    run = observed_run(spec, section_observers(spec, profile=True))
    snapshot = run.observers.profile.snapshot()
    return CellResult(
        spec=spec, status="ok", summary=run.summary,
        sections={name: strip_wall_clock(run.report[name])
                  for name in spec.sections},
        timing={"wall_seconds": snapshot["wall_seconds"],
                "events_per_wall_second":
                    snapshot["events_per_wall_second"],
                "events_processed": snapshot["events_processed"]})


class SweepProgress:
    """Live sweep telemetry: per-cell state, events/sec, wall + ETA.

    TTY streams get an in-place status line (carriage-return rewrite);
    anything else — CI logs, pipes — gets one plain line per finished
    cell, so the output stays line-oriented and diffable.  Progress goes
    to ``stderr`` by default: stdout carries the result tables and
    artifacts.
    """

    def __init__(self, total: int, workers: int = 1, stream=None):
        self.total = total
        self.workers = max(1, workers)
        self.stream = sys.stderr if stream is None else stream
        self.tty = bool(getattr(self.stream, "isatty", lambda: False)())
        self.done = 0
        self.errors = 0
        self._start = time.perf_counter()

    @property
    def elapsed_seconds(self) -> float:
        return time.perf_counter() - self._start

    def _eta_seconds(self) -> float:
        if self.done == 0:
            return 0.0
        remaining = self.total - self.done
        return self.elapsed_seconds / self.done * remaining

    def cell_done(self, result: CellResult) -> None:
        self.done += 1
        if result.status != "ok":
            self.errors += 1
        rate = ""
        if result.timing:
            rate = (f"  {result.timing['events_per_wall_second'] / 1e3:.0f}k"
                    f" ev/s  cell {result.timing['wall_seconds']:.1f}s")
        state = "ok" if result.status == "ok" else "ERROR"
        line = (f"[{self.done}/{self.total}] {result.spec.label:<42} "
                f"{state}{rate}  elapsed {self.elapsed_seconds:.1f}s"
                f"  eta {self._eta_seconds():.0f}s")
        if self.tty:
            self.stream.write("\r\x1b[2K" + line)
        else:
            self.stream.write(line + "\n")
        self.stream.flush()

    def finish(self) -> None:
        if self.tty:
            self.stream.write("\n")
            self.stream.flush()


def _error_result(spec: CellSpec, exc: BaseException) -> CellResult:
    return CellResult(spec=spec, status="error",
                      error=f"{type(exc).__name__}: {exc}")


def run_sweep(specs: Sequence[CellSpec], workers: int = 1,
              progress: Optional[SweepProgress] = None) -> List[CellResult]:
    """Run every cell, fanning across ``workers`` processes.

    ``workers <= 1`` runs in-process (no executor).  The
    returned list is sorted by the deterministic cell key; a cell whose
    worker raised (or whose pool died) is an ``error`` result, never a
    missing one.
    """
    results: List[CellResult] = []
    if workers <= 1:
        for spec in specs:
            try:
                result = run_cell(spec)
            except Exception as exc:  # noqa: BLE001 - failure is a value
                result = _error_result(spec, exc)
            results.append(result)
            if progress is not None:
                progress.cell_done(result)
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {pool.submit(run_cell, spec): spec for spec in specs}
            for future in as_completed(futures):
                spec = futures[future]
                try:
                    result = future.result()
                except Exception as exc:  # noqa: BLE001 - failure is a value
                    result = _error_result(spec, exc)
                results.append(result)
                if progress is not None:
                    progress.cell_done(result)
    if progress is not None:
        progress.finish()
    return sorted(results, key=lambda r: r.spec.sort_key)


def sweep_meta(specs: Sequence[CellSpec]) -> Dict[str, Any]:
    """The merged report's ``meta``: the matrix shape, no timing, no
    worker count — nothing that may differ between equivalent sweeps."""
    if not specs:
        raise ValueError("cannot build a sweep report from zero cells")
    first = specs[0]
    models = sorted({f"{s.consistency}/{s.persistency}" for s in specs})
    seeds = sorted({s.seed for s in specs})
    return {
        "workload": first.workload,
        "servers": first.servers,
        "clients": first.clients,
        "duration_ns": first.duration_ns,
        "warmup_ns": first.warmup_ns,
        "models": models,
        "seeds": seeds,
        "sections": sorted(set(first.sections)),
        "config_hash": config_fingerprint({
            "workload": first.workload,
            "servers": first.servers,
            "clients": first.clients,
            "models": models,
        }),
    }


def build_sweep_report(results: Sequence[CellResult]) -> Dict[str, Any]:
    """Merge cell results into the ``repro.sweep_report/1`` document.

    Deterministic by construction: cells sorted by ``(consistency,
    persistency, seed)``, timing stripped, NaN/inf cleaned — the same
    inputs produce the same bytes whatever the completion order.
    """
    ordered = sorted(results, key=lambda r: r.spec.sort_key)
    cells: List[Dict[str, Any]] = []
    for result in ordered:
        spec = result.spec
        cell: Dict[str, Any] = {
            "consistency": spec.consistency,
            "persistency": spec.persistency,
            "seed": spec.seed,
            "model": str(spec.model),
            "status": result.status,
        }
        if result.status == "ok":
            cell["summary"] = _clean(result.summary)
            for name in SECTIONS:
                if name in result.sections:
                    cell[name] = result.sections[name]
        else:
            cell["error"] = result.error or "unknown error"
        cells.append(cell)
    ok = sum(1 for r in ordered if r.status == "ok")
    return {
        "schema": SWEEP_REPORT_SCHEMA,
        "meta": sweep_meta([r.spec for r in ordered]),
        "cells": cells,
        "totals": {"cells": len(cells), "ok": ok,
                   "errors": len(cells) - ok},
    }


def write_sweep_report(path: str, report: Dict[str, Any]) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
