"""Shared infrastructure for the reproduction benchmarks.

Each benchmark file regenerates one table or figure of the paper.  The
simulation runs are cached per-session (a figure's several tests share
one sweep), printed as text tables, and archived under
``benchmarks/results/`` so the numbers behind EXPERIMENTS.md can be
re-derived at any time.

Run duration is tunable via ``REPRO_BENCH_DURATION_NS`` (default
150 us measured per configuration, after a 10 us warmup); raise it for
smoother numbers, lower it for a faster smoke pass.

Everything archived here is simulated, so ``benchmarks/results/`` is a
pure function of the source: regenerating it on an unchanged tree is a
no-op.  Host time is measured by ``bench/`` and nowhere else.
"""

import json
import os
import pathlib

from repro.cluster.cluster import run_simulation
from repro.cluster.config import ClusterConfig
from repro.obs.report import _clean, config_fingerprint
from repro.obs.schemas import BENCH_SCHEMA
from repro.workload.ycsb import WORKLOADS

DURATION_NS = float(os.environ.get("REPRO_BENCH_DURATION_NS", 150_000))
WARMUP_NS = min(10_000.0, DURATION_NS / 10)

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

_CACHE = {}


def run_cached(model, workload=None, config=None, duration_ns=None):
    """Run one configuration once per session; later calls reuse it."""
    key = (model.key, workload or WORKLOADS["A"], config or ClusterConfig(),
           duration_ns or DURATION_NS)
    if key not in _CACHE:
        _CACHE[key] = run_simulation(model, key[1], config=key[2],
                                     duration_ns=key[3],
                                     warmup_ns=WARMUP_NS)
    return _CACHE[key]


def archive(name: str, text: str) -> None:
    """Print a result table and save it under benchmarks/results/."""
    print("\n" + text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


def archive_json(name: str, config: dict, metrics: dict) -> None:
    """Write the machine-readable twin of an archived table:
    ``benchmarks/results/BENCH_<name>.json``.

    ``config`` describes the swept parameters, ``metrics`` maps result
    labels to :class:`~repro.analysis.metrics.Summary` objects (or plain
    dicts); values are cleaned to strict JSON (NaN/inf -> null) so the
    artifact is always parseable.
    """
    doc = {
        "schema": BENCH_SCHEMA,
        "bench": name,
        "config": _clean(config),
        # The fingerprint `repro diff` uses to reject apples-to-oranges
        # comparisons between artifacts from different sweeps.
        "config_hash": config_fingerprint(config),
        "metrics": _clean(metrics),
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"BENCH_{name}.json"
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    print(f"bench json -> {path}")
