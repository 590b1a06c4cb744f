#!/usr/bin/env python3
"""The de-tied golden: 25 ``Summary`` digests that kernel surgery must
reproduce byte for byte (stdlib + the public ``repro`` API only).

At default parameters the fabric is so symmetric that thousands of
*independent* events share a timestamp, and their relative order is an
accident of how many zero-delay kernel hops each chain makes.  A kernel
change that removes hops therefore moves trajectories without changing
a single delay.  This script takes the accident away: every (src, dst)
pair gets its own propagation delay (``one_way_ns``), so message
landings — the events that couple otherwise independent chains — no
longer tie.  What is left is a run whose ``Summary`` depends only on
*simulated timestamps* and on FIFO order at shared resources: exactly
what a kernel change must preserve.  Each cell also pins the
``cluster_digest`` of the protocol state the run ends in — a ``Summary``
counts and times operations but never looks at a value, so a handler
that installs the wrong one (the order-sensitivity mutants of
``tests/integration/test_order_mutants.py``) moves only this.

The committed golden was generated **at the commit before the
callback-message rewrite** (PR 11's tree); the test
``tests/integration/test_detied_equivalence.py`` re-runs the 25 cells
and compares.  Regenerate only for a change that is *meant* to move
simulated time, and say so in CHANGES.md::

    PYTHONPATH=src python tools/detied_golden.py --write

A sibling golden, ``golden_variant_summaries.json``, pins the two
deployment variants the same way (default fabric, ``Summary`` digest
plus ``cluster_digest`` of the converged state): ``LeaderCluster`` and
``HybridCluster``, two models each.  It was generated **at the commit
before the variants became subclasses of ``Cluster``** (PR 14's tree),
so the merge is held to the hand-rolled builders' exact numbers.

Exit codes: 0 match (or written), 1 mismatch.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import pathlib
import sys
from typing import Any, Dict

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "integration" / "golden_detied_summaries.json"
VARIANT_GOLDEN = (ROOT / "tests" / "integration"
                  / "golden_variant_summaries.json")

SERVERS = 5
SEED = 2021
DURATION_NS = 40_000.0
WORKLOAD = "A"


def one_way_ns(src: int, dst: int) -> float:
    """A distinct propagation delay per ordered pair, ~500 ns."""
    return 500.0 + 0.0137 * (7 * src + 13 * dst + 1) + 0.00071 * src * dst


def _digested(summary) -> Dict[str, Any]:
    summary = dataclasses.asdict(summary)
    text = json.dumps(summary, sort_keys=True)
    return {"digest": hashlib.sha256(text.encode()).hexdigest(),
            "summary": summary}


def run_cell(model) -> Dict[str, Any]:
    from repro.cluster import Cluster, ClusterConfig
    from repro.devtools.sanitizer import cluster_digest
    from repro.workload.ycsb import WORKLOADS

    cluster = Cluster(model, config=ClusterConfig(servers=SERVERS, seed=SEED),
                      workload=WORKLOADS[WORKLOAD])
    cluster.network.one_way_fn = one_way_ns
    cell = _digested(cluster.run(DURATION_NS))
    cell["cluster_digest"] = cluster_digest(cluster)
    return cell


def detied_cells() -> Dict[str, Dict[str, Any]]:
    """``str(model)`` -> ``{digest, summary, cluster_digest}`` for all
    25 DDP models."""
    from repro.core.model import all_ddp_models

    return {str(model): run_cell(model) for model in all_ddp_models()}


def variant_cells() -> Dict[str, Dict[str, Any]]:
    """``"<variant> <model>"`` -> ``{digest, summary, cluster_digest}``."""
    from repro.cluster import ClusterConfig
    from repro.core.model import Consistency as C, DdpModel, Persistency as P
    from repro.devtools.sanitizer import cluster_digest
    from repro.hybrid.cluster import HybridCluster
    from repro.variants.leader import LeaderCluster
    from repro.workload.ycsb import WORKLOADS

    def leader(model):
        return LeaderCluster(
            model, config=ClusterConfig(clients_per_server=10, seed=SEED),
            workload=WORKLOADS[WORKLOAD])

    def hybrid(model):
        return HybridCluster(
            model, groups=2, servers_per_group=3,
            config=ClusterConfig(servers=6, clients_per_server=5, seed=SEED),
            workload=WORKLOADS[WORKLOAD])

    cells = {}
    for name, build, model in (
            ("leader", leader, DdpModel(C.LINEARIZABLE, P.SYNCHRONOUS)),
            ("leader", leader, DdpModel(C.READ_ENFORCED, P.READ_ENFORCED)),
            ("hybrid", hybrid, DdpModel(C.LINEARIZABLE, P.SYNCHRONOUS)),
            ("hybrid", hybrid, DdpModel(C.CAUSAL, P.EVENTUAL))):
        cluster = build(model)
        cell = _digested(cluster.run(DURATION_NS, DURATION_NS / 10))
        cell["cluster_digest"] = cluster_digest(cluster)
        cells[f"{name} {model}"] = cell
    return cells


def digests(cell: Dict[str, Any]) -> Dict[str, str]:
    """What a re-run must match: every hash of a cell (the ``summary``
    itself may hold NaN, which never compares equal)."""
    return {key: value for key, value in cell.items() if key != "summary"}


def load_golden(path: pathlib.Path = GOLDEN) -> Dict[str, Dict[str, Any]]:
    return json.loads(path.read_text())["cells"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="overwrite the committed golden")
    args = parser.parse_args(argv)
    params = {"seed": SEED, "workload": WORKLOAD, "duration_ns": DURATION_NS}
    status = 0
    for path, cells, shape in (
            (GOLDEN, detied_cells(), dict(params, servers=SERVERS)),
            (VARIANT_GOLDEN, variant_cells(), params)):
        if args.write:
            path.write_text(json.dumps({
                "schema": "repro.detied_golden/1", "params": shape,
                "cells": cells}, indent=1, sort_keys=True) + "\n")
            print(f"wrote {path.relative_to(ROOT)} ({len(cells)} cells)")
            continue
        golden = load_golden(path)
        moved = sorted(name for name in golden
                       if digests(cells.get(name, {})) != digests(golden[name]))
        for name in moved:
            print(f"MOVED {name}")
        print(f"{len(golden) - len(moved)}/{len(golden)} cells byte-identical")
        if moved:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
