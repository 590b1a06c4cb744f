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
what a kernel change must preserve.

The committed golden was generated **at the commit before the
callback-message rewrite** (PR 11's tree); the test
``tests/integration/test_detied_equivalence.py`` re-runs the 25 cells
and compares.  Regenerate only for a change that is *meant* to move
simulated time, and say so in CHANGES.md::

    PYTHONPATH=src python tools/detied_golden.py --write

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

SERVERS = 5
SEED = 2021
DURATION_NS = 40_000.0
WORKLOAD = "A"


def one_way_ns(src: int, dst: int) -> float:
    """A distinct propagation delay per ordered pair, ~500 ns."""
    return 500.0 + 0.0137 * (7 * src + 13 * dst + 1) + 0.00071 * src * dst


def run_cell(model) -> Dict[str, Any]:
    from repro.cluster import Cluster, ClusterConfig
    from repro.workload.ycsb import WORKLOADS

    cluster = Cluster(model, config=ClusterConfig(servers=SERVERS, seed=SEED),
                      workload=WORKLOADS[WORKLOAD])
    cluster.network.one_way_fn = one_way_ns
    summary = dataclasses.asdict(cluster.run(DURATION_NS))
    text = json.dumps(summary, sort_keys=True)
    return {"digest": hashlib.sha256(text.encode()).hexdigest(),
            "summary": summary}


def detied_cells() -> Dict[str, Dict[str, Any]]:
    """``str(model)`` -> ``{digest, summary}`` for all 25 DDP models."""
    from repro.core.model import all_ddp_models

    return {str(model): run_cell(model) for model in all_ddp_models()}


def load_golden() -> Dict[str, Dict[str, Any]]:
    return json.loads(GOLDEN.read_text())["cells"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="overwrite the committed golden")
    args = parser.parse_args(argv)
    cells = detied_cells()
    if args.write:
        GOLDEN.write_text(json.dumps({
            "schema": "repro.detied_golden/1",
            "params": {"servers": SERVERS, "seed": SEED, "workload": WORKLOAD,
                       "duration_ns": DURATION_NS},
            "cells": cells}, indent=1, sort_keys=True) + "\n")
        print(f"wrote {GOLDEN.relative_to(ROOT)} ({len(cells)} cells)")
        return 0
    golden = load_golden()
    moved = sorted(name for name in golden
                   if cells.get(name, {}).get("digest")
                   != golden[name]["digest"])
    for name in moved:
        print(f"MOVED {name}")
    print(f"{len(golden) - len(moved)}/{len(golden)} cells byte-identical")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
