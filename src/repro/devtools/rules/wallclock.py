"""wall-clock-ban: no real-time reads or salted ``hash()`` in src/repro.

Simulated time is the only clock the models may observe — a wall-clock
read inside ``src/repro/`` either leaks host speed into results or is
dead weight.  Builtin ``hash()`` is process-salted for ``str``/``bytes``
(PYTHONHASHSEED), the exact bug that made ``SeededStream.fork`` differ
across processes before PR 1; anything derived from it (bank mapping,
fork seeds, bucketing) silently varies between runs.  Use
``hashlib.blake2b`` for stable digests or plain modulo for int keys.

Legitimate wall-clock use carries an inline waiver saying so.  Two
families exist today:

* the kernel profiler (``obs/profile.py``) — measuring real elapsed
  time *is* its job: run wall clock, per-step attribution windows,
  handler resume segments, and the live-snapshot fix all bracket real
  time with ``perf_counter``;
* cost accounting around a finished run — the sweep's progress ETA
  (``obs/sweep.py``) and the auditor's checker wall
  (``audit/engine.py``).

Both run strictly *outside* the simulation's observable behavior: they
read clocks but never feed them back into scheduling, so determinism
holds (enforced by the byte-identity suite in
``tests/obs/test_tracing_equivalence.py``).  A waiver on code whose
clock reads *can* influence event order is a bug, not a style issue —
reject it in review.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.findings import Finding
from repro.devtools.registry import file_rule, in_src
from repro.devtools.rules.util import dotted_name, location

RULE_ID = "wall-clock-ban"

_BANNED_CALLS = {
    "time.time", "time.time_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.process_time", "time.process_time_ns",
    "datetime.now", "datetime.utcnow", "datetime.today",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.date.today",
}


@file_rule(
    RULE_ID,
    summary="wall-clock read or builtin hash() inside src/repro/",
    guards="host-independent results; unsalted cross-process hashing "
           "(PR-1 SeededStream.fork bug)",
    scope=in_src)
def check(ctx) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        line, col = location(node)
        name = dotted_name(node.func)
        if name in _BANNED_CALLS:
            yield Finding(
                RULE_ID, ctx.path, line, col,
                f"{name}() reads the wall clock; simulation code must "
                f"only observe sim.now")
        elif isinstance(node.func, ast.Name) and node.func.id == "hash":
            yield Finding(
                RULE_ID, ctx.path, line, col,
                "builtin hash() is process-salted for str/bytes "
                "(PYTHONHASHSEED); use hashlib.blake2b for stable "
                "digests or modulo for int keys")
