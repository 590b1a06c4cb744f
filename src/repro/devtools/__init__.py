"""reprolint — project-specific static analysis.

A small AST-based rule engine enforcing the invariants this repro's
evaluation depends on but that no generic linter knows about:

* determinism — all randomness flows through :class:`repro.sim.rng.
  SeededStream`; no wall-clock reads or salted ``hash()`` inside
  ``src/repro/`` (the exact bug class PR 1 fixed in ``fork()``);
* tracing stays free — ``tracer.emit``/``tracer.span`` on hot paths
  sit under a ``tracer.enabled`` guard, and tracer null-checks use
  ``is not None`` (an *empty* tracer is falsy; PR 1 again);
* protocol completeness — every :class:`~repro.core.messages.MsgType`
  member has a handler in every engine's dispatch table;
* ordered effects — no message sends / event scheduling from
  ``set``/``dict.keys()`` iteration order.

Findings can be waived inline::

    risky_call()  # repro: lint-ok[rule-id] one-line justification

Run it as ``repro lint src tests benchmarks`` (or via pre-commit / CI).

The package's one dynamic tool is the tie-batch sanitizer
(:mod:`repro.devtools.sanitizer`, ``repro order``): it permutes
same-timestamp message deliveries on real runs and requires the final
protocol state not to notice.
"""

from repro.devtools.engine import (
    FileContext,
    LintResult,
    UsageError,
    format_text,
    iter_python_files,
    lint_sources,
    run_lint,
    to_json,
)
from repro.devtools.findings import Finding
from repro.devtools.registry import Rule, all_rules, get_rule, load_rules

__all__ = [
    "FileContext",
    "Finding",
    "LintResult",
    "Rule",
    "UsageError",
    "all_rules",
    "format_text",
    "get_rule",
    "iter_python_files",
    "lint_sources",
    "load_rules",
    "run_lint",
    "to_json",
]
