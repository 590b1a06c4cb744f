"""Durability and intuition-property checkers (paper Section 6).

The white-box checks: each validates one obligation of the contract
table (:mod:`repro.core.contracts`, which says which DDP model owes it
and what it means) against a recovered state.

The inputs are plain records collected by the caller (tests, the crash
example), keeping the checkers independent of how the run was driven.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple

from repro.core.replica import Version
from repro.recovery.log import NvmLog
from repro.recovery.recovery import RecoveredState

__all__ = ["CheckResult", "check_completed_writes_recovered",
           "check_read_values_recovered", "check_scope_atomicity",
           "check_monotonic_reads"]


@dataclass
class CheckResult:
    """Outcome of one invariant check."""

    name: str
    ok: bool
    violations: List[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.ok


def check_completed_writes_recovered(
        recovered: RecoveredState,
        completed_writes: Iterable[Tuple[int, Version]]) -> CheckResult:
    """Non-stale reads across a crash: completed writes survive."""
    violations = []
    for key, version in completed_writes:
        if recovered.version_of(key) < version:
            violations.append(
                f"key {key}: completed write {version} lost "
                f"(recovered {recovered.version_of(key)})")
    return CheckResult("completed_writes_recovered", not violations, violations)


def check_read_values_recovered(
        recovered: RecoveredState,
        observed_reads: Iterable[Tuple[int, Version]]) -> CheckResult:
    """Read-Enforced durability: every read value survives."""
    violations = []
    for key, version in observed_reads:
        if version[0] <= 0:
            continue  # read of the initial (absent) value
        if recovered.version_of(key) < version:
            violations.append(
                f"key {key}: read version {version} lost "
                f"(recovered {recovered.version_of(key)})")
    return CheckResult("read_values_recovered", not violations, violations)


def check_scope_atomicity(log: NvmLog, node_ids,
                          scope_writes: Dict[int, List[Tuple[int, Version]]]
                          ) -> CheckResult:
    """Scope persistency: a scope is recoverable all-or-nothing per node.

    ``scope_writes`` maps scope_id -> the (key, version) pairs the scope
    contained.
    """
    violations = []
    for node_id in node_ids:
        for scope_id, writes in scope_writes.items():
            recovered_flags = []
            for key, version in writes:
                entry = log.durable_entry(node_id, key)
                recovered_flags.append(
                    entry is not None and entry.version >= version)
            if log.is_scope_committed(node_id, scope_id):
                if not all(recovered_flags):
                    violations.append(
                        f"node {node_id} scope {scope_id}: committed but "
                        f"not fully recoverable")
            # An uncommitted scope's entries are filtered out by
            # NvmLog.durable_entry, so nothing to check on that side
            # unless a *newer committed* version re-covered the key.
    return CheckResult("scope_atomicity", not violations, violations)


def check_monotonic_reads(
        read_sequence: Iterable[Tuple[int, Version]]) -> CheckResult:
    """Within one observer, per-key read versions never go backward."""
    last_seen: Dict[int, Version] = {}
    violations = []
    for key, version in read_sequence:
        previous = last_seen.get(key)
        if previous is not None and version < previous:
            violations.append(
                f"key {key}: read {version} after having read {previous}")
        last_seen[key] = version
    return CheckResult("monotonic_reads", not violations, violations)
