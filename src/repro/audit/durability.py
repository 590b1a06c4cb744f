"""Durability predicates: persistency contracts judged against the
post-crash recovered state.

Each predicate compares what clients observed (the history) with what
NVM recovery yielded after the run (``History.recovered``, the merged
latest-version image across every node's durable log).  Which cell owes
which obligation, and why, is stated in the contract table
(:mod:`repro.core.contracts`); :func:`checks_for_cell` looks the cell
up there and names the black-box predicate for each obligation.  The
predicates share only the verdict type and rule ids with the white-box
checks of :mod:`repro.faults.validate` — the two are each other's
reference.

All predicates share the checkers' soundness contract: writes of
squashed transaction attempts, pending (crash-severed) operations, and
unattributable versions are excluded rather than guessed at.
"""

from __future__ import annotations

from typing import List

from repro.audit.checkers import CheckResult, PreparedHistory
from repro.core.contracts import contract_for
from repro.core.model import DdpModel
from repro.core.replica import ZERO_VERSION

__all__ = ["DURABILITY_CHECKERS", "checks_for_cell",
           "check_completed_writes_durable", "check_read_values_durable",
           "check_scope_writes_durable", "check_recovered_no_phantom"]

#: Contract obligation id -> the name of its black-box predicate.
_PREDICATES = {
    "no_phantom": "recovered_no_phantom",
    "completed_writes": "completed_writes_durable",
    "read_values": "read_values_durable",
    "scope": "scope_writes_durable",
}


def checks_for_cell(model: DdpModel) -> List[str]:
    """Durability predicate names owed by one matrix cell."""
    return [_PREDICATES[owed] for owed in contract_for(model).durability]


def _must_survive(res: CheckResult, prep: PreparedHistory, op, rule: str,
                  what: str) -> None:
    """Count ``op`` as checked; violate ``rule`` if its version did not
    survive into the recovered image."""
    res.checked += 1
    recovered = prep.recovered.get(op.key, ZERO_VERSION)
    if recovered < tuple(op.version):
        res.violate(rule, f"key {op.key}: {what} missing from recovered "
                          f"state {recovered}", (op,))


def check_completed_writes_durable(prep: PreparedHistory) -> CheckResult:
    """Every acknowledged (and, for transactions, committed) write
    survived into the recovered image."""
    res = CheckResult("completed_writes_durable")
    for op in prep.completed_writes:
        if op.version is None or prep.write_effect(op) is not True:
            continue
        _must_survive(res, prep, op, "lost-durable-write",
                      f"acknowledged write {tuple(op.version)}")
    return res


def check_read_values_durable(prep: PreparedHistory) -> CheckResult:
    """Every version a completed read returned was durable by then and
    stayed recoverable (reads of squashed-attempt writes are excluded:
    their durability was legitimately reverted with the abort)."""
    res = CheckResult("read_values_durable")
    excluded = 0
    for op in prep.completed_reads:
        if op.version is None:
            continue
        version = tuple(op.version)
        if version == ZERO_VERSION:
            continue
        if prep.observation_effect(op) is not True:
            excluded += 1
            continue
        _must_survive(res, prep, op, "lost-read-value",
                      f"observed version {version}")
    res.stats["excluded_observations"] = excluded
    return res


def check_scope_writes_durable(prep: PreparedHistory) -> CheckResult:
    """Every write belonging to a scope whose Persist call completed
    survived into the recovered image."""
    res = CheckResult("scope_writes_durable")
    for op in prep.completed_writes:
        if op.scope_id is None or op.version is None:
            continue
        if (op.client, op.session, op.scope_id) not in prep.committed_scopes:
            continue
        if prep.write_effect(op) is not True:
            continue
        _must_survive(res, prep, op, "torn-scope",
                      f"write {tuple(op.version)} of completed scope "
                      f"{op.scope_id}")
    return res


def check_recovered_no_phantom(prep: PreparedHistory) -> CheckResult:
    """Recovery never yields a version no recorded write produced
    (keys touched by a version-unknown pending write are skipped: the
    severed write may legitimately be what recovery found)."""
    res = CheckResult("recovered_no_phantom")
    skipped = 0
    for key in sorted(prep.recovered):
        version = prep.recovered[key]
        if version == ZERO_VERSION:
            continue
        if key in prep.unknown_token_keys:
            skipped += 1
            continue
        res.checked += 1
        if (key, version) not in prep.writes_by_token:
            res.violate(
                "recovered-phantom",
                f"key {key}: recovered version {version} was never "
                f"written by any recorded operation")
    res.stats["skipped_keys"] = skipped
    return res


DURABILITY_CHECKERS = {
    "completed_writes_durable": check_completed_writes_durable,
    "read_values_durable": check_read_values_durable,
    "scope_writes_durable": check_scope_writes_durable,
    "recovered_no_phantom": check_recovered_no_phantom,
}
