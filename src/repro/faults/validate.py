"""Post-run contract validation for faulty runs: the white-box checks.

:func:`validate_faulty_run` recovers the cluster's durable state and
holds it to what the model's cell owes in the contract table
(:mod:`repro.core.contracts`), one check per obligation over the plain
records the clients logged.  :mod:`repro.audit` judges the same
obligations from a recorded history; the two are each other's
reference, and a white-box violation carries the rule id of the
matching black-box predicate.  Two checks are subtler than their names:

* ``read_values`` — reads issued inside transactions are not
  session-logged (a squashed transaction's reads are retried
  wholesale), so under Transactional consistency the check judges none
  and its verdict is vacuous.
* ``monotonic_reads`` — judged per client *session*: a crash-restart of
  the client's node starts a new session (volatile state newer than the
  durable image is legitimately lost).

The clients must have been built with operation recording (the cluster
does this automatically when constructed with ``faults=``).
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Iterable, List, Tuple

from repro.core.contracts import CheckResult, contract_for
from repro.core.replica import Version
from repro.recovery.log import NvmLog
from repro.recovery.recovery import RecoveredState, recover_latest

__all__ = ["validate_faulty_run", "check_completed_writes_recovered",
           "check_read_values_recovered", "check_scope_atomicity",
           "check_monotonic_reads"]


def _survive(name: str, rule: str, what: str, recovered: RecoveredState,
             records: Iterable[Tuple[int, Version]]) -> CheckResult:
    res = CheckResult(name)
    for key, version in records:
        if version[0] <= 0:
            continue  # the initial (absent) value
        res.checked += 1
        if recovered.version_of(key) < version:
            res.violate(rule, f"key {key}: {what} {version} lost "
                              f"(recovered {recovered.version_of(key)})")
    return res


def check_completed_writes_recovered(
        recovered: RecoveredState,
        completed_writes: Iterable[Tuple[int, Version]]) -> CheckResult:
    """Non-stale reads across a crash: completed writes survive."""
    return _survive("completed_writes_recovered", "lost-durable-write",
                    "completed write", recovered, completed_writes)


def check_read_values_recovered(
        recovered: RecoveredState,
        observed_reads: Iterable[Tuple[int, Version]]) -> CheckResult:
    """Read-Enforced durability: every read value survives."""
    return _survive("read_values_recovered", "lost-read-value",
                    "read version", recovered, observed_reads)


def check_scope_atomicity(log: NvmLog, node_ids,
                          scope_writes: Dict[int, List[Tuple[int, Version]]]
                          ) -> CheckResult:
    """Scope persistency: a scope is recoverable all-or-nothing per node.

    ``scope_writes`` maps scope_id -> the (key, version) pairs the scope
    contained; a scope is judged where some node committed it.  An
    uncommitted scope's entries are filtered out by
    ``NvmLog.durable_entry``, so that side holds by construction.
    """
    res = CheckResult("scope_atomicity")
    judged = set()
    for node_id in node_ids:
        for scope_id, writes in scope_writes.items():
            if not log.is_scope_committed(node_id, scope_id):
                continue
            judged.add(scope_id)
            for key, version in writes:
                entry = log.durable_entry(node_id, key)
                if entry is None or entry.version < version:
                    res.violate("torn-scope",
                                f"node {node_id} scope {scope_id}: committed "
                                f"but not fully recoverable")
                    break
    res.checked = len(judged)
    return res


def check_monotonic_reads(
        read_sessions: Iterable[Iterable[Tuple[int, Version]]]
        ) -> CheckResult:
    """Within one session, per-key read versions never go backward."""
    res = CheckResult("monotonic_reads")
    for session in read_sessions:
        last_seen: Dict[int, Version] = {}
        for key, version in session:
            res.checked += 1
            previous = last_seen.get(key)
            if previous is not None and version < previous:
                res.violate("monotonic-reads",
                            f"key {key}: read {version} after having read "
                            f"{previous}")
            last_seen[key] = version
    return res


def validate_faulty_run(cluster) -> List[CheckResult]:
    """Run every contract check ``cluster.model`` owes, each once over
    every client's records; the run is correct iff every result is ok."""
    nodes = range(cluster.config.servers)
    recovered = recover_latest(cluster.nvm_log, nodes)
    clients = cluster.clients
    sessions = [session for client in clients
                for session in client.read_sessions()]
    checks = {
        "completed_writes": lambda: check_completed_writes_recovered(
            recovered, chain.from_iterable(c.completed_writes
                                           for c in clients)),
        "read_values": lambda: check_read_values_recovered(
            recovered, chain.from_iterable(sessions)),
        "scope": lambda: check_scope_atomicity(
            cluster.nvm_log, nodes,
            {scope: writes for c in clients
             for scope, writes in c.scope_log.items()}),
        "monotonic_reads": lambda: check_monotonic_reads(sessions),
    }
    contract = contract_for(cluster.model)
    # Recovery reads the engines' own log, so only an outside observer
    # (the auditor's ``recovered_no_phantom``) can tell a phantom.
    return [checks[owed]() for owed in contract.durability + contract.session
            if owed != "no_phantom"]
