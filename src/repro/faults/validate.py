"""Post-run invariant validation for faulty runs.

After a run with fault injection, :func:`validate_faulty_run` recovers
the cluster's durable state and holds it to what the model's cell owes
in the contract table (:mod:`repro.core.contracts`, which says which
cell owes what and why), judging each obligation with its white-box
check from :mod:`repro.recovery.checker`.  Two of them are subtler than
their names:

* ``read_values`` — reads issued inside transactions are not
  session-logged (a squashed transaction's reads are retried
  wholesale), so under Transactional consistency the check covers none
  and passes trivially.
* ``monotonic_reads`` — judged per client *session*: a crash-restart of
  the client's node starts a new session (volatile state newer than the
  durable image is legitimately lost).

The clients must have been built with operation recording (the cluster
does this automatically when constructed with ``faults=``).
"""

from __future__ import annotations

from typing import List

from repro.core.contracts import contract_for
from repro.recovery.checker import (CheckResult,
                                    check_completed_writes_recovered,
                                    check_monotonic_reads,
                                    check_read_values_recovered,
                                    check_scope_atomicity)
from repro.recovery.recovery import recover_latest

__all__ = ["validate_faulty_run"]


def _merge(name: str, results: List[CheckResult]) -> CheckResult:
    violations = [v for result in results for v in result.violations]
    return CheckResult(name, not violations, violations)


def _completed_writes(cluster, recovered) -> CheckResult:
    return _merge("completed_writes_recovered", [
        check_completed_writes_recovered(recovered, client.completed_writes)
        for client in cluster.clients])


def _read_values(cluster, recovered) -> CheckResult:
    return _merge("read_values_recovered", [
        check_read_values_recovered(recovered, session)
        for client in cluster.clients
        for session in client.read_sessions()])


def _scope(cluster, recovered) -> CheckResult:
    scope_writes = {}
    for client in cluster.clients:
        scope_writes.update(client.scope_log)
    return check_scope_atomicity(cluster.nvm_log,
                                 range(cluster.config.servers), scope_writes)


def _monotonic_reads(cluster, recovered) -> CheckResult:
    return _merge("monotonic_reads", [
        check_monotonic_reads(session)
        for client in cluster.clients
        for session in client.read_sessions()])


#: Contract obligation id -> its white-box check.
_CHECKS = {
    "completed_writes": _completed_writes,
    "read_values": _read_values,
    "scope": _scope,
    "monotonic_reads": _monotonic_reads,
    # Recovery reads the engines' own log, so only an outside observer
    # (the auditor's ``recovered_no_phantom``) can tell a phantom.
    "no_phantom": None,
}


def validate_faulty_run(cluster) -> List[CheckResult]:
    """Run every contract check ``cluster.model`` owes.

    Returns the list of :class:`CheckResult`; the run is correct iff
    every result is ok.
    """
    contract = contract_for(cluster.model)
    recovered = recover_latest(cluster.nvm_log,
                               range(cluster.config.servers))
    checks = [_CHECKS[owed] for owed in contract.durability + contract.session]
    return [check(cluster, recovered) for check in checks if check]
