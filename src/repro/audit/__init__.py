"""Black-box contract auditing for the 5×5 DDP matrix.

Record what every client observed (:mod:`repro.obs.history`), then
judge the run against each consistency/persistency contract purely
from those observations — the auditor never looks inside the protocol:

* :mod:`repro.audit.checkers` — one checker per consistency model
  (linearizability through a polynomial unique-token cluster graph,
  read-enforced freshness, transactional atomicity, causal session
  guarantees, eventual) plus the shared phantom check;
* :mod:`repro.audit.durability` — persistency predicates evaluated
  against the post-crash recovered NVM state, mapped per matrix cell;
* :mod:`repro.audit.engine` — the 5×5 evaluation, the
  ``repro.audit_report/1`` document, and the human verdict table.

Entry points: ``repro run --audit`` (record + audit in one go) and
``repro audit history.jsonl`` (audit a saved ``repro.history/1``
artifact, exit 0 pass / 1 violation / 2 unusable).

The public names below are resolved on first use (PEP 562), so
importing one module of the package loads only that module.
"""

from repro import _lazy

#: Public name -> the module that defines it.
_EXPORTS = {
    "CheckResult": "repro.core.contracts",
    "CONSISTENCY_CHECKERS": "repro.audit.checkers",
    "PreparedHistory": "repro.audit.checkers",
    "check_causal": "repro.audit.checkers",
    "check_eventual": "repro.audit.checkers",
    "check_linearizable": "repro.audit.checkers",
    "check_no_phantom": "repro.audit.checkers",
    "check_read_enforced": "repro.audit.checkers",
    "check_transactional": "repro.audit.checkers",
    "DURABILITY_CHECKERS": "repro.audit.durability",
    "check_completed_writes_durable": "repro.audit.durability",
    "check_read_values_durable": "repro.audit.durability",
    "check_recovered_no_phantom": "repro.audit.durability",
    "check_scope_writes_durable": "repro.audit.durability",
    "checks_for_cell": "repro.audit.durability",
    "AUDIT_SCHEMA": "repro.audit.engine",
    "audit_exit_code": "repro.audit.engine",
    "audit_history": "repro.audit.engine",
    "format_audit_table": "repro.audit.engine",
}

__all__ = [*_EXPORTS]
__getattr__, __dir__ = _lazy(globals(), _EXPORTS)
