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
"""

from repro.audit.checkers import (CONSISTENCY_CHECKERS, CheckResult,
                                  PreparedHistory, check_causal,
                                  check_eventual, check_linearizable,
                                  check_no_phantom, check_read_enforced,
                                  check_transactional)
from repro.audit.durability import (DURABILITY_CHECKERS,
                                    check_completed_writes_durable,
                                    check_read_values_durable,
                                    check_recovered_no_phantom,
                                    check_scope_writes_durable,
                                    checks_for_cell)
from repro.audit.engine import (AUDIT_SCHEMA, audit_exit_code,
                                audit_history, format_audit_table)

__all__ = [
    "AUDIT_SCHEMA", "CheckResult", "PreparedHistory",
    "CONSISTENCY_CHECKERS", "DURABILITY_CHECKERS",
    "check_no_phantom", "check_linearizable", "check_read_enforced",
    "check_transactional", "check_causal", "check_eventual",
    "check_completed_writes_durable", "check_read_values_durable",
    "check_scope_writes_durable", "check_recovered_no_phantom",
    "checks_for_cell", "audit_history", "audit_exit_code",
    "format_audit_table",
]
