"""The contract table: what each of the 25 DDP cells owes (Tables 2/4).

One row per <consistency, persistency> cell, stated once.  Its consumers
(:mod:`repro.faults.validate`, :mod:`repro.audit`,
:mod:`repro.obs.monitor`, ``tradeoffs``, and ``tools/mdlint.py`` for the
handbook's contract grid) look their cell up with :func:`contract_for`
and map each obligation id to *their own* check.

``durability`` — judged against the NVM image recovered after the run:

* ``no_phantom``: recovery may lose suffixes but never invents a
  version nobody wrote.  Owed by every cell.
* ``completed_writes``: every acknowledged write (for transactions,
  every write of a committed transaction) is recoverable.  Strict
  persists before the write is acknowledged anywhere, so it owes this
  under every consistency model.  Synchronous persists inline too, but
  only Linearizable (follower ACKs) and Transactional (commit) tie the
  acknowledgment to the full round; the others acknowledge after the
  local update, so their last writes may die with a crash.
  <Linearizable, Strict|Synchronous> is *durable linearizability*
  (D'Osualdo et al., PAPERS.md): the linearization survives the crash.
* ``read_values``: every value a client read is recoverable.
  Read-Enforced persistency persists a version before anybody reads
  it; Synchronous under Causal/Eventual acknowledges writes early but
  reads return only the persisted version.
* ``scope``: the writes of a scope whose Persist call completed recover
  all-or-nothing.

``session`` — ``monotonic_reads``: within one crash-free client session
per-key read versions never go backward.  Not owed under Transactional
consistency, where a read may observe a write that a later squash rolls
back (what a rollback may undo per consistency model: Kulkarni et al.,
PAPERS.md).

``checker`` — the history checker of the cell's consistency row.
``probes`` — the online invariants that may be held against the running
cell: per-replica, per-key ``applied_monotonic`` and
``persisted_monotonic``, and ``vp_before_dp`` (never durable before
visible).  Transactional aborts legally revert applied versions, even
below an eagerly persisted one; Strict lets the persist complete before
the apply by design.

:class:`CheckResult` is the verdict type of both judges of the table,
:mod:`repro.faults.validate` (white-box) and :mod:`repro.audit`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.model import Consistency as C, DdpModel, Persistency as P

__all__ = ["CheckResult", "Contract", "MAX_DETAILS", "PROBES",
           "contract_for"]

#: Violations recorded with full detail per check (the rest are counted).
MAX_DETAILS = 16


@dataclass
class CheckResult:
    """One check's verdict: what it judged (``checked``) and each rule
    it found broken.  ``details`` carries the first :data:`MAX_DETAILS`
    violations, each with the indexes of its witness operations."""

    name: str
    ok: bool = True
    checked: int = 0
    violations: int = 0
    details: List[Dict[str, Any]] = field(default_factory=list)
    stats: Dict[str, Any] = field(default_factory=dict)
    skipped: bool = False
    wall_ms: float = 0.0

    def __bool__(self) -> bool:
        return self.ok

    @property
    def vacuous(self) -> bool:
        """Ok only because the check judged nothing."""
        return self.ok and not self.skipped and self.checked == 0

    def violate(self, rule: str, detail: str, ops: Sequence[Any] = ()) -> None:
        self.ok = False
        self.violations += 1
        if len(self.details) < MAX_DETAILS:
            self.details.append({
                "rule": rule, "detail": detail,
                "ops": [op.index for op in ops]})


@dataclass(frozen=True)
class Contract:
    """What one <consistency, persistency> cell owes (obligation ids)."""

    durability: Tuple[str, ...]
    session: Tuple[str, ...]
    checker: str
    probes: Tuple[str, ...]
    name: Optional[str] = None  # in the literature, where it has one


_W, _R, _S = ("completed_writes",), ("read_values",), ("scope",)
_MONO = ("monotonic_reads",)
_NO_VP = ("applied_monotonic", "persisted_monotonic")
_TXN = ("persisted_monotonic",)
PROBES = _NO_VP + ("vp_before_dp",)
_DL = "durable linearizability"

#: cell -> (durability owed besides ``no_phantom``, session, probes[, name])
_TABLE = {
    (C.LINEARIZABLE, P.STRICT):         (_W, _MONO, _NO_VP, _DL),
    (C.LINEARIZABLE, P.SYNCHRONOUS):    (_W, _MONO, PROBES, _DL),
    (C.LINEARIZABLE, P.READ_ENFORCED):  (_R, _MONO, PROBES),
    (C.LINEARIZABLE, P.SCOPE):          (_S, _MONO, PROBES),
    (C.LINEARIZABLE, P.EVENTUAL):       ((), _MONO, PROBES),
    (C.READ_ENFORCED, P.STRICT):        (_W, _MONO, _NO_VP),
    (C.READ_ENFORCED, P.SYNCHRONOUS):   ((), _MONO, PROBES),
    (C.READ_ENFORCED, P.READ_ENFORCED): (_R, _MONO, PROBES),
    (C.READ_ENFORCED, P.SCOPE):         (_S, _MONO, PROBES),
    (C.READ_ENFORCED, P.EVENTUAL):      ((), _MONO, PROBES),
    (C.TRANSACTIONAL, P.STRICT):        (_W, (), _TXN),
    (C.TRANSACTIONAL, P.SYNCHRONOUS):   (_W, (), _TXN),
    (C.TRANSACTIONAL, P.READ_ENFORCED): (_R, (), _TXN),
    (C.TRANSACTIONAL, P.SCOPE):         (_S, (), _TXN),
    (C.TRANSACTIONAL, P.EVENTUAL):      ((), (), _TXN),
    (C.CAUSAL, P.STRICT):               (_W, _MONO, _NO_VP),
    (C.CAUSAL, P.SYNCHRONOUS):          (_R, _MONO, PROBES),
    (C.CAUSAL, P.READ_ENFORCED):        (_R, _MONO, PROBES),
    (C.CAUSAL, P.SCOPE):                (_S, _MONO, PROBES),
    (C.CAUSAL, P.EVENTUAL):             ((), _MONO, PROBES),
    (C.EVENTUAL, P.STRICT):             (_W, _MONO, _NO_VP),
    (C.EVENTUAL, P.SYNCHRONOUS):        (_R, _MONO, PROBES),
    (C.EVENTUAL, P.READ_ENFORCED):      (_R, _MONO, PROBES),
    (C.EVENTUAL, P.SCOPE):              (_S, _MONO, PROBES),
    (C.EVENTUAL, P.EVENTUAL):           ((), _MONO, PROBES),
}


def contract_for(model: DdpModel) -> Contract:
    """The row of the contract table for ``model``."""
    owed, session, probes, *name = _TABLE[model.consistency,
                                          model.persistency]
    return Contract(("no_phantom",) + owed, session,
                    model.consistency.value, probes, *name)

