"""Qualitative trade-off analysis of DDP models (paper Section 6, Table 4).

The paper compares DDP models along durability, performance (write/read
optimization and traffic), programmer intuition (monotonic reads and
non-stale reads), programmability, and implementability.  Rather than
hard-coding Table 4, this module *derives* each property from the model
pair with small rules that mirror the paper's reasoning; the unit tests
then assert that the derivation reproduces all ten rows of Table 4.

Definitions (Section 6):

* *Monotonic reads*: of two system-wide reads of a variable, the later
  one returns the same or a later version.
* *Non-stale reads*: a read that follows a write system-wide returns the
  written value — in particular, a failure between the write and the
  read must not lose the written version.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List

from repro.core.contracts import contract_for
from repro.core.model import Consistency, DdpModel, Persistency

__all__ = ["Level", "TradeoffProfile", "analyze", "analyze_all", "TABLE4_MODELS"]


class Level(enum.IntEnum):
    """Qualitative level; the paper's down/flat/up arrows."""

    LOW = 0
    MEDIUM = 1
    HIGH = 2

    @property
    def arrow(self) -> str:
        return {Level.LOW: "v", Level.MEDIUM: "-", Level.HIGH: "^"}[self]


@dataclass(frozen=True)
class TradeoffProfile:
    """One row of Table 4."""

    model: DdpModel
    durability: Level
    write_optimized: bool
    read_optimized: bool
    traffic: Level
    performance: Level
    monotonic_reads: bool
    non_stale_reads: bool
    intuitiveness: Level
    programmability: Level
    implementability: Level

    def row(self) -> str:
        """Format as a Table-4-style row."""
        yn = lambda b: "yes" if b else "no"
        return (f"{str(self.model):<38} dur={self.durability.arrow} "
                f"wrOpt={yn(self.write_optimized):<3} "
                f"rdOpt={yn(self.read_optimized):<3} "
                f"traffic={self.traffic.arrow} perf={self.performance.arrow} "
                f"monot={yn(self.monotonic_reads):<3} "
                f"nonstale={yn(self.non_stale_reads):<3} "
                f"intuit={self.intuitiveness.arrow} "
                f"prog={self.programmability.arrow} "
                f"impl={self.implementability.arrow}")


def _durability(model: DdpModel) -> Level:
    """How much state survives a volatile-storage failure.

    Strict persists before writes complete and Scope recovers every
    completed scope: high.  Read-Enforced guarantees only read values:
    medium.  Eventual guarantees nothing: low.  Synchronous depends on
    the consistency model's visibility point: with Linearizable or
    Transactional consistency the write/transaction does not complete
    until persisted everywhere (high); with Read-Enforced or Causal
    consistency a completed write may still be lost (medium); with
    Eventual consistency even propagation is unbounded (low).
    """
    p, c = model.persistency, model.consistency
    if p is Persistency.STRICT or p is Persistency.SCOPE:
        return Level.HIGH
    if p is Persistency.EVENTUAL:
        return Level.LOW
    if p is Persistency.READ_ENFORCED:
        return Level.MEDIUM
    # Synchronous:
    if c in (Consistency.LINEARIZABLE, Consistency.TRANSACTIONAL):
        return Level.HIGH
    if c is Consistency.EVENTUAL:
        return Level.LOW
    return Level.MEDIUM


def _write_optimized(model: DdpModel) -> bool:
    """Writes are optimized unless they serialize persists in the write
    critical path: Strict always stalls writes; <Linearizable,
    Synchronous> completes only after the persist-carrying round."""
    if model.persistency is Persistency.STRICT:
        return False
    if (model.consistency is Consistency.LINEARIZABLE
            and model.persistency is Persistency.SYNCHRONOUS):
        return False
    return True


def _read_optimized(model: DdpModel) -> bool:
    """Reads are optimized unless they can wait on persist operations:
    Read-Enforced persistency stalls conflicting reads everywhere, and
    Synchronous/Strict persistency puts persists inside the validation
    rounds that Linearizable/Read-Enforced consistency reads wait for."""
    if model.persistency is Persistency.READ_ENFORCED:
        return False
    if (model.persistency in (Persistency.SYNCHRONOUS, Persistency.STRICT)
            and model.consistency in (Consistency.LINEARIZABLE,
                                      Consistency.READ_ENFORCED)):
        return False
    return True


def _traffic(model: DdpModel) -> Level:
    """Message volume: invalidation rounds are the medium baseline;
    causal histories make traffic high; lazy UPDs alone are low.
    Transactions (INITX/ENDX/VAL), double ACKs (Read-Enforced
    persistency), and scope-persist rounds each push it up a level."""
    c, p = model.consistency, model.persistency
    if c is Consistency.CAUSAL:
        base = Level.HIGH
    elif c is Consistency.EVENTUAL:
        base = Level.LOW
    else:
        base = Level.MEDIUM
    bump = 0
    if c is Consistency.TRANSACTIONAL:
        bump += 1
    if p is Persistency.READ_ENFORCED:
        bump += 1
    if p is Persistency.SCOPE:
        bump += 1
    return Level(min(Level.HIGH, base + bump))


def _performance(model: DdpModel, write_opt: bool, read_opt: bool) -> Level:
    """Overall performance from the two optimization axes.  Weak
    consistency (Causal/Eventual) keeps overall performance high even
    when reads can stall, because stalls only hit reads that race a
    yet-to-persist write (paper row 7)."""
    if write_opt and (read_opt or model.consistency in (Consistency.CAUSAL,
                                                        Consistency.EVENTUAL)):
        return Level.HIGH
    if write_opt or read_opt:
        return Level.MEDIUM
    return Level.LOW


def _monotonic_reads(model: DdpModel) -> bool:
    """Eventual consistency applies updates out of order; Eventual
    persistency and Scope persistency can lose an already-read version
    in a failure, breaking monotonicity across the crash."""
    if model.consistency is Consistency.EVENTUAL:
        return False
    if model.persistency in (Persistency.EVENTUAL, Persistency.SCOPE):
        return False
    return True


def _non_stale_reads(model: DdpModel) -> bool:
    """A completed write must never be lost — the cell owes
    ``completed_writes`` in the contract table — and must be what the
    next read anywhere returns: a consistency model whose writes
    complete after full propagation (Linearizable / Transactional)."""
    return ("completed_writes" in contract_for(model).durability
            and model.consistency in (Consistency.LINEARIZABLE,
                                      Consistency.TRANSACTIONAL))


def _intuitiveness(model: DdpModel, monotonic: bool, non_stale: bool) -> Level:
    """Both properties: high.  Monotonic only: medium.  Neither: low —
    except Scope persistency, which stays intuitive because recovery is
    all-or-nothing per scope (paper rows 9-10)."""
    if model.persistency is Persistency.SCOPE:
        return Level.HIGH
    if monotonic and non_stale:
        return Level.HIGH
    if monotonic:
        return Level.MEDIUM
    return Level.LOW


def _programmability(model: DdpModel) -> Level:
    """Annotating transactions or scopes burdens the developer."""
    if (model.consistency is Consistency.TRANSACTIONAL
            or model.persistency is Persistency.SCOPE):
        return Level.LOW
    return Level.HIGH


def _implementability(model: DdpModel) -> Level:
    """Conflict detection (transactions), causal-history buffering
    (Causal), and scope tracking (Scope) complicate the runtime."""
    if (model.consistency in (Consistency.TRANSACTIONAL, Consistency.CAUSAL)
            or model.persistency is Persistency.SCOPE):
        return Level.LOW
    return Level.HIGH


def analyze(model: DdpModel) -> TradeoffProfile:
    """Derive the full trade-off profile of one DDP model."""
    write_opt = _write_optimized(model)
    read_opt = _read_optimized(model)
    monotonic = _monotonic_reads(model)
    non_stale = _non_stale_reads(model)
    return TradeoffProfile(
        model=model,
        durability=_durability(model),
        write_optimized=write_opt,
        read_optimized=read_opt,
        traffic=_traffic(model),
        performance=_performance(model, write_opt, read_opt),
        monotonic_reads=monotonic,
        non_stale_reads=non_stale,
        intuitiveness=_intuitiveness(model, monotonic, non_stale),
        programmability=_programmability(model),
        implementability=_implementability(model),
    )


TABLE4_MODELS: List[DdpModel] = [
    DdpModel(Consistency.LINEARIZABLE, Persistency.SYNCHRONOUS),
    DdpModel(Consistency.READ_ENFORCED, Persistency.SYNCHRONOUS),
    DdpModel(Consistency.TRANSACTIONAL, Persistency.SYNCHRONOUS),
    DdpModel(Consistency.CAUSAL, Persistency.SYNCHRONOUS),
    DdpModel(Consistency.EVENTUAL, Persistency.SYNCHRONOUS),
    DdpModel(Consistency.LINEARIZABLE, Persistency.READ_ENFORCED),
    DdpModel(Consistency.CAUSAL, Persistency.READ_ENFORCED),
    DdpModel(Consistency.LINEARIZABLE, Persistency.EVENTUAL),
    DdpModel(Consistency.LINEARIZABLE, Persistency.SCOPE),
    DdpModel(Consistency.TRANSACTIONAL, Persistency.SCOPE),
]
"""The ten representative rows of the paper's Table 4, in order."""


def analyze_all(models=None) -> List[TradeoffProfile]:
    """Profiles for ``models`` (default: the Table 4 ten)."""
    return [analyze(m) for m in (models or TABLE4_MODELS)]
