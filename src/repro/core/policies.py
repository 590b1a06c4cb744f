"""Behavioral policies for consistency and persistency models.

The protocol engine (:mod:`repro.core.engine`) is one parameterized
state machine; these policy objects encode how each of the paper's
models shapes it (Sections 4-5):

Consistency policies decide *message flow* (invalidation rounds vs lazy
updates), *write completion* (when the client is acknowledged with
respect to replica visibility), and *read visibility stalls*.

Persistency policies decide *write completion with respect to
durability* (Strict stalls writes until persisted everywhere) and *read
durability stalls* (Read-Enforced persistency stalls reads; Synchronous
makes reads return the persisted version).  *When persists happen*
(before the acknowledgment, eagerly behind it, lazily, or at scope ends)
is the placement table, :func:`placement`.
"""

from __future__ import annotations

from dataclasses import dataclass

from typing import Optional

from repro.core.model import Consistency, DdpModel, Persistency

__all__ = [
    "ConsistencyPolicy",
    "PersistencyPolicy",
    "policy_for",
    "placement",
    "ACK_AFTER_PERSIST",
    "CONSISTENCY_POLICIES",
    "PERSISTENCY_POLICIES",
]


@dataclass(frozen=True)
class ConsistencyPolicy:
    """How a consistency model shapes the protocol."""

    model: Consistency
    uses_inv: bool
    """INV/ACK/VAL rounds (Linearizable, Read-Enforced, Transactional)
    versus lazy UPD propagation (Causal, Eventual)."""

    write_waits_for_acks: bool
    """Client write completion waits for all follower ACKs (Linearizable
    only; Read-Enforced/Transactional complete after the local update and
    broadcast)."""

    read_stalls_on_transient: bool
    """Reads stall while the key has un-VALidated invalidations
    (Linearizable and Read-Enforced consistency)."""

    write_stalls_on_transient: bool
    """A new write to a transient key waits for the outstanding write to
    validate first (serializing conflicting writers, as the Hermes-style
    coordinator cannot process another request for the key mid-write)."""

    transactional: bool = False
    causal: bool = False
    lazy_propagation: bool = False
    """Eventual consistency: UPDs are sent after a lazy delay."""


@dataclass(frozen=True)
class PersistencyPolicy:
    """How a persistency model shapes the protocol."""

    model: Persistency

    write_waits_for_persist_everywhere: bool
    """Strict: the client write does not complete until the update is
    durable in the NVM of every replica node."""

    read_requires_applied_persisted: bool
    """Read-Enforced persistency: a read stalls until the latest visible
    version of the key is persisted (cluster-wide where the protocol has
    that information, i.e. VAL_p under invalidation-based consistency;
    locally under Causal/Eventual, where no global signal exists)."""

    read_returns_persisted: bool
    """Synchronous persistency under weak consistency: reads return the
    latest *persisted* version so that every read value is recoverable
    (paper Figure 2(f))."""

    dual_acks: bool
    """Decouple ACK_c from ACK_p (Read-Enforced persistency under
    invalidation-based consistency, paper Figure 3(a))."""

    deps_require_persist: bool
    """Causal consistency: a buffered update's dependency counts as
    satisfied only once the dependency is persisted (Synchronous), not
    merely applied."""

    @property
    def scoped(self) -> bool:
        """Scope persistency: writes are tagged with the client's open
        scope and persist at its Persist call."""
        return self.model is Persistency.SCOPE


CONSISTENCY_POLICIES = {
    Consistency.LINEARIZABLE: ConsistencyPolicy(
        model=Consistency.LINEARIZABLE,
        uses_inv=True,
        write_waits_for_acks=True,
        read_stalls_on_transient=True,
        write_stalls_on_transient=True,
    ),
    Consistency.READ_ENFORCED: ConsistencyPolicy(
        model=Consistency.READ_ENFORCED,
        uses_inv=True,
        write_waits_for_acks=False,
        read_stalls_on_transient=True,
        write_stalls_on_transient=True,
    ),
    Consistency.TRANSACTIONAL: ConsistencyPolicy(
        model=Consistency.TRANSACTIONAL,
        uses_inv=True,
        write_waits_for_acks=False,
        read_stalls_on_transient=False,
        write_stalls_on_transient=False,
        transactional=True,
    ),
    Consistency.CAUSAL: ConsistencyPolicy(
        model=Consistency.CAUSAL,
        uses_inv=False,
        write_waits_for_acks=False,
        read_stalls_on_transient=False,
        write_stalls_on_transient=False,
        causal=True,
    ),
    Consistency.EVENTUAL: ConsistencyPolicy(
        model=Consistency.EVENTUAL,
        uses_inv=False,
        write_waits_for_acks=False,
        read_stalls_on_transient=False,
        write_stalls_on_transient=False,
        lazy_propagation=True,
    ),
}


PERSISTENCY_POLICIES = {
    Persistency.STRICT: PersistencyPolicy(
        model=Persistency.STRICT,
        write_waits_for_persist_everywhere=True,
        read_requires_applied_persisted=False,
        read_returns_persisted=False,
        dual_acks=False,
        deps_require_persist=True,
    ),
    Persistency.SYNCHRONOUS: PersistencyPolicy(
        model=Persistency.SYNCHRONOUS,
        write_waits_for_persist_everywhere=False,
        read_requires_applied_persisted=False,
        read_returns_persisted=True,
        dual_acks=False,
        deps_require_persist=True,
    ),
    Persistency.READ_ENFORCED: PersistencyPolicy(
        model=Persistency.READ_ENFORCED,
        write_waits_for_persist_everywhere=False,
        read_requires_applied_persisted=True,
        read_returns_persisted=False,
        dual_acks=True,
        deps_require_persist=False,
    ),
    Persistency.SCOPE: PersistencyPolicy(
        model=Persistency.SCOPE,
        write_waits_for_persist_everywhere=False,
        read_requires_applied_persisted=False,
        read_returns_persisted=False,
        dual_acks=False,
        deps_require_persist=False,
    ),
    Persistency.EVENTUAL: PersistencyPolicy(
        model=Persistency.EVENTUAL,
        write_waits_for_persist_everywhere=False,
        read_requires_applied_persisted=False,
        read_returns_persisted=False,
        dual_acks=False,
        deps_require_persist=False,
    ),
}


#: The placement table — what places a write's local persist, as the
#: ``trigger`` its ``persist_issue`` record carries — per persistency
#: model: (plain write, write inside a transaction).  ``None``: nothing
#: is placed with the write itself.
_PLACEMENT = {
    Persistency.STRICT: ("strict", "strict"),
    Persistency.SYNCHRONOUS: ("inline", None),  # a transaction's ride its ENDX
    Persistency.READ_ENFORCED: ("eager", "eager"),
    Persistency.SCOPE: (None, None),  # the scope's Persist call
    Persistency.EVENTUAL: ("lazy", "lazy"),
}

#: Placements whose persist finishes before the acknowledgment the write
#: is owed: a follower's ACK, the coordinator's VAL.  The others persist
#: behind it (``eager`` then sends its own ACK_p, ``lazy`` waits out
#: ``lazy_persist_delay_ns`` first).
ACK_AFTER_PERSIST = ("strict", "inline")


def placement(model: DdpModel, in_txn: bool = False,
              follower: bool = False) -> Optional[str]:
    """What places the local persist of one write under ``model``: at
    the coordinator once the INV/UPD is out, at a ``follower`` once the
    payload is deposited.  The one place this is decided; Figures 2-5
    differ only in where this persist sits relative to the round."""
    cpolicy, ppolicy = policy_for(model)
    if (follower and not cpolicy.uses_inv
            and ppolicy.write_waits_for_persist_everywhere):
        # A Strict UPD persists on receipt (durability does not wait for
        # visibility order): by the deposit nothing is left to place.
        return None
    return _PLACEMENT[model.persistency][in_txn]


def policy_for(model: DdpModel):
    """Return the ``(ConsistencyPolicy, PersistencyPolicy)`` pair."""
    return (CONSISTENCY_POLICIES[model.consistency],
            PERSISTENCY_POLICIES[model.persistency])
