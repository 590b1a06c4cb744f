"""DDP model definitions: consistency x persistency (paper Section 4).

A Distributed Data Persistency (DDP) model is the binding of a data
consistency model (when an update becomes *visible* at replica nodes —
its Visibility Point, VP) with a memory persistency model (when it
becomes *durable* in NVM — its Durability Point, DP).

This module encodes Table 2 of the paper: the five consistency models,
the five persistency models, their VP/DP semantics, and the
:class:`DdpModel` pair.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Tuple

__all__ = ["Consistency", "Persistency", "DdpModel", "all_ddp_models"]


class Consistency(enum.Enum):
    """Data consistency models, strongest first (paper Table 2): the
    declaration order is the axis order, spelled nowhere else.

    The ``visibility_point`` property states, per Table 2, when an update
    becomes available for consumption at replica nodes.
    """

    LINEARIZABLE = "linearizable"
    READ_ENFORCED = "read_enforced"
    TRANSACTIONAL = "transactional"
    CAUSAL = "causal"
    EVENTUAL = "eventual"

    @property
    def visibility_point(self) -> str:
        return _VISIBILITY_POINTS[self]

    @property
    def strictness_rank(self) -> int:
        """0 = strictest.  Order follows Table 2 top-to-bottom."""
        return list(Consistency).index(self)

    @property
    def short_name(self) -> str:
        return _CONSISTENCY_SHORT[self]


class Persistency(enum.Enum):
    """Memory persistency models, strongest first (paper Table 2): the
    declaration order is the axis order, spelled nowhere else.

    The ``durability_point`` property states, per Table 2, when an
    update becomes durable (recoverable after a volatile-storage loss).
    """

    STRICT = "strict"
    SYNCHRONOUS = "synchronous"
    READ_ENFORCED = "read_enforced"
    SCOPE = "scope"
    EVENTUAL = "eventual"

    @property
    def durability_point(self) -> str:
        return _DURABILITY_POINTS[self]

    @property
    def strictness_rank(self) -> int:
        """0 = strictest.  Order follows Table 2 top-to-bottom."""
        return list(Persistency).index(self)

    @property
    def short_name(self) -> str:
        return _PERSISTENCY_SHORT[self]


_VISIBILITY_POINTS = {
    Consistency.LINEARIZABLE:
        "wrt all nodes: when the update takes place",
    Consistency.READ_ENFORCED:
        "wrt all nodes: before the update is read",
    Consistency.TRANSACTIONAL:
        "wrt all nodes: at the transaction end",
    Consistency.CAUSAL:
        "wrt a node: after the VPs wrt the same node of all the updates "
        "in the happens-before history",
    Consistency.EVENTUAL:
        "wrt a node: sometime in the future",
}

_DURABILITY_POINTS = {
    Persistency.STRICT: "when the update takes place",
    Persistency.SYNCHRONOUS: "at the visibility point of the update",
    Persistency.READ_ENFORCED: "before the update is read",
    Persistency.SCOPE: "before or at the scope end",
    Persistency.EVENTUAL: "sometime in the future",
}

_CONSISTENCY_SHORT = {
    Consistency.LINEARIZABLE: "Linear",
    Consistency.READ_ENFORCED: "Read-Enforc",
    Consistency.TRANSACTIONAL: "Xactional",
    Consistency.CAUSAL: "Causal",
    Consistency.EVENTUAL: "Eventual",
}

_PERSISTENCY_SHORT = {
    Persistency.STRICT: "Strict",
    Persistency.SYNCHRONOUS: "Synchronous",
    Persistency.READ_ENFORCED: "Read-Enforced",
    Persistency.SCOPE: "Scope",
    Persistency.EVENTUAL: "Eventual",
}


@dataclass(frozen=True)
class DdpModel:
    """A <consistency, persistency> pair — one DDP model."""

    consistency: Consistency
    persistency: Persistency

    def __str__(self) -> str:
        return (f"<{self.consistency.value.replace('_', '-').title()}, "
                f"{self.persistency.value.replace('_', '-').title()}>")

    @property
    def key(self) -> Tuple[str, str]:
        return (self.consistency.value, self.persistency.value)

    @property
    def is_baseline(self) -> bool:
        """<Linearizable, Synchronous>: the normalization baseline in the
        paper's evaluation (Figures 6-9)."""
        return (self.consistency is Consistency.LINEARIZABLE
                and self.persistency is Persistency.SYNCHRONOUS)


def all_ddp_models() -> List[DdpModel]:
    """All 25 <consistency, persistency> combinations, in Table 2 order."""
    return [DdpModel(c, p) for c in Consistency for p in Persistency]
