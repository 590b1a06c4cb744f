"""Cluster membership view for fault-tolerant protocol rounds.

Hermes-style protocols handle failures through *membership*: a crashed
replica is removed from the live set, an epoch counter advances, and
every in-flight coordination round re-evaluates itself against the new
replica set (Katsarakis et al., see PAPERS.md).  This module is that
view, deliberately minimal:

* ``live`` — the node ids currently believed alive;
* ``epoch`` — bumped on every change (the faults report reads it);
* subscriptions — engines register a callback and are notified of each
  crash in deterministic (node-id) order.  A join notifies nobody: a
  restarted node settles with its peers itself
  (:mod:`repro.recovery.lifecycle`).

A :class:`Membership` only exists when fault injection is configured
(see :mod:`repro.faults`); failure-free clusters pass ``None`` and the
engines keep their exact seed behavior — no timeouts are armed and no
epoch bookkeeping happens.

Detection is modeled, not implemented: the fault injector marks a node
crashed after a configurable detection delay, standing in for the lease
/ heartbeat machinery a real deployment would run.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Set, Tuple

__all__ = ["Membership"]

# Callback signature: (crashed node_id,).
CrashCallback = Callable[[int], None]


class Membership:
    """The live replica set, with epoching and change notification."""

    def __init__(self, node_ids: Iterable[int]):
        self.all_nodes: Tuple[int, ...] = tuple(sorted(node_ids))
        self.live: Set[int] = set(self.all_nodes)
        self.epoch = 0
        #: True when the active fault plan can lose or reorder messages
        #: (drops / partitions / duplication).  Coordinators arm round
        #: watchdogs, which resend on timeout, only in lossy mode; a
        #: crash is settled when it is detected.
        self.lossy = False
        self.crashes = 0
        self.joins = 0
        # (node_id, callback), notified in node-id order on each crash.
        self._subscribers: List[Tuple[int, CrashCallback]] = []

    def subscribe(self, node_id: int, callback: CrashCallback) -> None:
        """Register an engine's crash callback (one per node)."""
        self._subscribers.append((node_id, callback))
        self._subscribers.sort(key=lambda pair: pair[0])

    def mark_crashed(self, node_id: int) -> None:
        """Remove a node from the live set and notify (idempotent)."""
        if node_id not in self.live:
            return
        self.live.discard(node_id)
        self.epoch += 1
        self.crashes += 1
        for _subscriber_id, callback in self._subscribers:
            callback(node_id)

    def mark_joined(self, node_id: int) -> None:
        """Re-admit a recovered node (idempotent); notifies nobody."""
        if node_id in self.live:
            return
        self.live.add(node_id)
        self.epoch += 1
        self.joins += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Membership(live={sorted(self.live)}, "
                f"epoch={self.epoch})")
