"""Per-update journey tracking: one record that follows a write end to end.

The paper's framework is built on two per-update instants — the
Visibility Point and the Durability Point.  This module records *when*
and *how* each is reached: a :class:`JourneyTracker` is a
tracer-interface sink (plug it into an engine's ``tracer``, alone or
via a :class:`~repro.obs.fanout.FanoutTracer`) that stitches the
engine's existing emissions into one :class:`UpdateJourney` per write:

* client issue and coordinator handling (``write_issue`` with its
  ``start``/``stall_ns``/forwarding details),
* per-replica INV/UPD send and receive times (``msg_send`` /
  ``msg_recv``, correlated by ``(key, version)`` and ``op_id``),
* ACK / ACK_p arrival and VAL / VAL_p broadcast times,
* per-replica apply (VP contribution) and persist (DP contribution)
  instants from the replica observer,
* persist enqueue (``persist_issue`` with its *trigger* — what placed
  the persist: inline, eager, lazy, scope end, ENDX, or strict),
* NVM device service time of the completing media write
  (``nvm_persist`` spans, matched by node/address/end-time), and
* causal buffering waits (``causal_buffered`` / ``causal_released``).

:mod:`repro.analysis.waterfall` turns journeys into critical-path
decompositions (network / coordination-wait / NVM-queue / device /
compute buckets that sum to the end-to-end VP and DP latency),
aggregates them into waterfall reports, and derives the run report's
VP/DP ``lag`` section from them.

Like every sink, the tracker is passive: it never changes the
simulation, and a run with it attached is byte-identical to one
without (asserted in ``tests/obs/test_tracing_equivalence.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["UpdateJourney", "JourneyTracker"]

Version = Tuple[int, int]

_INV_LIKE = ("INV", "UPD")
_ACK_C_LIKE = ("ACK", "ACK_C")


@dataclass
class UpdateJourney:
    """Everything observed about one write ``(key, version)``."""

    key: int
    version: Version
    coordinator: int
    client_issue_ns: float
    """When the write entered the coordinator (before request
    processing, stalls, and — under the leader variant — including the
    forwarding hop)."""
    issue_ns: float
    """When the coordinator allocated the version (the instant
    VP/DP lags are traditionally measured from)."""
    stall_ns: float = 0.0
    """Coordinator write-stall on an outstanding invalidation."""
    fwd_net_ns: float = 0.0
    """Leader variant: forward-hop wire time (origin -> leader)."""
    fwd_wait_ns: float = 0.0
    """Leader variant: wait for a leader request worker."""
    complete_ns: Optional[float] = None
    """When the client write returned (the model's completion point)."""
    op_id: Optional[int] = None
    sends: Dict[int, float] = field(default_factory=dict)
    """dst node -> INV/UPD injection time at the coordinator."""
    lazy_dsts: frozenset = frozenset()
    recvs: Dict[int, float] = field(default_factory=dict)
    """node -> INV/UPD arrival time (``msg_recv``)."""
    applies: Dict[int, float] = field(default_factory=dict)
    """node -> volatile apply time (this node's VP contribution)."""
    acks: Dict[int, float] = field(default_factory=dict)
    """follower -> ACK/ACK_c arrival back at the coordinator."""
    ack_ps: Dict[int, float] = field(default_factory=dict)
    """follower -> ACK_p arrival back at the coordinator."""
    val_ns: Optional[float] = None
    """VAL/VAL_c broadcast time (transient state cleared)."""
    val_p_ns: Optional[float] = None
    """VAL_p broadcast time (cluster durability announced)."""
    persist_issues: Dict[int, float] = field(default_factory=dict)
    """node -> persist enqueue time."""
    persist_triggers: Dict[int, str] = field(default_factory=dict)
    """node -> what placed the persist (inline/eager/lazy/scope/endx/strict)."""
    persists: Dict[int, float] = field(default_factory=dict)
    """node -> durable time (this node's DP contribution)."""
    device_ns: Dict[int, float] = field(default_factory=dict)
    """node -> media service time of the completing NVM write."""
    buffer_wait_ns: Dict[int, float] = field(default_factory=dict)
    """node -> causal-buffering wait before this update could apply."""

    # -- derived -----------------------------------------------------------

    def vp_ns(self, num_nodes: int) -> Optional[float]:
        """End-to-end visibility latency (client issue -> applied at all
        ``num_nodes`` replicas), or None while incomplete."""
        if len(self.applies) < num_nodes:
            return None
        return max(self.applies.values()) - self.client_issue_ns

    def dp_ns(self, num_nodes: int) -> Optional[float]:
        """End-to-end durability latency (client issue -> persisted at
        all ``num_nodes`` replicas), or None while incomplete.  Writes
        whose NVM traffic was absorbed by write combining at some node
        never complete (the newer version's journey carries the DP)."""
        if len(self.persists) < num_nodes:
            return None
        return max(self.persists.values()) - self.client_issue_ns

    @property
    def vp_node(self) -> Optional[int]:
        """The replica that reached visibility last (the VP critical
        path runs through it)."""
        if not self.applies:
            return None
        return max(self.applies, key=lambda n: (self.applies[n], n))

    @property
    def dp_node(self) -> Optional[int]:
        if not self.persists:
            return None
        return max(self.persists, key=lambda n: (self.persists[n], n))


class JourneyTracker:
    """A tracer sink that assembles :class:`UpdateJourney` records.

    Every issued write is tracked.
    """

    enabled = True
    dropped = 0
    """The tracker keeps every journey; the run report, the waterfall
    and the health monitor read this count as they read a tracer's."""

    def __init__(self, num_nodes: int):
        self.num_nodes = num_nodes
        self._journeys: Dict[Tuple[int, Version], UpdateJourney] = {}
        self._by_op: Dict[int, Tuple[int, Version]] = {}
        # (node, address) -> (end time, service ns) of the last NVM
        # persist span, matched against the durability instant.
        self._nvm_spans: Dict[Tuple[int, int], Tuple[float, float]] = {}
        # (node, key, version) -> buffered-at time for causal waits.
        self._buffered: Dict[Tuple[int, int, Version], float] = {}

    # -- tracer interface --------------------------------------------------

    def emit(self, time: float, category: str, node: Optional[int] = None,
             **details: Any) -> None:
        handler = _HANDLERS.get(category)
        if handler is not None:
            handler(self, time, node, details)

    # -- category handlers -------------------------------------------------

    def _on_write_issue(self, time, node, details) -> None:
        jkey = (details["key"], details["version"])
        self._journeys.setdefault(jkey, UpdateJourney(
            key=details["key"], version=details["version"], coordinator=node,
            client_issue_ns=details.get("start", time), issue_ns=time,
            stall_ns=details.get("stall_ns", 0.0),
            fwd_net_ns=details.get("fwd_net_ns", 0.0),
            fwd_wait_ns=details.get("fwd_wait_ns", 0.0)))

    def _journey_for(self, details) -> Optional[UpdateJourney]:
        version = details.get("version")
        if version is not None and details.get("key") is not None:
            journey = self._journeys.get((details["key"], version))
            if journey is not None:
                return journey
        op_id = details.get("op_id")
        if op_id is not None:
            jkey = self._by_op.get(op_id)
            if jkey is not None:
                return self._journeys.get(jkey)
        return None

    def _on_msg_send(self, time, node, details) -> None:
        journey = self._journey_for(details)
        if journey is None:
            return
        msg = details.get("msg")
        if msg in _INV_LIKE and node == journey.coordinator:
            dst = details.get("dst")
            if dst is not None and dst not in journey.sends:
                journey.sends[dst] = time
                # Chain propagation (the sequential-visit ablation) defers
                # each send behind the previous delivery — a coordination
                # choice, bucketed like a lazy delay.
                if details.get("lazy") or details.get("chain"):
                    journey.lazy_dsts = journey.lazy_dsts | {dst}
            if details.get("op_id") is not None and journey.op_id is None:
                journey.op_id = details["op_id"]
                self._by_op[details["op_id"]] = (journey.key, journey.version)
        elif msg in ("VAL", "VAL_C") and journey.val_ns is None:
            journey.val_ns = time
        elif msg == "VAL_P" and journey.val_p_ns is None:
            journey.val_p_ns = time

    def _on_msg_recv(self, time, node, details) -> None:
        journey = self._journey_for(details)
        if journey is None:
            return
        msg = details.get("msg")
        if msg in _INV_LIKE:
            journey.recvs.setdefault(node, time)
        elif msg in _ACK_C_LIKE and node == journey.coordinator:
            src = details.get("src")
            if src is not None:
                journey.acks.setdefault(src, time)
        elif msg == "ACK_P" and node == journey.coordinator:
            src = details.get("src")
            if src is not None:
                journey.ack_ps.setdefault(src, time)

    def _on_apply(self, time, node, details) -> None:
        journey = self._journeys.get((details["key"], details["version"]))
        if journey is not None:
            journey.applies.setdefault(node, time)

    def _on_persist_issue(self, time, node, details) -> None:
        journey = self._journeys.get((details["key"], details["version"]))
        if journey is not None and node not in journey.persist_issues:
            journey.persist_issues[node] = time
            journey.persist_triggers[node] = details.get("trigger", "inline")

    def _on_nvm_persist(self, time, node, details) -> None:
        address = details.get("address")
        if address is not None:
            self._nvm_spans[(node, address)] = (
                time, details.get("service_ns", 0.0))

    def _on_persist(self, time, node, details) -> None:
        journey = self._journeys.get((details["key"], details["version"]))
        if journey is None or node in journey.persists:
            return
        journey.persists[node] = time
        span = self._nvm_spans.get((node, journey.key))
        if span is not None and span[0] == time:
            journey.device_ns[node] = span[1]

    def _on_causal_buffered(self, time, node, details) -> None:
        version = details.get("version")
        if version is not None:
            self._buffered.setdefault((node, details["key"], version), time)

    def _on_causal_released(self, time, node, details) -> None:
        version = details.get("version")
        if version is None:
            return
        buffered_at = self._buffered.pop((node, details["key"], version), None)
        if buffered_at is None:
            return
        journey = self._journeys.get((details["key"], version))
        if journey is not None:
            journey.buffer_wait_ns[node] = (
                journey.buffer_wait_ns.get(node, 0.0) + time - buffered_at)

    def _on_write_complete(self, time, node, details) -> None:
        journey = self._journeys.get((details["key"], details["version"]))
        if journey is not None and journey.complete_ns is None:
            journey.complete_ns = time

    # -- access ------------------------------------------------------------

    @property
    def journeys(self) -> List[UpdateJourney]:
        return list(self._journeys.values())

    def get(self, key: int, version: Version) -> Optional[UpdateJourney]:
        return self._journeys.get((key, version))

    def __len__(self) -> int:
        return len(self._journeys)


_HANDLERS = {
    "write_issue": JourneyTracker._on_write_issue,
    "msg_send": JourneyTracker._on_msg_send,
    "msg_recv": JourneyTracker._on_msg_recv,
    "apply": JourneyTracker._on_apply,
    "persist_issue": JourneyTracker._on_persist_issue,
    "nvm_persist": JourneyTracker._on_nvm_persist,
    "persist": JourneyTracker._on_persist,
    "causal_buffered": JourneyTracker._on_causal_buffered,
    "causal_released": JourneyTracker._on_causal_released,
    "write_complete": JourneyTracker._on_write_complete,
}
