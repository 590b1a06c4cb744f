"""The deterministic fault injector.

:class:`FaultInjector` turns a :class:`~repro.faults.plan.FaultPlan`
into scheduled simulation callbacks (crash / restart / window edges) and
an in-line network verdict hook (drop / delay / duplicate / partition).
Every decision is driven by the simulation clock and one
:class:`~repro.sim.rng.SeededStream` forked from the plan seed, so the
same plan on the same workload seed replays byte-identically — and an
injector with an *empty* plan schedules nothing, draws nothing, and
leaves the run byte-identical to an uninjected one (the
:class:`~repro.obs.monitor.HealthMonitor` attachment discipline).

Crash handling follows the paper's Section 8 assumption of
membership-based (Hermes-style) failure handling: the crash ends the
node's incarnation; ``detection_delay_ns`` later the membership epoch
bumps, protocol rounds retarget against the survivors, and the dead
coordinator's open transactions are abandoned.  A planned restart
(:meth:`~repro.cluster.cluster.Cluster.restart_node`) rebuilds the
node's volatile state from its own NVM image and rejoins the membership
at once, as a shadow replica that takes and ACKs INV/UPD traffic; its
clients reconnect once it has scanned that image and caught up from its
live peers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.faults.plan import MESSAGE_KINDS, FaultEvent, FaultPlan
from repro.sim.rng import SeededStream
from repro.sim.trace import NullTracer

__all__ = ["NetVerdict", "FaultInjector", "faults_json"]

MAX_RECORDS = 4096
"""Lifecycle records an injector keeps; later ones are counted in
``records_dropped``."""


@dataclass(frozen=True)
class NetVerdict:
    """Per-message outcome handed to :class:`repro.net.network.Network`."""

    drop: bool = False
    delay_ns: float = 0.0
    copies: int = 1


class FaultInjector:
    """Schedules a fault plan onto one cluster.

    Single-use: ``attach`` binds the injector to a cluster built with
    ``faults=`` (which gives it a :class:`~repro.core.membership.Membership`
    to drive) and may be called once.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._cluster = None
        self._sim = None
        self._membership = None
        self._tracer = NullTracer()
        self._random = None
        self._message_events: tuple = ()
        self.resolved_events: tuple = ()
        # Lifecycle record log (bounded by MAX_RECORDS).
        self.records: List[Dict[str, Any]] = []
        self.records_dropped = 0
        self.crashes = 0
        self.detections = 0
        self.restarts = 0
        self.txns_abandoned = 0
        self.nvm_slow_windows = 0
        self.ops_severed = 0

    def __len__(self) -> int:
        return len(self.records)

    # ------------------------------------------------------------------
    # attachment
    # ------------------------------------------------------------------

    def attach(self, cluster) -> None:
        """Bind to ``cluster`` and schedule every planned event."""
        if self._cluster is not None:
            raise RuntimeError("FaultInjector is single-use; already attached")
        if cluster.membership is None:
            raise RuntimeError(
                "cluster was built without membership; pass faults= to "
                "Cluster so nodes are wired for fault tolerance")
        self._cluster = cluster
        self._sim = cluster.sim
        self._membership = cluster.membership
        if cluster.tracer is not None:
            self._tracer = cluster.tracer
        rng = SeededStream(self.plan.seed)
        # Asked for here, so the generator is seeded at attach, not on
        # the first lossy message inside the run.
        self._random = rng.random
        self._membership.lossy = self.plan.lossy
        node_ids = list(self._membership.all_nodes)
        # Seeded picks, resolved once at attach so the report can echo
        # the concrete targets.
        resolved = self.plan.resolved(node_ids, rng.choice).events
        for event in resolved:
            self.validate_target(event, node_ids)
            self._schedule(event)
        self.resolved_events = resolved
        self._message_events = tuple(
            e for e in resolved if e.kind in MESSAGE_KINDS)
        if self._message_events:
            # Install the per-message hook only when the plan can touch
            # messages: crash-only plans leave the network object exactly
            # as a fault-free run has it.
            cluster.network.faults = self

    @staticmethod
    def validate_target(event: FaultEvent, node_ids: List[int]) -> None:
        targets = []
        if event.node is not None:
            targets.append(event.node)
        if event.groups is not None:
            targets.extend(n for group in event.groups for n in group)
        if event.src is not None:
            targets.append(event.src)
        if event.dst is not None:
            targets.append(event.dst)
        for node in targets:
            if node not in node_ids:
                raise ValueError(
                    f"fault plan targets node {node}, but the cluster has "
                    f"nodes {node_ids}")

    def _schedule(self, event: FaultEvent) -> None:
        if event.kind == "crash":
            self._sim.call_at(event.at_ns, lambda: self._crash(event))
            return
        if event.kind == "nvm_slow":
            self._sim.call_at(event.at_ns, lambda: self._nvm_slow(event, True))
            self._sim.call_at(event.until_ns,
                              lambda: self._nvm_slow(event, False))
            return
        # Message-fault windows act through on_message; the scheduled
        # edges only mark the timeline (trace + record).
        self._sim.call_at(event.at_ns, lambda: self._window_edge(event, True))
        self._sim.call_at(event.until_ns,
                          lambda: self._window_edge(event, False))

    # ------------------------------------------------------------------
    # lifecycle events
    # ------------------------------------------------------------------

    def _record(self, kind: str, **detail: Any) -> None:
        if len(self.records) >= MAX_RECORDS:
            self.records_dropped += 1
            return
        entry = {"t_us": self._sim.now / 1000.0, "kind": kind}
        entry.update(detail)
        self.records.append(entry)

    def _emit(self, kind: str, node: Optional[int] = None,
              **detail: Any) -> None:
        if self._tracer.enabled:
            self._tracer.emit(self._sim.now, "fault", node=node,
                              fault=kind, **detail)

    def _crash(self, event: FaultEvent) -> None:
        node_id = event.node
        self.crashes += 1
        severed = self._cluster.fail_node(node_id)
        # Operations cut off mid-flight used to vanish from the books;
        # they are counted here (and recorded as pending in the
        # operation history, when one is attached): each may or may not
        # have taken effect.
        self.ops_severed += severed
        self._record("crash", node=node_id, ops_severed=severed)
        self._emit("crash", node=node_id, ops_severed=severed)
        self._sim.call_at(self._sim.now + self.plan.detection_delay_ns,
                          lambda: self._detect(node_id))
        if event.restart_after_ns is not None:
            self._sim.call_at(event.at_ns + event.restart_after_ns,
                              lambda: self._restart(node_id))

    def _detect(self, node_id: int) -> None:
        # A planned restart may beat a slow detector; marking a node that
        # already rebooted as crashed would wedge the membership, so the
        # detection is suppressed (the failure "blinked" below the
        # detector's resolution, as on real membership services).
        if self._cluster.nodes[node_id].engine.alive:
            return
        self.detections += 1
        self._membership.mark_crashed(node_id)
        doomed = self._cluster.txn_table.abandon_node(node_id)
        self.txns_abandoned += len(doomed)
        self._record("detect", node=node_id,
                     epoch=self._membership.epoch,
                     txns_abandoned=len(doomed))
        self._emit("detect", node=node_id, epoch=self._membership.epoch)

    def _restart(self, node_id: int) -> None:
        self.restarts += 1
        self._cluster.restart_node(node_id)
        self._membership.mark_joined(node_id)
        self._record("restart", node=node_id, epoch=self._membership.epoch)
        self._emit("restart", node=node_id, epoch=self._membership.epoch)

    def _nvm_slow(self, event: FaultEvent, starting: bool) -> None:
        node = self._cluster.nodes[event.node]
        if starting:
            self.nvm_slow_windows += 1
            node.memory.nvm.slowdown = event.factor
        else:
            node.memory.nvm.slowdown = 1.0
        kind = "nvm_slow" if starting else "nvm_slow_end"
        self._record(kind, node=event.node, factor=event.factor)
        self._emit(kind, node=event.node, factor=event.factor)

    def _window_edge(self, event: FaultEvent, starting: bool) -> None:
        kind = event.kind if starting else f"{event.kind}_end"
        detail: Dict[str, Any] = {}
        if event.groups is not None:
            detail["groups"] = [list(g) for g in event.groups]
        else:
            detail["probability"] = event.probability
        self._record(kind, **detail)
        self._emit(kind, **detail)

    # ------------------------------------------------------------------
    # network hook
    # ------------------------------------------------------------------

    def on_message(self, src: int, dst: int, message: Any,
                   size_bytes: int) -> Optional[NetVerdict]:
        """Evaluate every active message-fault window for one send.

        Called by :meth:`repro.net.network.Network.send`.  Probability
        draws happen for every matching window regardless of earlier
        verdicts, keeping the stream consumption (and so the rest of the
        run) independent of evaluation short-circuits.
        """
        now = self._sim.now
        drop = False
        delay_ns = 0.0
        copies = 1
        for event in self._message_events:
            if now < event.at_ns or now >= event.until_ns:
                continue
            if event.kind == "partition":
                if self._crosses_partition(event, src, dst):
                    drop = True
                continue
            if event.src is not None and event.src != src:
                continue
            if event.dst is not None and event.dst != dst:
                continue
            hit = (event.probability >= 1.0
                   or self._random() < event.probability)
            if not hit:
                continue
            if event.kind == "drop":
                drop = True
            elif event.kind == "delay":
                delay_ns += event.extra_ns
            elif event.kind == "duplicate":
                copies += 1
        if not drop and delay_ns == 0.0 and copies == 1:
            return None
        return NetVerdict(drop=drop, delay_ns=delay_ns, copies=copies)

    @staticmethod
    def _crosses_partition(event: FaultEvent, src: int, dst: int) -> bool:
        src_group = dst_group = None
        for index, group in enumerate(event.groups):
            if src in group:
                src_group = index
            if dst in group:
                dst_group = index
        # Nodes outside every group are unaffected (reachable by all).
        if src_group is None or dst_group is None:
            return False
        return src_group != dst_group


def faults_json(injector: FaultInjector) -> Dict[str, Any]:
    """Build the ``faults`` section of a ``repro.run_report/6`` document."""
    cluster = injector._cluster
    membership = injector._membership
    network = cluster.network if cluster is not None else None
    rounds = {"resends": 0, "retargeted": 0, "orphans_absorbed": 0}
    if cluster is not None:
        for engine in cluster.engines:
            rounds["resends"] += engine.round_resends
            rounds["retargeted"] += engine.rounds_retargeted
            rounds["orphans_absorbed"] += engine.orphans_absorbed
    section: Dict[str, Any] = {
        "plan": injector.plan.to_json(),
        "injected": {
            "crashes": injector.crashes,
            "detections": injector.detections,
            "restarts": injector.restarts,
            "txns_abandoned": injector.txns_abandoned,
            "ops_severed": injector.ops_severed,
            "nvm_slow_windows": injector.nvm_slow_windows,
            "messages_dropped": (network.dropped_messages
                                 if network is not None else 0),
            "messages_delayed": (network.delayed_messages
                                 if network is not None else 0),
            "messages_duplicated": (network.duplicated_messages
                                    if network is not None else 0),
        },
        "rounds": rounds,
        "events": list(injector.records),
        "events_dropped": injector.records_dropped,
    }
    if membership is not None:
        section["membership"] = {
            "epoch": membership.epoch,
            "live": sorted(membership.live),
            "crashes": membership.crashes,
            "joins": membership.joins,
        }
    return section
