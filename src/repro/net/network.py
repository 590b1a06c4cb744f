"""Network fabric and NIC models.

The paper models (Table 5): 1 us NIC-to-NIC round trip, 200 Gb/s links,
and NICs with up to 400 queue pairs.  We model:

* :class:`NetworkConfig` — latency/bandwidth/queue-pair parameters.
* :class:`Nic` — per-node endpoint; outgoing messages serialize onto the
  link at the configured bandwidth and occupy a queue pair while they
  do; incoming messages are counted and handed to the node's sink — its
  protocol engine, or by default an inbox (DDIO is charged in the memory
  model, by the node).
* :class:`Network` — the all-to-all fabric connecting NICs, adding the
  propagation latency (half the configured round trip per direction).
  :meth:`Network.send` takes one destination or a broadcast's whole
  target list (one frame).

Messages are opaque to this layer; it only needs ``size_bytes``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from repro.sim.engine import Event, Simulator
from repro.sim.sync import AdmissionPool, Store
from repro.sim.trace import NullTracer

__all__ = ["NetworkConfig", "Nic", "Network"]


@dataclass(frozen=True)
class NetworkConfig:
    """Fabric parameters (defaults = paper Table 5)."""

    round_trip_ns: float = 1000.0
    bandwidth_bytes_per_ns: float = 25.0  # 200 Gb/s = 25 GB/s
    queue_pairs: int = 400

    @property
    def one_way_ns(self) -> float:
        return self.round_trip_ns / 2.0


class Nic:
    """One node's network interface.

    Sending holds a queue pair for the serialization time; the in-flight
    propagation does not hold the queue pair (the fabric pipelines), so
    queue pairs only throttle injection rate, as on real hardware.  The
    hold is known on injection, so admission is closed-form
    (:class:`~repro.sim.sync.AdmissionPool`), not a process.

    Arrivals go to ``sink``, a plain callable taking the message.  It
    defaults to the inbox (read with :meth:`receive`); a protocol engine
    installs its own arrival handler instead.

    ``incarnation`` is the node's incarnation token, ``None`` while it
    is down (:mod:`repro.recovery.lifecycle`): then it sends nothing.
    """

    def __init__(self, sim: Simulator, node_id: int, config: NetworkConfig):
        self.sim = sim
        self.node_id = node_id
        self.config = config
        self.queue_pairs = AdmissionPool(sim, config.queue_pairs,
                                         name=f"nic{node_id}.qp")
        self.inbox: Store = Store(sim, name=f"nic{node_id}.inbox")
        self.sink: Callable[[Any], None] = self.inbox.put
        self.incarnation: Optional[object] = object()
        self.bytes_sent = 0
        self.bytes_received = 0
        self.messages_sent = 0
        self.messages_received = 0

    def serialization_ns(self, size_bytes: int) -> float:
        return size_bytes / self.config.bandwidth_bytes_per_ns

    def receive(self) -> Event:
        """Event yielding the next inbound message (default sink only)."""
        event = self.inbox.get()
        event.kind = "msg_delivery"
        return event


class Network:
    """All-to-all fabric.  ``send`` is fire-and-forget (like a NIC
    doorbell); a sender that wants to know about *remote delivery*
    hands in the event to trigger then.  There are no one-sided verbs:
    the SNIA write-persist semantics (a completion that means "durable
    at the remote node") are carried by the protocol's own message path,
    INV -> persist -> ACK_p, in :mod:`repro.core.engine`.
    """

    def __init__(self, sim: Simulator, config: Optional[NetworkConfig] = None,
                 one_way_fn: Optional[Callable[[int, int], float]] = None,
                 tracer=None):
        self.sim = sim
        self.config = config or NetworkConfig()
        self.tracer = tracer if tracer is not None else NullTracer()
        # Read per send; the config is frozen, so read here once.
        self._one_way_ns = self.config.one_way_ns
        self._bytes_per_ns = self.config.bandwidth_bytes_per_ns
        self._nics: Dict[int, Nic] = {}
        self.total_messages = 0
        self.total_bytes = 0
        # Optional per-pair propagation delay (ns) — used by hybrid
        # multi-datacenter topologies; defaults to the uniform fabric.
        self.one_way_fn = one_way_fn
        # The one interposition point (duck-typed, see
        # repro.faults.FaultInjector):
        # ``faults.on_message(src, dst, message, size_bytes)`` returns
        # None for "deliver normally" or an object with ``drop`` (bool),
        # ``delay_ns`` (float, extra propagation latency) and ``copies``
        # (int >= 1, message duplication) attributes.  Kept duck-typed so
        # this layer does not depend on the faults package.
        self.faults = None
        self.dropped_messages = 0
        self.delayed_messages = 0
        self.duplicated_messages = 0

    def attach(self, node_id: int) -> Nic:
        """Create and register the NIC for ``node_id``."""
        if node_id in self._nics:
            raise ValueError(f"node {node_id} already attached")
        nic = Nic(self.sim, node_id, self.config)
        self._nics[node_id] = nic
        return nic

    def nic(self, node_id: int) -> Nic:
        return self._nics[node_id]

    @property
    def node_ids(self) -> List[int]:
        return sorted(self._nics)

    def send(self, src: int, dst: Union[int, Sequence[int]], message: Any,
             size_bytes: int, delivered: Optional[Event] = None) -> None:
        """Inject ``message`` from ``src`` to ``dst``: one node id, or a
        sequence of them for one frame of a broadcast.

        ``delivered``, if given, is the caller's own untriggered event:
        it is settled with the message when the message is delivered at
        the destination NIC (never, if it is dropped on the way).  Message
        passing needs no such event, so none is made here — only the
        chain ablation waits on deliveries.  Every duration on the way
        is known here — queue-pair admission, serialization, propagation
        — so a transfer is one computed timestamp and one scheduled
        landing, not a process.  Destinations are walked in order, each
        what a ``send`` of its own would have been; on a symmetric fabric
        their landings share an instant and so one heap slot.
        """
        destinations = (dst,) if isinstance(dst, int) else dst
        if src in destinations:
            raise ValueError("loopback send: use local operations instead")
        nics, faults, one_way_fn = self._nics, self.faults, self.one_way_fn
        src_nic = nics[src]
        incarnation = src_nic.incarnation
        if incarnation is None:
            return  # the node is down: nothing leaves it
        serialization_ns = size_bytes / self._bytes_per_ns
        admit = src_nic.queue_pairs.admit
        call_at, land = self.sim.call_at, self._land
        tracing = self.tracer.enabled
        one_way, extra_delay_ns, copies = self._one_way_ns, 0.0, 1
        sent = 0
        for dst in destinations:
            if faults is not None:
                extra_delay_ns, copies = 0.0, 1
                verdict = faults.on_message(src, dst, message, size_bytes)
                if verdict is not None:
                    if verdict.drop:
                        self.dropped_messages += 1
                        continue  # dropped: ``delivered`` never triggers
                    extra_delay_ns = verdict.delay_ns
                    if extra_delay_ns > 0:
                        self.delayed_messages += 1
                    # Duplicates ride their own transfers, each on a
                    # queue pair like a real resend, ahead of the original.
                    copies = verdict.copies
                    self.duplicated_messages += copies - 1
            if one_way_fn is not None:
                one_way = one_way_fn(src, dst)
            while True:
                on_link = admit(serialization_ns) + serialization_ns
                if tracing:
                    # Span covers queue-pair wait + serialization (ser_ns:
                    # the bandwidth share).  Stamped with its computed end,
                    # a few ns ahead of the clock — consumers sort by time.
                    self.tracer.emit(on_link, "net_send", node=src,
                                     dur=on_link - self.sim.now, dst=dst,
                                     bytes=size_bytes, ser_ns=serialization_ns)
                # (message, destination NIC) lead the arguments: the
                # sanitizer labels landings by one, groups them by the other.
                dst_nic = nics[dst]
                call_at(on_link + (one_way + extra_delay_ns), land, message,
                        dst_nic, src_nic, incarnation, dst_nic.incarnation,
                        size_bytes, delivered if copies == 1 else None)
                sent += 1
                if copies == 1:
                    break
                copies -= 1
        src_nic.messages_sent += sent
        src_nic.bytes_sent += sent * size_bytes
        self.total_messages += sent
        self.total_bytes += sent * size_bytes

    def _land(self, message: Any, dst_nic: Nic, src_nic: Nic,
              src_incarnation: object, dst_incarnation: object,
              size_bytes: int, delivered: Optional[Event]) -> None:
        """The message arrives: counted at its NIC, and handed to the sink
        if the receiver is up in the incarnation it was sent to and the
        sender began no new one (a rebooted queue pair drops its old
        connection's packets; what a crashed sender sent still lands)."""
        dst_nic.messages_received += 1
        dst_nic.bytes_received += size_bytes
        sender = src_nic.incarnation
        if (dst_incarnation is None or dst_nic.incarnation is not dst_incarnation
                or (sender is not src_incarnation and sender is not None)):
            return
        dst_nic.sink(message)
        if self.tracer.enabled:
            self.tracer.emit(self.sim.now, "net_deliver", node=dst_nic.node_id,
                             src=src_nic.node_id, bytes=size_bytes)
        if delivered is not None:
            delivered.settle(message)

    # What a profiler files a landing's queued entry under (entry_kind).
    _land.event_kind = "msg_delivery"
