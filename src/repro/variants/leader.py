"""Leader-based protocol variant (comparison baseline).

The paper's protocols are deliberately *leaderless*: any node
coordinates any operation.  It attributes its high read-conflict rates
partly to that choice — "we implement low-latency protocols with no
designated leader.  As a result, we find that over 30% of the read
requests conflict with a yet-to-persist write ... instead of 5.1% in
Ganesan's work" (Section 8.1.2), Ganesan's system being leader-based.

This variant designates one node the leader: every write is forwarded
to it (one extra hop each way, plus leader CPU), and the leader runs
the standard coordinator round; reads stay local.  Funneling writes
through one node serializes them, throttling the global write rate and
shrinking the window in which reads race unpersisted writes — the
mechanism behind Ganesan's much lower conflict fraction.

:class:`LeaderCluster` is :class:`repro.cluster.Cluster` with the engine
hook overridden; it takes every observer ``Cluster`` takes.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.cluster.cluster import Cluster
from repro.core.context import ClientContext
from repro.core.engine import ProtocolNode
from repro.core.messages import HEADER_BYTES, KEY_BYTES, VALUE_BYTES

__all__ = ["LeaderProtocolNode", "LeaderCluster"]

_FORWARD_BYTES = HEADER_BYTES + KEY_BYTES + VALUE_BYTES
_REPLY_BYTES = HEADER_BYTES


class LeaderProtocolNode(ProtocolNode):
    """A protocol node that forwards all writes to a designated leader."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.leader_engine: Optional[LeaderProtocolNode] = None
        self.forwarded_writes = 0

    def _one_way_ns(self) -> float:
        return self.network.config.one_way_ns

    def _do_write(self, ctx: ClientContext, key: int, value: Any) -> Generator:
        leader = self.leader_engine
        if leader is None or leader is self:
            yield from super()._do_write(ctx, key, value)
            return
        # Forward hop to the leader (request payload on the wire).
        self.forwarded_writes += 1
        forward_start = self.sim.now
        self.metrics.record_message("FWD", _FORWARD_BYTES,
                                    time_ns=self.sim.now)
        forward_net = (self.nic.serialization_ns(_FORWARD_BYTES)
                       + self._one_way_ns())
        yield forward_net
        if self.tracer.enabled:
            # Hand the leader the forwarding provenance so its journey
            # record starts at the origin node's client issue.
            ctx.forward_start_ns = forward_start
            ctx.forward_net_ns = forward_net
        # The leader coordinates the write with its own worker capacity;
        # the client's session context travels with the request.
        yield leader.request_workers
        try:
            yield from leader._do_write(ctx, key, value)
        finally:
            leader.request_workers.release()
        # Completion notification back to the origin node.
        self.metrics.record_message("FWD_ACK", _REPLY_BYTES,
                                    time_ns=self.sim.now)
        yield self.nic.serialization_ns(_REPLY_BYTES) + self._one_way_ns()
        if self.tracer.enabled:
            # Span covers both hops plus the leader's coordination round.
            self.tracer.emit(self.sim.now, "fwd_write", node=self.node_id,
                             dur=self.sim.now - forward_start, key=key,
                             leader=leader.node_id)


class LeaderCluster(Cluster):
    """A cluster whose writes all funnel through node 0."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        for engine in self.engines:
            engine.leader_engine = self.engines[0]

    def engine_for(self, node_id: int):
        return LeaderProtocolNode, {}
