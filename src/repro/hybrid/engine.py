"""Hybrid DDP protocol node (paper Section 9).

"Many systems use hybrid consistency models — e.g., Linearizable or
Read-Enforced consistency in a local cluster, and Eventual consistency
across the entire distributed system in a data center."

A :class:`HybridProtocolNode` runs the configured (strong) DDP model
*within its local group*: the invalidation rounds, read stalls, and
persist placement all span only the group's replicas.  Updates cross
group boundaries as lazy ``UPD`` messages — exactly the Eventual-
consistency propagation path — so remote datacenters converge in the
background and never sit on any critical path.

Remote nodes apply cross-group UPDs with their own persistency mode, so
the paper's suggested pairing ("Scope or Eventual persistency for the
local cluster, and Synchronous persistency across the system") is a
matter of configuring the two groups' models.
"""

from __future__ import annotations

from typing import Any, Generator, List

from repro.core.context import ClientContext
from repro.core.engine import LAZY_PROPAGATION_DELAY_NS, ProtocolNode
from repro.core.messages import Message, MsgType
from repro.core.replica import KeyReplica, Version

__all__ = ["HybridProtocolNode"]


class HybridProtocolNode(ProtocolNode):
    """A protocol node whose strong rounds span only its local group."""

    def __init__(self, *args, remote_ids: List[int] = (), **kwargs):
        super().__init__(*args, **kwargs)
        # peer_ids (given to the base class) must already be the *local*
        # group peers; remote_ids are the other groups' nodes.
        self.remote_ids = list(remote_ids)
        self.remote_upds_sent = 0

    def _propagate_remote(self, key: int, version: Version, value: Any) -> None:
        """Lazy cross-group propagation (Eventual consistency path)."""
        if not self.remote_ids:
            return
        message = Message(MsgType.UPD, src=self.node_id,
                          op_id=self._next_op_id(), key=key, version=version,
                          value=value)
        self._later(LAZY_PROPAGATION_DELAY_NS, self._send_remote, message)

    def _send_remote(self, message: Message) -> None:
        self._fan_out(message, self.remote_ids, lazy=True)
        self.remote_upds_sent += len(self.remote_ids)
        if self.tracer.enabled:
            self.tracer.emit(self.sim.now, "xdc_upd", node=self.node_id,
                             key=message.key, version=message.version,
                             remotes=len(self.remote_ids))

    def _replicate(self, ctx: ClientContext, replica: KeyReplica,
                   version: Version, value: Any) -> Generator:
        self._propagate_remote(replica.key, version, value)
        yield from super()._replicate(ctx, replica, version, value)
