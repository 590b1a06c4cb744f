"""One server: memory hierarchy + NIC + protocol engine + local store."""

from __future__ import annotations

from repro.analysis.metrics import Metrics
from repro.cluster.config import ClusterConfig
from repro.core.engine import ProtocolNode
from repro.core.model import DdpModel
from repro.memory.hierarchy import MemoryHierarchy
from repro.net.network import Network
from repro.sim.engine import Simulator
from repro.sim.rng import SeededStream
from repro.store import make_store
from repro.txn.manager import TxnTable

__all__ = ["Node"]


class Node:
    """A server of the modeled distributed system (Figure 1)."""

    def __init__(self, sim: Simulator, node_id: int, config: ClusterConfig,
                 model: DdpModel, network: Network, metrics: Metrics,
                 txn_table: TxnTable, rng: SeededStream, peer_ids,
                 engine_class=ProtocolNode,
                 nvm_log=None, tracer=None, version_board=None,
                 membership=None, **engine_kwargs):
        self.sim = sim
        self.node_id = node_id
        self.config = config
        self.memory = MemoryHierarchy(
            sim, rng.fork(f"mem{node_id}"), nvm_timing=config.nvm_timing,
            name=f"node{node_id}", tracer=tracer, node_id=node_id)
        self.nic = network.attach(node_id)
        self.store = (make_store(config.store_type)
                      if config.store_type else None)
        self.engine = engine_class(
            sim, node_id, peer_ids, network, self.nic, self.memory,
            model, metrics, config=config.protocol, txn_table=txn_table,
            store=self.store, nvm_log=nvm_log, tracer=tracer,
            version_board=version_board, membership=membership,
            **engine_kwargs)
        #: The process a restart runs until the node serves again.
        self.recovery = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Node({self.node_id}, model={self.engine.model})"
