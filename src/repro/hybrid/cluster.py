"""Hybrid multi-datacenter cluster assembly (paper Section 9).

Builds N groups ("datacenters") of servers.  Within a group, nodes run
the configured strong DDP model over the low-latency local fabric; all
cross-group traffic is lazy UPD propagation over the (much slower)
inter-datacenter links.

:class:`HybridCluster` is :class:`repro.cluster.Cluster` with its engine
and topology hooks overridden; it takes every observer ``Cluster`` takes.
"""

from __future__ import annotations

from typing import List, Optional

from repro.cluster.cluster import Cluster
from repro.cluster.config import ClusterConfig
from repro.core.model import DdpModel
from repro.hybrid.engine import HybridProtocolNode
from repro.workload.ycsb import WorkloadSpec

__all__ = ["HybridCluster"]


class HybridCluster(Cluster):
    """Datacenter groups running a strong model locally, Eventual across."""

    def __init__(self, model: DdpModel, groups: int = 2,
                 servers_per_group: int = 3,
                 cross_dc_round_trip_ns: float = 50_000.0,
                 config: Optional[ClusterConfig] = None,
                 workload: Optional[WorkloadSpec] = None, **observers):
        if groups < 1 or servers_per_group < 2:
            raise ValueError("need >= 1 group of >= 2 servers")
        self.groups = groups
        self.servers_per_group = servers_per_group
        self.cross_one_way_ns = cross_dc_round_trip_ns / 2.0
        config = (config or ClusterConfig()).with_overrides(
            servers=groups * servers_per_group)
        super().__init__(model, config=config, workload=workload, **observers)

    def group_of(self, node_id: int) -> int:
        return node_id // self.servers_per_group

    def peers_of(self, node_id: int) -> List[int]:
        return [n for n in super().peers_of(node_id)
                if self.group_of(n) == self.group_of(node_id)]

    def engine_for(self, node_id: int):
        remote = [n for n in range(self.config.servers)
                  if self.group_of(n) != self.group_of(node_id)]
        return HybridProtocolNode, {"remote_ids": remote}

    def one_way_ns(self, src: int, dst: int) -> float:
        if self.group_of(src) == self.group_of(dst):
            return self.config.network.one_way_ns
        return self.cross_one_way_ns
