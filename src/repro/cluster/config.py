"""Cluster-level configuration (the paper's Table 5, plus run knobs)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.engine import ProtocolConfig
from repro.memory.devices import NVM_TIMING, MemoryTiming
from repro.net.network import NetworkConfig

__all__ = ["ClusterConfig"]


@dataclass(frozen=True)
class ClusterConfig:
    """Everything needed to build a cluster (defaults = Table 5)."""

    servers: int = 5
    clients_per_server: int = 20
    seed: int = 2021

    network: NetworkConfig = field(default_factory=NetworkConfig)
    nvm_timing: MemoryTiming = NVM_TIMING
    protocol: ProtocolConfig = field(default_factory=ProtocolConfig)

    store_type: Optional[str] = "hashtable"
    """KV store backing each node; None disables store cost modeling."""

    def __post_init__(self):
        if self.servers < 2:
            raise ValueError("a replicated cluster needs at least 2 servers")
        if self.clients_per_server < 0:
            raise ValueError("clients_per_server must be >= 0")

    @property
    def total_clients(self) -> int:
        return self.servers * self.clients_per_server

    def with_overrides(self, **changes) -> ClusterConfig:
        """A copy with some fields replaced (sensitivity sweeps)."""
        import dataclasses
        return dataclasses.replace(self, **changes)
