"""Network substrate: fabric and NICs with queue pairs."""

from repro.net.network import Network, NetworkConfig, Nic

__all__ = ["Network", "NetworkConfig", "Nic"]
