"""Per-node memory hierarchy: caches + DRAM + NVM as one facade.

:class:`MemoryHierarchy` is what a :class:`repro.cluster.node.Node` owns.
The protocol engine uses two operations here:

* ``volatile_update`` / ``volatile_update_then`` — apply an update to
  the volatile hierarchy (LLC via DDIO for NIC-delivered payloads, or a
  cache access for locally-produced writes), as a process or — NIC
  deliveries only — as a callback.
* ``persist`` — durably write an update to NVM (queues at NVM banks).

A read walks ``caches`` and ``dram`` itself, and the callback form of a
persist is ``nvm.persist_then``: one frame each, not two.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

from repro.memory.cache import CacheHierarchy
from repro.memory.devices import DramDevice, MemoryTiming, NvmDevice
from repro.sim.engine import Simulator
from repro.sim.rng import SeededStream

__all__ = ["MemoryHierarchy"]

#: Cores of one server's chip (paper Table 5); they size the shared LLC.
CORES_PER_SERVER = 20


class MemoryHierarchy:
    """One server's memory system (Figure 1 of the paper)."""

    def __init__(self, sim: Simulator, rng: SeededStream,
                 nvm_timing: Optional[MemoryTiming] = None,
                 name: str = "node", tracer=None, node_id=None):
        self.sim = sim
        self.name = name
        self.caches = CacheHierarchy(sim, rng.fork("caches"), CORES_PER_SERVER)
        self.dram = DramDevice(sim, name=f"{name}.dram", tracer=tracer,
                               trace_node=node_id)
        nvm_kwargs = {"name": f"{name}.nvm", "tracer": tracer,
                      "trace_node": node_id}
        self.nvm = (NvmDevice(sim, nvm_timing, **nvm_kwargs)
                    if nvm_timing else NvmDevice(sim, **nvm_kwargs))

    # -- volatile side -------------------------------------------------------

    def volatile_update(self, address: int, size_bytes: int = 64,
                        via_ddio: bool = False) -> Generator:
        """Process: apply one update to the volatile hierarchy.

        Locally-produced writes take a cache-hierarchy access.  NIC
        deliveries try DDIO first; on spill they cost a DRAM write.
        """
        if via_ddio:
            if self.caches.llc.ddio_deposit(size_bytes):
                yield self.caches.llc.round_trip_ns
            else:
                yield from self.dram.write(address)
        else:
            yield from self.caches.access(self.dram)

    def volatile_update_then(self, address: int, size_bytes: int,
                             fn: Callable[..., None], *args: Any) -> None:
        """:meth:`volatile_update` of a NIC delivery (``via_ddio``) as a
        callback: ``fn(*args)`` runs once the payload sits in the LLC —
        at the instant the process form's timeout would have popped —
        or, on a DDIO spill, once the DRAM write has left its bank
        queue.  Only the spill loops over waits, so only it costs a
        process, started in place (no extra hop)."""
        llc = self.caches.llc
        if llc.ddio_deposit(size_bytes):
            self.sim.call_at(self.sim.now + llc.round_trip_ns, fn, *args)
        else:
            self.sim.process(self._spill_then(address, fn, args),
                             name=f"{self.name}.spill", inline=True)

    def _spill_then(self, address: int, fn: Callable[..., None],
                    args: tuple) -> Generator:
        yield from self.dram.write(address)
        fn(*args)

    def consume_ddio(self, size_bytes: int = 64) -> None:
        """Release DDIO space once an update has been ingested."""
        self.caches.llc.ddio_consume(size_bytes)

    # -- durable side ---------------------------------------------------------

    def persist(self, address: int) -> Generator:
        """Process: durably write one update to NVM."""
        yield from self.nvm.persist(address)

    def nvm_read(self, address: int) -> Generator:
        """Process: read from NVM (used during recovery)."""
        yield from self.nvm.read(address)

    @property
    def nvm_pressure(self) -> int:
        """Outstanding NVM operations (queued + in service)."""
        return self.nvm.outstanding
