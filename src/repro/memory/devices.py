"""Memory device models: DRAM and NVM.

Both devices are modeled as a set of independently-queued banks spread
over channels (Table 5 of the paper: DRAM has 4 channels x 8 banks at
100 ns round trip; NVM has 2 channels x 8 banks at 140 ns read / 400 ns
write round trip).  An access hashes its address to a bank and queues
there; contention on NVM banks is what produces the paper's "NVM
pressure" effect, where outstanding persists delay later persists and
the reads that wait on them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator

from repro.sim.engine import Simulator
from repro.sim.sync import Resource
from repro.sim.trace import NullTracer

__all__ = ["MemoryTiming", "MemoryDevice", "DramDevice", "NvmDevice"]


@dataclass(frozen=True)
class MemoryTiming:
    """Per-device service times, in nanoseconds (round trip)."""

    read_ns: float
    write_ns: float
    channels: int
    banks_per_channel: int

    @property
    def total_banks(self) -> int:
        return self.channels * self.banks_per_channel


DRAM_TIMING = MemoryTiming(read_ns=100.0, write_ns=100.0, channels=4, banks_per_channel=8)
NVM_TIMING = MemoryTiming(read_ns=140.0, write_ns=400.0, channels=2, banks_per_channel=8)


class _Banks(dict):
    """Bank index -> its :class:`Resource`, built the first time the bank
    is accessed.  Reads address bank 0 and only persists reach the
    others, so most of a node's banks are never built; a bank that was
    never built is idle, and reads as such in every statistic."""

    __slots__ = ("sim", "prefix")

    def __init__(self, sim: Simulator, prefix: str):
        super().__init__()
        self.sim = sim
        self.prefix = prefix

    def __missing__(self, index: int) -> Resource:
        bank = self[index] = Resource(self.sim, capacity=1,
                                      name=f"{self.prefix}.bank{index}")
        return bank


class MemoryDevice:
    """A banked memory device with per-bank FIFO queueing.

    Accesses are processes: ``yield from device.read(address)`` holds the
    target bank for the service time.  A holder nobody can interrupt may
    use the callback form instead (:meth:`NvmDevice.persist_then`); both
    queue at the same bank FIFO.  Statistics expose total accesses and
    time-integrated queue occupancy for pressure analysis.
    """

    def __init__(self, sim: Simulator, timing: MemoryTiming, name: str = "mem",
                 tracer=None, trace_node=None):
        self.sim = sim
        self.timing = timing
        self.name = name
        self.tracer = tracer if tracer is not None else NullTracer()
        self.trace_node = trace_node
        self._banks = _Banks(sim, name)
        self._bank_count = timing.total_banks
        self.reads = 0
        self.writes = 0
        self.busy_ns = 0.0
        self.queued_ns = 0.0
        # Fault injection: multiplies every access's service time while
        # set above 1.0 (an "NVM slowdown" window models a degraded DIMM
        # or thermally-throttled media).  The timing dataclass stays
        # frozen; this is deliberately mutable mid-run.
        self.slowdown = 1.0

    def _bank_for(self, address: int) -> Resource:
        # Addresses are small non-negative int keys, for which builtin
        # hash() was the identity anyway — plain modulo keeps the same
        # bank interleaving while staying safe for any future key type
        # (hash(str) is process-salted, which would randomize banking
        # across runs).
        return self._banks[address % self._bank_count]

    def _access(self, address: int, service_ns: float) -> Generator:
        """Process: hold ``address``'s bank for ``service_ns`` scaled by
        the slowdown in force at the grant; returns the time charged."""
        bank = self._bank_for(address)
        enqueue_time = self.sim.now
        yield bank
        self.queued_ns += self.sim.now - enqueue_time
        service_ns = service_ns * self.slowdown
        try:
            yield service_ns
            self.busy_ns += service_ns
        finally:
            bank.release()
        return service_ns

    def read(self, address: int) -> Generator:
        """Process: perform a read access to ``address``."""
        self.reads += 1
        yield from self._access(address, self.timing.read_ns)

    def write(self, address: int) -> Generator:
        """Process: perform a write access to ``address``."""
        self.writes += 1
        yield from self._access(address, self.timing.write_ns)

    @property
    def outstanding(self) -> int:
        """Accesses currently queued or in service across all banks."""
        return sum(b.in_use + b.queue_len for b in self._banks.values())

    @property
    def peak_queue_len(self) -> int:
        return max((b.peak_queue_len for b in self._banks.values()),
                   default=0)

    @property
    def banks_busy(self) -> int:
        """Banks currently in service (utilization numerator; divide by
        ``timing.total_banks`` for a fraction)."""
        return sum(1 for b in self._banks.values() if b.in_use)


class DramDevice(MemoryDevice):
    """DRAM with the paper's Table 5 timing (100 ns symmetric)."""

    def __init__(self, sim: Simulator, timing: MemoryTiming = DRAM_TIMING,
                 name: str = "dram", tracer=None, trace_node=None):
        super().__init__(sim, timing, name, tracer=tracer,
                         trace_node=trace_node)


class NvmDevice(MemoryDevice):
    """NVM with the paper's Table 5 timing (140 ns read / 400 ns write).

    ``persist`` is the operation the persistency models care about: a
    durable write of one update.  It is an alias of ``write`` plus a
    persist counter, kept separate so benchmarks can report persist
    traffic independently of ordinary NVM reads/writes.
    """

    def __init__(self, sim: Simulator, timing: MemoryTiming = NVM_TIMING,
                 name: str = "nvm", tracer=None, trace_node=None):
        super().__init__(sim, timing, name, tracer=tracer,
                         trace_node=trace_node)
        self.persists = 0

    def persist(self, address: int) -> Generator:
        """Process: durably write ``address`` (queues at its bank)."""
        self.persists += 1
        start = self.sim.now
        service_ns = yield from self._access(address, self.timing.write_ns)
        if self.tracer.enabled:
            self._emit_persist_span(start, address, service_ns)

    def persist_then(self, address: int, fn: Callable[..., None],
                     *args: Any) -> None:
        """:meth:`persist` as a callback: ``fn(*args)`` runs when the
        write is durable.  For callers that cannot be interrupted while
        they hold the bank (the engine's write-combining drain): no
        process, one ``call_at`` per persist.  Queues at the same bank
        FIFO as the generator form and fixes the service time at the
        grant the same way; a free bank is taken in place."""
        self.persists += 1
        bank = self._banks[address % self._bank_count]
        start = self.sim.now
        if bank.try_acquire():
            service_ns = self.timing.write_ns * self.slowdown
            self.sim.call_at(start + service_ns, self._persisted, bank,
                             start, address, service_ns, fn, args)
        else:
            bank.acquire().callbacks.append(lambda _grant: self._granted(
                bank, start, address, fn, args))

    def _granted(self, bank: Resource, start: float, address: int,
                 fn: Callable[..., None], args: tuple) -> None:
        now = self.sim.now
        self.queued_ns += now - start
        service_ns = self.timing.write_ns * self.slowdown
        self.sim.call_at(now + service_ns, self._persisted, bank, start,
                         address, service_ns, fn, args)

    def _persisted(self, bank: Resource, start: float, address: int,
                   service_ns: float, fn: Callable[..., None],
                   args: tuple) -> None:
        self.busy_ns += service_ns
        bank.release()
        if self.tracer.enabled:
            self._emit_persist_span(start, address, service_ns)
        fn(*args)

    def _emit_persist_span(self, start: float, address: int,
                           service_ns: float) -> None:
        # Span covers bank queueing + media service time, so NVM
        # pressure shows up directly as widening persist spans;
        # service_ns (the time charged at the grant) isolates the media
        # share so bank queueing is the remainder.
        # Both callers check tracer.enabled.
        self.tracer.emit(self.sim.now, "nvm_persist", node=self.trace_node,
                         dur=self.sim.now - start, address=address,
                         outstanding=self.outstanding, service_ns=service_ns)
