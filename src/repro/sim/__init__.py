"""Discrete-event simulation substrate.

The kernel (:mod:`repro.sim.engine`) provides generator-coroutine
processes over a virtual-time event loop; :mod:`repro.sim.sync` adds the
resource/queue/condition primitives the protocol and hardware
models are built from; :mod:`repro.sim.rng` provides deterministic,
forkable random streams; :mod:`repro.sim.trace` provides structured
event tracing.
"""

from repro.sim.engine import (
    AllOf,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Simulator,
    Timeout,
)
from repro.sim.rng import SeededStream
from repro.sim.sync import Condition, Resource, Store
from repro.sim.trace import NullTracer, TraceRecord, Tracer

__all__ = [
    "AllOf",
    "Condition",
    "Event",
    "Interrupt",
    "NullTracer",
    "Process",
    "Resource",
    "SeededStream",
    "SimulationError",
    "Simulator",
    "Store",
    "Timeout",
    "TraceRecord",
    "Tracer",
]
