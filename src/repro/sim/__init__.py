"""Discrete-event simulation substrate.

The kernel (:mod:`repro.sim.engine`) provides generator-coroutine
processes over a virtual-time event loop; :mod:`repro.sim.sync` adds the
resource/queue/condition primitives the protocol and hardware
models are built from; :mod:`repro.sim.rng` provides deterministic,
forkable random streams; :mod:`repro.sim.trace` provides structured
event tracing.

The package re-exports nothing: import from the module that defines a
name, so a run loads only what it uses.
"""
