"""Memory substrate: DRAM/NVM devices (:mod:`repro.memory.devices`),
the cache hierarchy (:mod:`repro.memory.cache`) and the per-node
facade (:mod:`repro.memory.hierarchy`).

The package re-exports nothing: import from the module that defines a
name, so a run loads only what it uses.
"""
