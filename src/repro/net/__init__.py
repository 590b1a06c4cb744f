"""Network substrate: fabric and NICs with queue pairs
(:mod:`repro.net.network`).

The package re-exports nothing: import from the module that defines a
name, so a run loads only what it uses.
"""
