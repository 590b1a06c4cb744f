"""Protocol variants used as comparison baselines: the leader-based
``LeaderCluster`` of :mod:`repro.variants.leader`.

The package re-exports nothing: import from the module that defines a
name, so a run loads only what it uses.
"""
