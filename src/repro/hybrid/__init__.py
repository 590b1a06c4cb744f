"""Hybrid deployments: strong consistency locally, Eventual across
datacenters (paper Section 9).  :mod:`repro.hybrid.cluster` defines
``HybridCluster``, :mod:`repro.hybrid.engine` its protocol node.

The package re-exports nothing: import from the module that defines a
name, so a run loads only what it uses.
"""
