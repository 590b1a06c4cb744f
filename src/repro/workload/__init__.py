"""Workload substrate: YCSB-style request streams
(:mod:`repro.workload.ycsb`, which also holds the ``WORKLOADS`` table),
their key generators (:mod:`repro.workload.zipf`) and the closed-loop
clients (:mod:`repro.workload.client`).

The package re-exports nothing: import from the module that defines a
name, so a run loads only what it uses.
"""
