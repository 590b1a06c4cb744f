"""Transaction substrate: active-transaction table and conflict
detection (:mod:`repro.txn.manager`).

The package re-exports nothing: import from the module that defines a
name, so a run loads only what it uses.
"""
