"""The paper's core contribution: DDP models and their protocols.

* :mod:`repro.core.model` — consistency/persistency model definitions
  and their Visibility/Durability Point semantics (Table 2).
* :mod:`repro.core.messages` — protocol message vocabulary (Table 3).
* :mod:`repro.core.policies` — per-model behavioral policies.
* :mod:`repro.core.contracts` — what each of the 25 cells owes, stated
  once (durability, session, history checker, online probes).
* :mod:`repro.core.replica` — per-key replica state machines.
* :mod:`repro.core.context` — per-client causal/scope/txn session state.
* :mod:`repro.core.engine` — the leaderless coordinator/follower
  protocol engine (Figures 2-5).
* :mod:`repro.core.tradeoffs` — the Table 4 trade-off derivation.

The package re-exports nothing: import from the module that defines a
name, so a run loads only what it uses.
"""
