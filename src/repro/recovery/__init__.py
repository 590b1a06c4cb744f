"""Recovery substrate: the durable NVM logs, recovery from them and a
node's lifecycle (:mod:`repro.recovery.lifecycle`).

The contract checks judged against a recovered state live in
:mod:`repro.faults.validate`.

The package re-exports nothing: import from the module that defines a
name, so a run loads only what it uses.
"""
