"""Recovery substrate: durable logs, crash recovery, invariant checkers.

The package re-exports nothing: import from the module that defines a
name, so a run loads only what it uses.
"""
