"""Analysis: metrics collection, result tables, validation checkers,
and Visibility/Durability Point measurement.

The package re-exports nothing: import from the module that defines a
name, so a run loads only what it uses.
"""
