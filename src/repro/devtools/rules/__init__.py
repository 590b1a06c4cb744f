"""The reprolint rule set.

Importing this package registers every rule (see
:mod:`repro.devtools.registry`).  One module per invariant family:

* :mod:`~repro.devtools.rules.rng` — rng-discipline
* :mod:`~repro.devtools.rules.wallclock` — wall-clock-ban
* :mod:`~repro.devtools.rules.tracer` — tracer-guard, tracer-truthiness
* :mod:`~repro.devtools.rules.iteration` — unordered-iteration
* :mod:`~repro.devtools.rules.dispatch` — dispatch-completeness
* :mod:`~repro.devtools.rules.hygiene` — mutable-default, bare-except
"""

from repro.devtools.rules import (  # noqa: F401  (imported for registration)
    dispatch,
    hygiene,
    iteration,
    rng,
    tracer,
    wallclock,
)
