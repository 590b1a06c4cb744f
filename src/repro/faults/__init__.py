"""Deterministic fault injection for DDP clusters.

Everything here is driven by the simulation clock and a seeded stream,
so a fault plan is exactly as reproducible as the workload it disturbs:
same seed + same plan => byte-identical traces.

* :mod:`repro.faults.plan` — declarative fault plans (JSON or
  ``node@t`` crash specs): crashes with optional restart, message
  drop/delay/duplication, partitions, NVM slowdowns.
* :mod:`repro.faults.injector` — the :class:`FaultInjector` that
  schedules a plan onto a cluster (same observe-only attachment
  discipline as :class:`repro.obs.HealthMonitor`: an injector with an
  empty plan perturbs nothing).
* :mod:`repro.faults.validate` — post-run validation of the contracts
  each model owes (:mod:`repro.core.contracts`), by the white-box
  checks defined there.
"""

from repro.faults.injector import FaultInjector, faults_json
from repro.faults.plan import (FaultEvent, FaultPlan, load_fault_plan,
                               parse_crash_spec, plan_from_crash_specs)
from repro.faults.validate import validate_faulty_run

__all__ = [
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "faults_json",
    "load_fault_plan",
    "parse_crash_spec",
    "plan_from_crash_specs",
    "validate_faulty_run",
]
