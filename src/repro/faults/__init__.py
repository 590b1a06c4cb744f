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

The public names below are resolved on first use (PEP 562), so
importing one module of the package loads only that module.
"""

from repro import _lazy

#: Public name -> the module that defines it.
_EXPORTS = {
    "FaultInjector": "repro.faults.injector",
    "faults_json": "repro.faults.injector",
    "FaultEvent": "repro.faults.plan",
    "FaultPlan": "repro.faults.plan",
    "load_fault_plan": "repro.faults.plan",
    "parse_crash_spec": "repro.faults.plan",
    "plan_from_crash_specs": "repro.faults.plan",
    "validate_faulty_run": "repro.faults.validate",
}

__all__ = [*_EXPORTS]
__getattr__, __dir__ = _lazy(globals(), _EXPORTS)
