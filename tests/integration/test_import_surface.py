"""What a run imports: only the modules it runs.

Every fresh interpreter — one ``repro run``, a benchmark repeat, a sweep
child — compiles each module its imports pull in, so an eager import
of a module the run never touches is start-up time paid for nothing.
Three pieces of package glue keep the surface narrow, and the
subprocess tests below fail if any of them turns eager again:

* ``repro`` resolves its public names on first use (PEP 562);
* ``repro.analysis``, ``repro.core`` and ``repro.recovery`` re-export
  nothing, so importing one module of theirs loads only that module;
* ``repro.store.make_store`` imports only the store it builds (the
  default, ``hashtable``, comes with the package).

``repro.cli`` also imports what only ``tradeoffs`` or ``recover`` use
inside those subcommands.
"""

import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(__file__).resolve().parents[2] / "src"

#: What a benchmark repeat imports, then one default build.
RUN_SURFACE = """
from repro.cluster import Cluster, ClusterConfig
from repro.core.model import Consistency, DdpModel, Persistency
from repro.faults import FaultInjector, validate_faulty_run
from repro.workload.ycsb import WORKLOADS
Cluster(DdpModel(Consistency.LINEARIZABLE, Persistency.SYNCHRONOUS),
        config=ClusterConfig(), workload=WORKLOADS["A"])
"""

#: Loaded neither by a run nor by the CLI's start-up: the checker, what
#: only ``tradeoffs`` or ``recover`` use, the hybrid deployment, and the
#: stores besides the default.
NOT_AT_START_UP = (
    "repro.analysis.linearizability",
    "repro.core.tradeoffs",
    "repro.hybrid",
    "repro.hybrid.cluster",
    "repro.hybrid.engine",
    "repro.recovery.replayer",
    "repro.store.btree",
    "repro.store.bplustree",
    "repro.store.sortedmap",
    "repro.store.memcachedlike",
)
#: Also not loaded by a run (the CLI's observers use them).
NOT_ON_THE_RUN_PATH = NOT_AT_START_UP + (
    "repro.analysis.report",
    "repro.analysis.waterfall",
)


def _loaded(script: str) -> list:
    """The ``repro`` modules a fresh interpreter holds after ``script``."""
    script += ("\nimport json, sys\nprint(json.dumps(sorted("
               "m for m in sys.modules if m.split('.')[0] == 'repro')))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def test_a_run_loads_only_what_it_runs():
    loaded = _loaded(RUN_SURFACE)
    assert "repro.store.hashtable" in loaded
    assert sorted(set(NOT_ON_THE_RUN_PATH) & set(loaded)) == []


def test_the_fault_path_loads_neither_the_auditor_nor_the_observers():
    """``validate_faulty_run`` returns the auditor's verdict type, which
    lives in ``repro.core.contracts`` so that a run does not pay for
    importing ``repro.audit`` or ``repro.obs``."""
    assert [m for m in _loaded(RUN_SURFACE)
            if m.startswith(("repro.audit", "repro.obs"))] == []


def test_the_cli_starts_without_subcommand_only_modules():
    assert sorted(set(NOT_AT_START_UP) & set(_loaded("import repro.cli"))) == []


def test_import_repro_loads_one_module():
    assert _loaded("import repro") == ["repro"]


@pytest.mark.parametrize("name", sorted(repro._EXPORTS))
def test_each_public_name_is_its_defining_modules_object(name):
    module = repro._EXPORTS[name]
    value = getattr(repro, name)
    assert value is getattr(importlib.import_module(module), name)
    if inspect.isclass(value) or inspect.isfunction(value):
        assert value.__module__ == module


def test_public_names_and_dir():
    assert set(repro.__all__) == {*repro._EXPORTS, "__version__"}
    assert isinstance(repro.__version__, str)
    assert {"__all__", *repro.__all__} <= set(dir(repro))
    with pytest.raises(AttributeError, match="no_such_name"):
        repro.no_such_name  # noqa: B018
