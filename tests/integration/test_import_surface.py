"""What a run imports: only the modules it runs.

Every fresh interpreter — one ``repro run``, a benchmark repeat, a sweep
child, one of the CLI's readers — compiles each module its imports pull
in, so an eager import of a module the caller never touches is start-up
time paid for nothing.  No package ``__init__`` imports anything
eagerly, and the subprocess tests below fail if one turns eager again:

* ``repro``, ``repro.obs``, ``repro.audit``, ``repro.faults`` and
  ``repro.cluster`` resolve their public names on first use (PEP 562,
  one name -> module table each, one shared resolver);
* every other package re-exports nothing, so importing one module of
  theirs loads only that module;
* the one exception: ``repro.store`` imports its default store
  (``hashtable``), and ``make_store`` imports only the store it builds.

``repro.cli`` imports what a subcommand uses inside that subcommand, so
its start-up and the readers (``trace``, ``journey``, ``profile``,
``diff``, ``audit``) load no simulator.
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
from repro.cli import main

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

#: Loaded by no run (modules, or packages with everything in them): the
#: checker, the VP/DP waterfall, the report tables, what only
#: ``tradeoffs`` uses, the hybrid deployment, and the stores besides the
#: default.
NOT_ON_THE_RUN_PATH = (
    "repro.analysis.linearizability",
    "repro.analysis.report",
    "repro.analysis.waterfall",
    "repro.core.tradeoffs",
    "repro.hybrid",
    "repro.store.btree",
    "repro.store.bplustree",
    "repro.store.sortedmap",
    "repro.store.memcachedlike",
)
#: What builds and runs a cluster: no reader loads any of it.
SIMULATOR = (
    "repro.cluster",
    "repro.core.engine",
    "repro.memory",
    "repro.net",
    "repro.store",
    "repro.workload.client",
)
#: Not loaded by the CLI's start-up either: every subcommand's own
#: modules.
NOT_AT_START_UP = SIMULATOR + NOT_ON_THE_RUN_PATH + (
    "repro.audit",
    "repro.devtools.sanitizer",
    "repro.faults",
    "repro.obs.run",
    "repro.obs.sweep",
)

#: The packages whose public names resolve on first use.
LAZY = ("repro", "repro.obs", "repro.audit", "repro.faults",
        "repro.cluster")
#: Every package below ``repro`` but the store.
PACKAGES = sorted(f"repro.{path.parent.name}"
                  for path in (SRC / "repro").glob("*/__init__.py")
                  if path.parent.name != "store")


def _loaded(script: str) -> list:
    """The ``repro`` modules a fresh interpreter holds after ``script``."""
    script += ("\nimport json, sys\nprint(json.dumps(sorted("
               "m for m in sys.modules if m.split('.')[0] == 'repro')))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def _within(loaded: list, names: tuple) -> list:
    """The ``loaded`` modules that are one of ``names`` or inside one."""
    return [module for module in loaded
            if any(module == name or module.startswith(name + ".")
                   for name in names)]


def test_a_run_loads_only_what_it_runs():
    loaded = _loaded(RUN_SURFACE)
    assert "repro.store.hashtable" in loaded
    assert _within(loaded, NOT_ON_THE_RUN_PATH) == []


def test_the_fault_path_loads_neither_the_auditor_nor_the_observers():
    """``validate_faulty_run`` returns the auditor's verdict type, which
    lives in ``repro.core.contracts`` so that a run does not pay for
    importing ``repro.audit`` or ``repro.obs``."""
    assert _within(_loaded(RUN_SURFACE), ("repro.audit", "repro.obs")) == []


def test_the_cli_starts_without_subcommand_only_modules():
    assert _within(_loaded("import repro.cli"), NOT_AT_START_UP) == []


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """What one small ``run`` wrote: a trace, a report with its
    journeys and profile sections, and a client history."""
    out = tmp_path_factory.mktemp("run")
    paths = {name: str(out / name) for name in ("t.json", "m.json", "h.jsonl")}
    assert main(["run", "--servers", "3", "--clients", "6",
                 "--duration-us", "20", "--journeys", "--profile",
                 "--trace-out", paths["t.json"],
                 "--metrics-out", paths["m.json"],
                 "--history-out", paths["h.jsonl"]]) == 0
    return paths


@pytest.mark.parametrize("argv", [
    ["trace", "t.json"], ["journey", "m.json"], ["profile", "m.json"],
    ["diff", "m.json", "m.json"], ["audit", "h.jsonl"]], ids=" ".join)
def test_a_reader_loads_no_simulator(artifacts, argv):
    argv = [artifacts.get(arg, arg) for arg in argv]
    loaded = _loaded(
        "import contextlib, io\nfrom repro.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0\n")
    assert _within(loaded, SIMULATOR) == []


@pytest.mark.parametrize("package", PACKAGES)
def test_a_package_loads_only_itself(package):
    """An unknown name raises ``AttributeError`` and loads nothing, as
    ``getattr(package, name, None)`` in ``bench/`` relies on."""
    assert _loaded(f"import {package}\nassert getattr({package}, "
                   f"'no_such_name', None) is None") == ["repro", package]


def test_import_repro_loads_one_module():
    assert _loaded("import repro") == ["repro"]


@pytest.mark.parametrize("package, name", [
    pytest.param(package, name,
                 id=name if package == "repro" else f"{package}.{name}")
    for package in LAZY
    for name in sorted(importlib.import_module(package)._EXPORTS)])
def test_each_public_name_is_its_defining_modules_object(package, name):
    package = importlib.import_module(package)
    module = package._EXPORTS[name]
    value = getattr(package, name)
    assert value is getattr(importlib.import_module(module), name)
    if inspect.isclass(value) or inspect.isfunction(value):
        assert value.__module__ == module


def test_public_names_and_dir():
    assert set(repro.__all__) == {*repro._EXPORTS, "__version__"}
    assert isinstance(repro.__version__, str)
    for package in map(importlib.import_module, LAZY[1:]):
        assert set(package.__all__) == set(package._EXPORTS)
    for package in map(importlib.import_module, LAZY):
        assert {"__all__", *package.__all__} <= set(dir(package))
        with pytest.raises(AttributeError, match="no_such_name"):
            package.no_such_name  # noqa: B018
