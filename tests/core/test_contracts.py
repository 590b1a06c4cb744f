"""The contract table reproduces what its four consumers used to derive.

``golden_contracts.json`` was generated at the parent commit (cdfa04a)
from the old, separate derivations — ``validate_faulty_run``'s policy
flags, ``audit.durability``'s name tuples, the audit engine's row
checker and ``HealthMonitor._configure_probes`` — for all 25 cells.
Every consumer now looks the cell up in :mod:`repro.core.contracts`;
each is asked here, through its own entry point, and must answer as it
did.
"""

import json
import pathlib

import pytest

from repro.audit.durability import DURABILITY_CHECKERS, checks_for_cell
from repro.audit.checkers import CONSISTENCY_CHECKERS
from repro.cluster.cluster import Cluster
from repro.cluster.config import ClusterConfig
from repro.core.contracts import PROBES, contract_for
from repro.core.model import all_ddp_models
from repro.core.tradeoffs import Level, analyze
from repro.faults import FaultInjector, load_fault_plan, validate_faulty_run
from repro.obs import HealthMonitor

GOLDEN = json.loads((pathlib.Path(__file__).parent
                     / "golden_contracts.json").read_text())["cells"]


@pytest.mark.parametrize("model", all_ddp_models(), ids=str)
def test_golden_contract(model):
    golden = GOLDEN["/".join(model.key)]
    monitor = HealthMonitor()
    cluster = Cluster(model,
                      config=ClusterConfig(servers=3, clients_per_server=2),
                      monitor=monitor,
                      faults=FaultInjector(load_fault_plan({"events": []})))
    # Names *and* order: both reach the CLI and the run report verbatim.
    assert [r.name for r in validate_faulty_run(cluster)] \
        == golden["validate"]
    assert checks_for_cell(model) == golden["audit_durability"]
    assert contract_for(model).checker == golden["checker"]
    assert list(monitor.probes.items()) == list(golden["probes"].items())


@pytest.mark.parametrize("model", all_ddp_models(), ids=str)
def test_row_is_checkable_and_agrees_with_table_4(model):
    contract = contract_for(model)
    assert contract.checker in CONSISTENCY_CHECKERS
    assert set(checks_for_cell(model)) <= set(DURABILITY_CHECKERS)
    assert set(contract.probes) <= set(PROBES)
    # The paper's side: non-stale reads need every completed write to
    # survive, and a cell Table 4 rates durability LOW promises none.
    profile = analyze(model)
    owes_writes = "completed_writes" in contract.durability
    if profile.non_stale_reads:
        assert owes_writes
    if profile.durability is Level.LOW:
        assert not owes_writes
    assert (contract.name == "durable linearizability") == (
        owes_writes and contract.checker == "linearizable")
