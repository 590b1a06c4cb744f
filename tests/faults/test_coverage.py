"""What each contract verdict judged, on both sides of the contract table.

A check that judges nothing passes vacuously, so a verdict states its
coverage (``CheckResult.checked``).  Clean runs of the 25 cells hold
every owed check, white-box (:func:`repro.faults.validate_faulty_run`)
and black-box (:func:`repro.audit.audit_history`), to a floor of one
judged record: a new exclusion that empties a check fails here.
"""

import pytest

from repro.audit import audit_history, checks_for_cell
from repro.cluster.config import ClusterConfig
from repro.core.contracts import contract_for
from repro.core.model import (Consistency as C, DdpModel, Persistency as P,
                              all_ddp_models)
from repro.faults import validate_faulty_run
from repro.obs import recovered_from_cluster
from tests import harness

#: Owed checks that judge nothing on a clean run, by design.
VACUOUS = {
    # Reads inside transactions are not session-logged (a squashed
    # transaction's reads are retried wholesale), and every read of a
    # Transactional cell sits inside one.
    DdpModel(C.TRANSACTIONAL, P.READ_ENFORCED): ["read_values_recovered"],
    # The Eventual row promises nothing a finite history can falsify
    # beyond phantom freedom, which ``no_phantom`` judges.
    **{DdpModel(C.EVENTUAL, p): ["eventual"] for p in P},
}


@pytest.mark.parametrize("model", all_ddp_models(), ids=str)
def test_every_owed_check_judges_a_record_on_a_clean_run(model):
    cluster = harness.run(model, 30_000.0, warmup=0.0, plan={"events": []},
                          config=ClusterConfig(servers=3, clients_per_server=4),
                          history=True).cluster
    recorder = cluster.history
    recorder.recovered = recovered_from_cluster(cluster)
    report = audit_history(recorder.history())
    black = {name: report["consistency"][name]
             for name in ("no_phantom", contract_for(model).checker)}
    black.update((name, report["durability"]["checks"][name])
                 for name in checks_for_cell(model))
    verdicts = [(r.name, r.ok, r.vacuous) for r in validate_faulty_run(cluster)]
    verdicts += [(name, check["ok"], check["vacuous"])
                 for name, check in black.items()]
    assert all(ok for _, ok, _ in verdicts), verdicts
    assert [name for name, _, vacuous in verdicts
            if vacuous] == VACUOUS.get(model, []), verdicts


@pytest.mark.parametrize("seed", [2021, 7, 11])
def test_scope_ids_survive_a_client_restart(seed):
    """A restarted client's scopes take fresh ids, so the white-box
    scope check judges every completed non-empty scope the history
    records: none is overwritten in ``Client.scope_log``."""
    crash = {"events": [{"kind": "crash", "node": 1, "at_us": 20,
                         "restart_after_us": 15}]}
    for consistency in C:
        cluster = harness.run(
            DdpModel(consistency, P.SCOPE), 80_000.0, warmup=0.0, plan=crash,
            config=ClusterConfig(servers=3, clients_per_server=4, seed=seed),
            history=True).cluster
        ops = cluster.history.history().ops
        persists = [(op.client, op.session, op.scope_id) for op in ops
                    if op.op == "persist" and op.respond_us is not None
                    and op.committed]
        ids = [(client, scope_id) for client, _, scope_id in persists]
        assert len(ids) == len(set(ids)), consistency
        written = {(op.client, op.session, op.scope_id) for op in ops
                   if op.op == "write" and op.respond_us is not None
                   and op.scope_id is not None}
        scope = {r.name: r for r in validate_faulty_run(cluster)}[
            "scope_atomicity"]
        assert scope.ok and scope.checked == len(set(persists) & written) > 0
