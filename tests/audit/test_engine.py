"""End-to-end audit: every model passes its own contract, weaker models
fail stronger cells, and the report machinery behaves.

The full 25-model clean + crash-restart sweep lives in the CI audit
smoke job; here a representative subset keeps the tier-1 suite fast
while still covering every consistency row and persistency column.
"""

import time

import pytest

from repro.audit import (AUDIT_SCHEMA, audit_exit_code, audit_history,
                         format_audit_table)
from repro.cluster.config import ClusterConfig
from repro.core.model import Consistency, DdpModel, Persistency
from repro.obs.history import History, HistoryOpRecord, recovered_from_cluster
from repro.workload.ycsb import WORKLOADS
from tests import harness

# Every consistency row and every persistency column appears at least
# once (the diagonal plus the strongest and weakest corners).
MODELS = [
    DdpModel(Consistency.LINEARIZABLE, Persistency.STRICT),
    DdpModel(Consistency.LINEARIZABLE, Persistency.SYNCHRONOUS),
    DdpModel(Consistency.READ_ENFORCED, Persistency.READ_ENFORCED),
    DdpModel(Consistency.TRANSACTIONAL, Persistency.SCOPE),
    DdpModel(Consistency.CAUSAL, Persistency.SYNCHRONOUS),
    DdpModel(Consistency.EVENTUAL, Persistency.EVENTUAL),
]


def _audited_run(model, crash=False, duration=200_000.0):
    cluster = harness.run(
        model, duration, warmup=0.0, history=True,
        config=ClusterConfig(servers=3, clients_per_server=4),
        workload=WORKLOADS["A"].with_overrides(key_space=64),
        plan={"events": [{"kind": "crash", "node": 1, "at_us": 80,
                          "restart_after_us": 40}]} if crash else None
    ).cluster
    history = cluster.history.history()
    history.recovered = recovered_from_cluster(cluster)
    history.meta = {"model": {"consistency": model.consistency.value,
                              "persistency": model.persistency.value}}
    return history


class TestOwnContract:
    @pytest.mark.parametrize("model", MODELS, ids=str)
    def test_clean_run_passes_own_cell(self, model):
        report = audit_history(_audited_run(model))
        assert report["usable"]
        assert report["target"]["ok"], format_audit_table(report)
        assert audit_exit_code(report) == 0

    @pytest.mark.parametrize("model", MODELS, ids=str)
    def test_crash_restart_run_passes_own_cell(self, model):
        report = audit_history(_audited_run(model, crash=True))
        assert report["usable"]
        assert report["history"]["severed"] >= 0
        assert report["target"]["ok"], format_audit_table(report)


class TestCrossModel:
    def test_weak_run_fails_strong_cells(self):
        history = _audited_run(
            DdpModel(Consistency.EVENTUAL, Persistency.EVENTUAL))
        report = audit_history(history, consistency="linearizable",
                               persistency="strict")
        assert not report["target"]["ok"]
        assert audit_exit_code(report) == 1
        # The table still renders with the failing target marked.
        assert "*FAIL" in format_audit_table(report)

    def test_strong_run_passes_weaker_cells(self):
        history = _audited_run(
            DdpModel(Consistency.LINEARIZABLE, Persistency.STRICT))
        report = audit_history(history)
        assert report["totals"]["cells_failed"] == 0

    def test_sync_run_fails_strict_durability_column(self):
        history = _audited_run(
            DdpModel(Consistency.CAUSAL, Persistency.SYNCHRONOUS))
        report = audit_history(history, persistency="strict")
        cell = next(c for c in report["matrix"]
                    if c["consistency"] == "causal"
                    and c["persistency"] == "strict")
        assert not cell["ok"]
        assert "completed_writes_durable" in cell["failed_checks"]


class TestReportMechanics:
    def test_schema_and_totals(self):
        report = audit_history(_audited_run(MODELS[1]))
        assert report["schema"] == AUDIT_SCHEMA
        assert report["totals"]["cells"] == 25
        assert len(report["matrix"]) == 25
        assert report["totals"]["checker_wall_seconds"] >= 0.0

    def test_truncated_history_is_unusable(self):
        history = History(meta={}, ops=[HistoryOpRecord(
            index=0, client=1, session=0, node=0, op="write", key=5,
            value=1, invoke_us=0.0, respond_us=1.0, version=(1, 0))],
            recovered={}, dropped=3)
        report = audit_history(history, consistency="causal",
                               persistency="synchronous")
        assert not report["usable"]
        assert "truncated" in report["reason"]
        assert audit_exit_code(report) == 2
        assert "UNUSABLE" in format_audit_table(report)

    def test_empty_history_is_unusable(self):
        report = audit_history(History(meta={}, ops=[], recovered={}))
        assert not report["usable"]
        assert audit_exit_code(report) == 2

    def test_no_target_exit_code(self):
        history = _audited_run(MODELS[1])
        history.meta = {}
        report = audit_history(history)
        assert report["usable"]
        assert report["target"] is None
        assert audit_exit_code(report) == 2

    def test_cli_style_flat_meta_target(self):
        # The CLI run metadata carries the model label as a string and
        # the component values at the top level.
        history = _audited_run(MODELS[1])
        history.meta = {"model": "<Linearizable, Synchronous>",
                        "consistency": "linearizable",
                        "persistency": "synchronous"}
        report = audit_history(history)
        assert report["target"]["consistency"] == "linearizable"
        assert report["target"]["persistency"] == "synchronous"

    def test_missing_recovered_state_skips_durability(self):
        history = _audited_run(MODELS[1])
        history.recovered = {}
        report = audit_history(history)
        assert report["durability"]["skipped"]
        assert report["target"]["durability_skipped"]
        # Consistency verdicts still stand.
        assert report["target"]["ok"]


def test_audit_speed_on_large_history():
    """Acceptance floor: a multi-thousand-op history audits in well
    under ten seconds."""
    history = _audited_run(
        DdpModel(Consistency.CAUSAL, Persistency.SYNCHRONOUS),
        duration=600_000.0)
    assert len(history.ops) >= 5_000, len(history.ops)
    start = time.perf_counter()
    report = audit_history(history)
    elapsed = time.perf_counter() - start
    assert report["usable"]
    assert elapsed < 10.0, f"audit took {elapsed:.1f}s"
