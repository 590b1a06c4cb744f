"""The sweep observatory: deterministic merge, parallelism, failure.

The load-bearing contract: ``run_sweep`` with any worker count produces
the same merged ``repro.sweep_report/1`` bytes, a crashed worker
becomes a schema-valid ``error`` cell rather than a torn artifact, and
progress output stays line-oriented off a TTY.
"""

import io
import json
from pathlib import Path

import pytest

from repro.core.model import (Consistency, DdpModel, Persistency,
                              all_ddp_models)
from repro.obs.report import config_fingerprint
from repro.obs.schemas import SWEEP_REPORT_SCHEMA, validate_artifact
from repro.obs.sweep import (CellResult, CellSpec, SweepProgress,
                             build_sweep_report, matrix_specs, run_cell,
                             run_sweep, strip_wall_clock, sweep_meta,
                             write_sweep_report)
from tests.harness import rig_to_crash

DURATION = 20_000.0
WARMUP = 2_000.0
RESULTS = Path(__file__).resolve().parents[2] / "benchmarks" / "results"


def specs_for(models, seeds=(1,), sections=()):
    return matrix_specs(models, seeds, duration_ns=DURATION,
                        warmup_ns=WARMUP, sections=sections)


def report_bytes(doc):
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)


class TestCellSpec:
    def test_sort_key_ignores_construction_order(self):
        specs = specs_for(list(reversed(all_ddp_models()[:6])), seeds=(2, 1))
        assert specs == sorted(specs, key=lambda s: s.sort_key)

    def test_unknown_section_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep section"):
            CellSpec("causal", "eventual", 1, sections=("bogus",))
        with pytest.raises(ValueError, match=r"^unknown workload 'Z' "
                                             r"\(known: A, B, C, W\)$"):
            CellSpec("causal", "eventual", 1, workload="Z")

    def test_label_names_model_and_seed(self):
        spec = CellSpec("causal", "eventual", 7)
        assert "Causal" in spec.label and "seed=7" in spec.label


class TestStripWallClock:
    def test_removes_wall_keys_recursively(self):
        doc = {"wall_seconds": 1.0, "events_processed": 5,
               "nested": {"checker_wall_seconds": 2.0, "ok": True,
                          "details": [{"wall_ms": 3.0, "rule": "x"}]}}
        stripped = strip_wall_clock(doc)
        assert stripped == {"events_processed": 5,
                            "nested": {"ok": True,
                                       "details": [{"rule": "x"}]}}

    def test_report_contains_no_wall_clock(self):
        specs = specs_for(all_ddp_models()[:1],
                          sections=("journeys", "health", "profile",
                                    "audit"))
        text = report_bytes(build_sweep_report(run_sweep(specs)))
        for needle in ("wall_seconds", "wall_ms", "events_per_wall",
                       "attributed_fraction", "checker_wall"):
            assert needle not in text, needle

    def test_every_stripped_key_is_informational_to_repro_diff(
            self, tmp_path):
        """One decision, two users: whatever ``strip_wall_clock`` takes
        out of a real profiled and audited run report, ``repro diff``
        shows with a direction and never gates on — ten times worse is
        ``info-worse``, not a regression."""
        from repro.cli import main
        from repro.obs.diff import diff_documents

        def key_names(value):
            if isinstance(value, dict):
                return set(value).union(*map(key_names, value.values()))
            if isinstance(value, list):
                return set().union(*map(key_names, value))
            return set()

        path = tmp_path / "report.json"
        assert main(["run", "--servers", "3", "--clients", "6",
                     "--duration-us", "20", "--profile", "--audit",
                     "--metrics-out", str(path)]) == 0
        doc = json.loads(path.read_text())
        stripped = key_names(doc) - key_names(strip_wall_clock(doc))
        assert {"wall_seconds", "attributed_fraction", "wall_ms",
                "checker_wall_seconds"} <= stripped

        def bench(scale):
            return {"schema": "repro.bench/1", "bench": "wall",
                    "config_hash": "same",
                    "metrics": {"row": dict.fromkeys(stripped, scale)}}

        report = diff_documents(bench(1.0), bench(10.0))
        assert report.verdict == "no-regression"
        assert {e.metric: e.verdict for e in report.entries} == {
            key: "info-better" if key in ("events_per_wall_second",
                                          "attributed_fraction")
            else "info-worse" for key in stripped}

    @pytest.mark.parametrize("path", sorted(RESULTS.rglob("*.json")),
                             ids=lambda path: path.name)
    def test_committed_results_record_no_host_time(self, path):
        """``benchmarks/results/`` is a pure function of the source;
        host time lives in ``bench/`` only."""
        text = path.read_text()
        assert '"wall_clock"' not in text
        doc = json.loads(text)
        assert strip_wall_clock(doc) == doc

    def test_committed_kernel_bench_keeps_its_shape(self):
        doc = json.loads((RESULTS / "BENCH_kernel.json").read_text())
        validate_artifact(doc, family="repro.bench")
        assert doc["bench"] == "kernel"
        assert doc["config_hash"] == config_fingerprint(doc["config"])
        assert len(doc["metrics"]) >= 3
        for label, row in doc["metrics"].items():
            handled = row["messages_handled"]
            assert row["events_processed"] > 0 and handled > 0, label
            assert (row["events_per_message"]
                    == row["events_processed"] / handled), label
            assert (row["processes_per_message"]
                    == row["processes_spawned"] / handled), label


class TestDeterministicMerge:
    def test_workers_1_and_4_byte_identical(self):
        specs = specs_for(all_ddp_models()[:4], seeds=(1, 2),
                          sections=("journeys", "profile"))
        serial = build_sweep_report(run_sweep(specs, workers=1))
        parallel = build_sweep_report(run_sweep(specs, workers=4))
        assert report_bytes(serial) == report_bytes(parallel)

    def test_cells_sorted_by_key_not_completion(self):
        specs = specs_for(all_ddp_models()[:4], seeds=(2, 1))
        doc = build_sweep_report(run_sweep(specs, workers=2))
        keys = [(c["consistency"], c["persistency"], c["seed"])
                for c in doc["cells"]]
        assert keys == sorted(keys)

    def test_write_round_trips(self, tmp_path):
        specs = specs_for(all_ddp_models()[:1])
        doc = build_sweep_report(run_sweep(specs))
        path = tmp_path / "sweep.json"
        write_sweep_report(str(path), doc)
        assert json.loads(path.read_text()) == doc

    def test_meta_has_no_worker_count(self):
        specs = specs_for(all_ddp_models()[:2], seeds=(1, 2))
        meta = sweep_meta(specs)
        assert "workers" not in report_bytes(meta)
        assert meta["seeds"] == [1, 2]
        assert len(meta["models"]) == 2
        assert meta["config_hash"]

    def test_meta_requires_cells(self):
        with pytest.raises(ValueError):
            sweep_meta([])


class TestCellSections:
    def test_requested_sections_present(self):
        specs = specs_for(all_ddp_models()[:1],
                          sections=("journeys", "health", "profile",
                                    "audit"))
        cell = build_sweep_report(run_sweep(specs))["cells"][0]
        for section in ("journeys", "health", "profile", "audit"):
            assert section in cell, section
        assert cell["audit"]["usable"] is True
        assert cell["journeys"]["journeys"] > 0
        assert cell["profile"]["events_processed"] > 0

    def test_default_cells_are_summary_only(self):
        specs = specs_for(all_ddp_models()[:1])
        cell = build_sweep_report(run_sweep(specs))["cells"][0]
        assert "journeys" not in cell and "profile" not in cell
        assert cell["summary"]["requests"] > 0

    def test_a_cell_section_is_the_run_reports_section(self, capsys,
                                                       tmp_path):
        """One recipe: what ``run --metrics-out`` writes for a spec is,
        wall clock stripped, what the sweep embeds for it."""
        from repro.cli import main

        sections = ("journeys", "health", "profile", "audit")
        spec = CellSpec("linearizable", "synchronous", 11, servers=3,
                        clients=6, duration_ns=DURATION, warmup_ns=WARMUP,
                        sections=sections)
        path = tmp_path / "report.json"
        assert main(["run", "--consistency", spec.consistency,
                     "--persistency", spec.persistency, "--seed", "11",
                     "--servers", "3", "--clients", "6",
                     "--duration-us", str(DURATION / 1000.0),
                     "--journeys", "--profile", "--health", "--audit",
                     "--metrics-out", str(path)]) == 0
        capsys.readouterr()
        report = json.loads(path.read_text())
        assert report["meta"]["config_hash"] == spec.meta()["config_hash"]
        cell = run_cell(spec).sections
        for name in sections:
            assert (report_bytes(cell[name])
                    == report_bytes(strip_wall_clock(report[name]))), name


class TestFailure:
    CRASH = DdpModel(Consistency.CAUSAL, Persistency.EVENTUAL)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_crashed_cell_is_schema_valid_error_entry(self, monkeypatch,
                                                      workers):
        rig_to_crash(monkeypatch, "causal", "eventual")
        models = [self.CRASH,
                  DdpModel(Consistency.EVENTUAL, Persistency.EVENTUAL)]
        doc = build_sweep_report(run_sweep(specs_for(models),
                                           workers=workers))
        validate_artifact(doc, family="repro.sweep_report")
        assert doc["totals"] == {"cells": 2, "ok": 1, "errors": 1}
        error = [c for c in doc["cells"] if c["status"] == "error"][0]
        assert error["consistency"] == "causal"
        assert "RuntimeError" in error["error"]
        assert "summary" not in error

    def test_seed_scoped_rig_only_hits_that_seed(self, monkeypatch):
        rig_to_crash(monkeypatch, "causal", "eventual", 2)
        doc = build_sweep_report(
            run_sweep(specs_for([self.CRASH], seeds=(1, 2))))
        status = {c["seed"]: c["status"] for c in doc["cells"]}
        assert status == {1: "ok", 2: "error"}

    def test_run_cell_raises_when_rigged(self, monkeypatch):
        rig_to_crash(monkeypatch, "causal", "eventual")
        with pytest.raises(RuntimeError, match="rigged crash"):
            run_cell(CellSpec("causal", "eventual", 1,
                              duration_ns=DURATION, warmup_ns=WARMUP))


class TestProgress:
    def ok_result(self, spec):
        return CellResult(spec=spec, status="ok",
                          timing={"wall_seconds": 0.5,
                                  "events_per_wall_second": 120_000.0,
                                  "events_processed": 60_000})

    def test_non_tty_is_line_oriented(self):
        stream = io.StringIO()  # isatty() -> False
        progress = SweepProgress(total=2, workers=2, stream=stream)
        spec = CellSpec("causal", "eventual", 1)
        progress.cell_done(self.ok_result(spec))
        progress.cell_done(CellResult(spec=spec, status="error",
                                      error="boom"))
        progress.finish()
        text = stream.getvalue()
        assert "\r" not in text and "\x1b" not in text
        lines = text.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("[1/2]") and "ok" in lines[0]
        assert "ERROR" in lines[1]
        assert "eta" in lines[0]

    def test_tty_rewrites_in_place(self):
        class Tty(io.StringIO):
            def isatty(self):
                return True

        stream = Tty()
        progress = SweepProgress(total=1, workers=1, stream=stream)
        progress.cell_done(self.ok_result(CellSpec("causal", "eventual", 1)))
        progress.finish()
        text = stream.getvalue()
        assert text.startswith("\r\x1b[2K")
        assert text.endswith("\n")


class TestSchemaTag:
    def test_report_carries_current_tag(self):
        doc = build_sweep_report(run_sweep(specs_for(all_ddp_models()[:1])))
        assert doc["schema"] == SWEEP_REPORT_SCHEMA
