"""Tests for cross-run regression diffing (`repro diff` / the CI gate)."""

import json

import pytest

from repro.obs import (DiffError, diff_documents, diff_json, diff_paths,
                       format_markdown, load_artifact)
from repro.obs.diff import DIFF_SCHEMA


def _run_report(p99=1_000.0, throughput=1e8, config_hash="cafe",
                schema="repro.run_report/6", **extra):
    summary = {"throughput_ops_per_s": throughput, "p99_write_ns": p99,
               "mean_write_ns": 800.0, "persists": 5_000}
    summary.update(extra)
    return {"schema": schema, "meta": {"config_hash": config_hash},
            "summary": summary, "windows": []}


def _bench(config_hash="beef", **labels):
    return {"schema": "repro.bench/1", "bench": "fig6",
            "config_hash": config_hash,
            "metrics": labels or {
                "<Causal, Synchronous>": {"throughput_ops_per_s": 1e8},
            }}


class TestVerdicts:
    def test_identical_reports_no_regression(self):
        report = diff_documents(_run_report(), _run_report())
        assert report.verdict == "no-regression"
        assert report.regressions == []
        assert all(e.verdict in ("ok", "info") for e in report.entries)

    def test_p99_inflation_is_a_regression_naming_the_metric(self):
        report = diff_documents(_run_report(),
                                _run_report(p99=1_200.0))  # +20%
        assert report.verdict == "regression"
        names = [(e.label, e.metric) for e in report.regressions]
        assert ("summary", "p99_write_ns") in names

    def test_throughput_drop_is_a_regression(self):
        report = diff_documents(_run_report(), _run_report(throughput=0.8e8))
        assert any(e.metric == "throughput_ops_per_s"
                   for e in report.regressions)

    def test_latency_drop_is_an_improvement(self):
        report = diff_documents(_run_report(), _run_report(p99=800.0))
        assert report.verdict == "no-regression"
        assert any(e.metric == "p99_write_ns" for e in report.improvements)

    def test_noise_threshold_swallows_small_deltas(self):
        report = diff_documents(_run_report(), _run_report(p99=1_040.0))
        assert report.verdict == "no-regression"
        tight = diff_documents(_run_report(), _run_report(p99=1_040.0),
                               threshold=0.01)
        assert tight.verdict == "regression"

    def test_info_metrics_never_regress(self):
        report = diff_documents(_run_report(persists=5_000),
                                _run_report(persists=50_000))
        (entry,) = [e for e in report.entries if e.metric == "persists"]
        assert entry.verdict == "info"
        assert report.verdict == "no-regression"

    def test_nan_values_are_na(self):
        report = diff_documents(_run_report(p99=float("nan")), _run_report())
        (entry,) = [e for e in report.entries if e.metric == "p99_write_ns"]
        assert entry.verdict == "n/a"
        assert entry.delta_frac is None

    def test_absent_metric_is_skipped_not_compared(self):
        base = _run_report()
        del base["summary"]["p99_write_ns"]
        report = diff_documents(base, _run_report())
        assert not any(e.metric == "p99_write_ns" for e in report.entries)


class TestOneSidedKeys:
    """Metrics present in only one artifact are surfaced, never judged."""

    def test_metric_only_in_candidate_listed(self):
        base = _run_report()
        del base["summary"]["p99_write_ns"]
        report = diff_documents(base, _run_report())
        assert report.only_in_candidate == ["summary/p99_write_ns"]
        assert report.only_in_baseline == []
        assert report.verdict == "no-regression"

    def test_metric_only_in_baseline_listed(self):
        cand = _run_report()
        del cand["summary"]["throughput_ops_per_s"]
        report = diff_documents(_run_report(), cand)
        assert report.only_in_baseline == ["summary/throughput_ops_per_s"]

    def test_one_sided_bench_row_listed_whole(self):
        base = _bench(**{
            "<Causal, Synchronous>": {"throughput_ops_per_s": 1e8},
            "<Linearizable, Strict>": {"throughput_ops_per_s": 5e7},
        })
        cand = _bench(**{
            "<Causal, Synchronous>": {"throughput_ops_per_s": 1e8},
        })
        report = diff_documents(base, cand)
        assert report.only_in_baseline == ["<Linearizable, Strict>"]
        assert report.verdict == "no-regression"

    def test_one_sided_keys_rendered_and_serialized(self):
        base = _run_report()
        del base["summary"]["p99_write_ns"]
        cand = _run_report()
        del cand["summary"]["persists"]
        report = diff_documents(base, cand)
        text = format_markdown(report)
        assert "Only in baseline (not compared):" in text
        assert "summary/persists" in text
        assert "Only in candidate (not compared):" in text
        assert "summary/p99_write_ns" in text
        doc = diff_json(report)
        assert doc["only_in_baseline"] == ["summary/persists"]
        assert doc["only_in_candidate"] == ["summary/p99_write_ns"]

    def test_no_one_sided_sections_when_symmetric(self):
        report = diff_documents(_run_report(), _run_report())
        assert report.only_in_baseline == []
        assert report.only_in_candidate == []
        assert "Only in" not in format_markdown(report)


class TestCompatibility:
    def test_config_hash_mismatch_refused(self):
        with pytest.raises(DiffError, match="apples-to-oranges"):
            diff_documents(_run_report(config_hash="aaaa"),
                           _run_report(config_hash="bbbb"))

    def test_force_overrides_the_mismatch(self):
        report = diff_documents(_run_report(config_hash="aaaa"),
                                _run_report(config_hash="bbbb"), force=True)
        assert report.forced
        assert report.config_hash == ("aaaa", "bbbb")

    def test_unhashed_artifacts_still_compare(self):
        old = _run_report()
        del old["meta"]["config_hash"]
        report = diff_documents(old, _run_report())
        assert report.config_hash[0] is None
        assert report.entries

    def test_family_mismatch_refused(self):
        with pytest.raises(DiffError, match="bench"):
            diff_documents(_run_report(), _bench())

    def test_no_shared_rows_refused(self):
        base = _bench(**{"A": {"throughput_ops_per_s": 1e8}})
        cand = _bench(**{"B": {"throughput_ops_per_s": 1e8}})
        with pytest.raises(DiffError, match="no result rows"):
            diff_documents(base, cand)

    @pytest.mark.parametrize("output", [[], ["--json"]],
                             ids=["markdown", "json"])
    def test_no_shared_metrics_refused(self, capsys, tmp_path, output):
        """Shared rows that share no numeric metric compared nothing:
        unusable input, exit 2 — not ``no-regression``."""
        from repro.cli import main

        base, cand = tmp_path / "base.json", tmp_path / "cand.json"
        base.write_text(json.dumps(_run_report() | {
            "summary": {"requests": "x"}}))
        cand.write_text(json.dumps(_run_report() | {
            "summary": {"throughput_ops_per_s": 1e8}}))
        assert main(["diff", str(base), str(cand), *output]) == 2
        assert capsys.readouterr() == (
            "", "repro: the artifacts share no metrics to compare\n")


class TestBenchArtifacts:
    def test_per_label_rows(self):
        base = _bench(**{
            "<Causal, Synchronous>": {"throughput_ops_per_s": 1e8},
            "<Linearizable, Strict>": {"throughput_ops_per_s": 5e7},
        })
        cand = _bench(**{
            "<Causal, Synchronous>": {"throughput_ops_per_s": 1e8},
            "<Linearizable, Strict>": {"throughput_ops_per_s": 3e7},
        })
        report = diff_documents(base, cand)
        assert report.schema_family == "bench"
        assert [(e.label, e.verdict) for e in report.regressions] == \
            [("<Linearizable, Strict>", "regression")]


class TestWallClockProfileRows:
    """Profiled run reports diff their wall-clock metrics as
    direction-annotated *informational* rows: the reader sees whether
    the kernel got faster or slower, the verdict never does."""

    def _profiled(self, events_per_wall_second=80_000.0,
                  wall_seconds=2.0, **extra):
        doc = _run_report(schema="repro.run_report/6")
        doc["profile"] = {
            "events_processed": 250_000,
            "events_per_wall_second": events_per_wall_second,
            "wall_seconds": wall_seconds,
            "loop_wall_seconds": wall_seconds * 0.9,
            "attribution": {"by_event_kind": {"timeout": {"count": 1}}},
            "scheduling": {"messages_handled": 9},
        }
        doc["profile"].update(extra)
        return doc

    def test_profile_row_compared_for_run_reports(self):
        report = diff_documents(self._profiled(), self._profiled())
        labels = {e.label for e in report.entries}
        assert "profile" in labels
        # Nested attribution/scheduling dicts are not flattened.
        metrics = {e.metric for e in report.entries if e.label == "profile"}
        assert metrics == {"events_processed", "events_per_wall_second",
                           "wall_seconds", "loop_wall_seconds"}

    def test_per_message_ratios_are_lifted_and_gated(self):
        """The two ROADMAP item-1 ratios are deterministic counters with
        a direction: lifted out of ``scheduling`` into the profile row,
        and a rise beyond the threshold is a regression."""
        def doc(events_per_message):
            profiled = self._profiled()
            profiled["profile"]["scheduling"].update(
                events_per_message=events_per_message,
                processes_per_message=1.4)
            return profiled

        report = diff_documents(doc(4.5), doc(6.0))
        by_metric = {e.metric: e for e in report.entries
                     if e.label == "profile"}
        assert by_metric["events_per_message"].verdict == "regression"
        assert by_metric["events_per_message"].direction == "lower"
        assert by_metric["processes_per_message"].verdict == "ok"
        assert report.verdict == "regression"
        assert diff_documents(doc(6.0), doc(4.5)).verdict == "no-regression"

    def test_bench_rows_gate_the_per_message_ratios(self):
        base = _bench(**{"lin-sync-5s": {"events_per_message": 4.46,
                                         "processes_per_message": 1.38}})
        cand = _bench(**{"lin-sync-5s": {"events_per_message": 13.8,
                                         "processes_per_message": 2.38}})
        assert sorted(e.metric for e in
                      diff_documents(base, cand).regressions) == \
            ["events_per_message", "processes_per_message"]

    def test_slower_kernel_is_info_worse_never_a_regression(self):
        report = diff_documents(
            self._profiled(events_per_wall_second=100_000.0),
            self._profiled(events_per_wall_second=50_000.0))  # half speed
        (entry,) = [e for e in report.entries
                    if e.metric == "events_per_wall_second"]
        assert entry.verdict == "info-worse"
        assert report.verdict == "no-regression"
        assert report.regressions == []
        assert entry in report.wall_clock_notes

    def test_faster_kernel_is_info_better_not_an_improvement(self):
        report = diff_documents(self._profiled(wall_seconds=2.0),
                                self._profiled(wall_seconds=1.0))
        walls = [e for e in report.entries
                 if e.metric in ("wall_seconds", "loop_wall_seconds")]
        assert {e.verdict for e in walls} == {"info-better"}
        assert report.improvements == []

    def test_wall_clock_noise_is_plain_info(self):
        report = diff_documents(self._profiled(wall_seconds=2.0),
                                self._profiled(wall_seconds=2.02))  # +1%
        (entry,) = [e for e in report.entries
                    if e.metric == "wall_seconds"]
        assert entry.verdict == "info"
        assert entry not in report.wall_clock_notes

    def test_deterministic_profile_counters_stay_info(self):
        """events_processed is seed-determined, not wall-clock: it
        diffs like any other unlisted counter."""
        report = diff_documents(self._profiled(), self._profiled())
        (entry,) = [e for e in report.entries
                    if e.metric == "events_processed"]
        assert entry.direction == "info"
        assert entry.verdict == "info"

    def test_markdown_has_an_informational_section(self):
        report = diff_documents(
            self._profiled(events_per_wall_second=100_000.0),
            self._profiled(events_per_wall_second=150_000.0,
                           wall_seconds=3.0))
        text = format_markdown(report)
        assert "Wall-clock (informational, excluded from verdict):" in text
        assert "faster" in text and "slower" in text
        assert "Regressions:" not in text

    def test_json_lists_wall_clock_notes_separately(self):
        report = diff_documents(
            self._profiled(events_per_wall_second=100_000.0),
            self._profiled(events_per_wall_second=50_000.0))
        doc = diff_json(report)
        assert doc["verdict"] == "no-regression"
        assert doc["regressions"] == []
        assert "profile/events_per_wall_second" in doc["wall_clock_notes"]
        json.dumps(doc, allow_nan=False)

    def test_kernel_bench_rows_get_the_same_treatment(self):
        """BENCH_kernel.json points carry the same wall-clock metric
        names; per-label bench rows inherit the informational verdicts."""
        base = _bench(**{"causal-eventual-3s":
                         {"events_per_wall_second": 80_000.0,
                          "throughput_ops_per_s": 1e8}})
        cand = _bench(**{"causal-eventual-3s":
                         {"events_per_wall_second": 40_000.0,
                          "throughput_ops_per_s": 1e8}})
        report = diff_documents(base, cand)
        (entry,) = report.wall_clock_notes
        assert entry.label == "causal-eventual-3s"
        assert entry.verdict == "info-worse"
        assert report.verdict == "no-regression"

    def test_unprofiled_reports_have_no_profile_row(self):
        report = diff_documents(_run_report(), _run_report())
        assert all(e.label == "summary" for e in report.entries)
        assert report.wall_clock_notes == []


class TestAuditRows:
    """Run reports carrying an `audit` section diff its totals: new
    contract violations over a clean baseline must be regressions even
    though the baseline count is zero."""

    def _audited(self, violations=0, cells_failed=0, target_failed=0,
                 wall=0.05):
        doc = _run_report(schema="repro.run_report/6")
        doc["audit"] = {
            "schema": "repro.audit_report/1",
            "usable": True,
            "totals": {"cells": 25, "cells_failed": cells_failed,
                       "violations_total": violations,
                       "target_failed_checks": target_failed,
                       "checker_wall_seconds": wall},
        }
        return doc

    def test_audit_totals_compared(self):
        report = diff_documents(self._audited(), self._audited())
        metrics = {e.metric for e in report.entries if e.label == "audit"}
        assert {"cells_failed", "violations_total",
                "target_failed_checks"} <= metrics
        assert report.verdict == "no-regression"

    def test_new_violations_over_clean_baseline_regress(self):
        report = diff_documents(self._audited(violations=0),
                                self._audited(violations=4))
        names = [(e.label, e.metric) for e in report.regressions]
        assert ("audit", "violations_total") in names
        assert report.verdict == "regression"

    def test_target_cell_break_is_a_regression(self):
        report = diff_documents(
            self._audited(), self._audited(target_failed=1, cells_failed=1))
        names = [(e.label, e.metric) for e in report.regressions]
        assert ("audit", "target_failed_checks") in names

    def test_fixed_violations_are_an_improvement(self):
        report = diff_documents(self._audited(violations=4),
                                self._audited(violations=0))
        assert any(e.metric == "violations_total"
                   for e in report.improvements)
        assert report.verdict == "no-regression"

    def test_checker_wall_time_stays_informational(self):
        report = diff_documents(self._audited(wall=0.05),
                                self._audited(wall=5.0))
        (entry,) = [e for e in report.entries
                    if e.metric == "checker_wall_seconds"]
        assert entry.verdict == "info-worse"
        assert report.verdict == "no-regression"

    def test_unaudited_reports_have_no_audit_rows(self):
        report = diff_documents(_run_report(), _run_report())
        assert not any(e.label == "audit" for e in report.entries)


class TestLoading:
    def test_roundtrip_via_paths(self, tmp_path):
        base, cand = tmp_path / "a.json", tmp_path / "b.json"
        base.write_text(json.dumps(_run_report()))
        cand.write_text(json.dumps(_run_report(p99=1_500.0)))
        report = diff_paths(str(base), str(cand))
        assert report.verdict == "regression"
        assert report.baseline == str(base)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DiffError, match="cannot read"):
            load_artifact(str(tmp_path / "nope.json"))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(DiffError, match="not valid JSON"):
            load_artifact(str(path))

    def test_missing_schema(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"traceEvents": []}))
        with pytest.raises(DiffError, match="no schema field"):
            load_artifact(str(path))

    def test_unsupported_schema(self, tmp_path):
        path = tmp_path / "future.json"
        path.write_text(json.dumps({"schema": "repro.run_report/99"}))
        with pytest.raises(DiffError, match="unknown repro.run_report "
                                            "version"):
            load_artifact(str(path))

    def test_old_run_report_schemas_accepted(self, tmp_path):
        for schema in ("repro.run_report/5", "repro.run_report/6"):
            path = tmp_path / "old.json"
            path.write_text(json.dumps(_run_report(schema=schema)))
            assert load_artifact(str(path))["schema"] == schema

    def test_a_retired_run_report_is_refused_in_one_line(self, capsys,
                                                         tmp_path):
        """The loader keeps the current run-report version plus one: a
        ``/4`` document is the registry's one-line error, exit 2."""
        from repro.cli import main

        old, new = tmp_path / "old.json", tmp_path / "new.json"
        old.write_text(json.dumps(_run_report(schema="repro.run_report/4")))
        new.write_text(json.dumps(_run_report()))
        assert main(["diff", str(old), str(new)]) == 2
        assert capsys.readouterr().err == (
            f"repro: {old}: unknown repro.run_report version /4 "
            f"(known: 5, 6)\n")


class TestRendering:
    def test_markdown_leads_with_the_verdict(self):
        report = diff_documents(_run_report(), _run_report(p99=1_300.0))
        text = format_markdown(report)
        assert text.startswith("# repro diff — regression")
        assert "p99_write_ns" in text
        assert "+30.0%" in text

    def test_markdown_show_ok_false_hides_quiet_rows(self):
        report = diff_documents(_run_report(), _run_report(p99=1_300.0))
        text = format_markdown(report, show_ok=False)
        assert "p99_write_ns" in text
        assert "persists" not in text

    def test_json_document(self):
        report = diff_documents(_run_report(), _run_report(p99=1_300.0),
                                threshold=0.1)
        doc = diff_json(report)
        assert doc["schema"] == DIFF_SCHEMA
        assert doc["verdict"] == "regression"
        assert doc["regressions"] == ["summary/p99_write_ns"]
        assert doc["threshold"] == 0.1
        json.dumps(doc, allow_nan=False)  # strict JSON

    def test_json_verdict_is_deterministic(self):
        a = diff_json(diff_documents(_run_report(), _run_report()))
        b = diff_json(diff_documents(_run_report(), _run_report()))
        assert a == b


def _sweep(config_hash="feed", cells=None):
    if cells is None:
        cells = [_sweep_cell("causal", "eventual", 1)]
    return {"schema": "repro.sweep_report/1",
            "meta": {"config_hash": config_hash},
            "cells": cells,
            "totals": {"cells": len(cells),
                       "ok": sum(1 for c in cells
                                 if c["status"] == "ok"),
                       "errors": sum(1 for c in cells
                                     if c["status"] != "ok")}}


def _sweep_cell(consistency, persistency, seed, status="ok",
                throughput=1e8, p99=1_000.0):
    cell = {"consistency": consistency, "persistency": persistency,
            "seed": seed, "model": f"<{consistency}, {persistency}>",
            "status": status}
    if status == "ok":
        cell["summary"] = {"throughput_ops_per_s": throughput,
                           "p99_write_ns": p99}
    else:
        cell["error"] = "RuntimeError: boom"
    return cell


class TestSweepReports:
    def test_identical_sweeps_no_regression(self):
        report = diff_documents(_sweep(), _sweep())
        assert report.verdict == "no-regression"

    def test_per_cell_metric_regression(self):
        base = _sweep(cells=[_sweep_cell("causal", "eventual", 1),
                             _sweep_cell("eventual", "eventual", 1)])
        cand = _sweep(cells=[_sweep_cell("causal", "eventual", 1),
                             _sweep_cell("eventual", "eventual", 1,
                                         throughput=5e7)])
        report = diff_documents(base, cand)
        assert report.verdict == "regression"
        labels = {e.label for e in report.regressions}
        assert labels == {"eventual/eventual@seed1"}

    def test_candidate_only_crash_is_a_regression(self):
        base = _sweep()
        cand = _sweep(cells=[_sweep_cell("causal", "eventual", 1,
                                         status="error")])
        report = diff_documents(base, cand)
        assert report.verdict == "regression"
        assert any(e.metric == "cell_error" for e in report.regressions)

    def test_crash_fixed_in_candidate_is_improvement(self):
        base = _sweep(cells=[_sweep_cell("causal", "eventual", 1,
                                         status="error")])
        report = diff_documents(base, _sweep())
        assert report.verdict == "no-regression"
        assert any(e.metric == "cell_error"
                   for e in report.improvements)

    def test_one_sided_cells_listed_never_veto(self):
        base = _sweep(cells=[_sweep_cell("causal", "eventual", 1),
                             _sweep_cell("causal", "eventual", 2)])
        cand = _sweep(cells=[_sweep_cell("causal", "eventual", 1),
                             _sweep_cell("eventual", "eventual", 1)])
        report = diff_documents(base, cand)
        assert report.verdict == "no-regression"
        assert "causal/eventual@seed2" in report.only_in_baseline
        assert "eventual/eventual@seed1" in report.only_in_candidate

    def test_config_hash_mismatch_rejected(self):
        with pytest.raises(DiffError, match="config mismatch"):
            diff_documents(_sweep("aaaa"), _sweep("bbbb"))

    def test_sweep_vs_run_report_rejected(self):
        with pytest.raises(DiffError, match="cannot diff"):
            diff_documents(_sweep(), _run_report())

    def test_exit_semantics_via_paths(self, tmp_path):
        base, cand = tmp_path / "a.json", tmp_path / "b.json"
        base.write_text(json.dumps(_sweep()))
        cand.write_text(json.dumps(_sweep(cells=[
            _sweep_cell("causal", "eventual", 1, status="error")])))
        report = diff_paths(str(base), str(cand))
        assert report.verdict == "regression"
        assert report.schema_family == "sweep_report"
