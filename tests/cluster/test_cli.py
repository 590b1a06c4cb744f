"""Tests for the command-line interface."""

import json
import re
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from tests.harness import rig_to_crash


class TestParser:
    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.consistency == "causal"
        assert args.persistency == "synchronous"
        assert args.workload == "A"

    def test_bad_model_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--consistency", "serializable"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_nonpositive_observability_values_rejected(self):
        for argv in (["profile", "m.json", "--top", "0"],
                     ["profile", "m.json", "--top", "-5"],
                     ["diff", "a.json", "b.json", "--threshold", "0"],
                     ["sweep", "--workers", "0"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(argv)

    # The id is the one the case had while two run flags preceded it.
    @pytest.mark.parametrize("argv", [
        pytest.param(["diff", "a.json", "b.json", "--threshold"],
                     id="argv2")])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_nonfinite_float_values_rejected(self, capsys, argv, value):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv + [value])
        assert exc.value.code == 2
        assert f"must be positive and finite: {value}" in capsys.readouterr().err

    def test_unwritable_artifact_path_fails_before_simulating(
            self, capsys, tmp_path, monkeypatch):
        """Every subcommand that writes: one ``repro: cannot write``
        line and exit 2 — before simulating (or sweeping, for
        ``order``), where it does."""
        small = ["--servers", "3", "--clients", "6", "--duration-us", "20"]
        history = str(tmp_path / "h.jsonl")
        report = str(tmp_path / "m.json")
        assert main(["run", *small, "--history-out", history,
                     "--metrics-out", report]) == 0
        capsys.readouterr()

        def simulated(*args, **kwargs):
            raise AssertionError("simulated before checking the path")

        monkeypatch.setattr("repro.obs.run.observed_run", simulated)
        monkeypatch.setattr("repro.obs.sweep.run_sweep", simulated)
        monkeypatch.setattr("repro.devtools.sanitizer.sweep", simulated)
        bad = str(tmp_path / "no-such-dir" / "out")
        for argv in (["run", *small, "--trace-out", bad],
                     ["run", *small, "--metrics-out", bad],
                     ["run", *small, "--history-out", bad],
                     ["sweep", *small, "--out", bad],
                     ["audit", history, "--out", bad],
                     ["diff", report, report, "--out", bad],
                     ["order", "--sweep-out", bad]):
            code = main(argv)
            err = capsys.readouterr().err
            assert code == 2, argv
            assert err.startswith(f"repro: cannot write {bad}"), argv
            assert err.count("\n") == 1 and "Traceback" not in err, argv


class TestRunShape:
    """Run-shape validation lives in ``CellSpec.__post_init__``; the CLI
    surfaces it as one ``repro:`` line and exit 2."""

    @staticmethod
    def rejected(capsys, *flags, command="run"):
        code = main([command, *flags])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("repro: ")
        assert captured.err.count("\n") == 1
        return captured.err

    def test_zero_servers_is_an_error_not_a_zero_division(self, capsys):
        assert "at least 2 servers" in self.rejected(capsys, "--servers", "0")

    def test_negative_duration_is_an_error_not_a_traceback(self, capsys):
        assert "duration" in self.rejected(capsys, "--duration-us", "-5")

    def test_zero_duration_is_an_error_not_a_nan_table(self, capsys):
        assert "duration" in self.rejected(capsys, "--duration-us", "0")

    def test_fewer_clients_than_servers_is_an_error_not_an_empty_run(
            self, capsys):
        err = self.rejected(capsys, "--clients", "3", "--servers", "5")
        assert "3 clients cannot cover 5 servers" in err
        # The sweep builds its cells from the same spec.
        assert main(["sweep", "--clients", "3", "--servers", "5"]) == 2
        assert "3 clients cannot cover 5 servers" in capsys.readouterr().err

    def test_unusable_fault_plan_is_an_error_not_exit_1(self, capsys,
                                                        tmp_path):
        plan = tmp_path / "plan.json"
        plan.write_text('{"events": [{"kind": "meteor"}]}')
        nan = tmp_path / "nan.json"
        nan.write_text('{"events": [{"kind": "crash", "node": 1, '
                       '"at_us": "nan"}]}')
        # A null seed used to end in int()'s TypeError mid-build.
        null_seed = tmp_path / "null_seed.json"
        null_seed.write_text('{"seed": null, "events": []}')
        for path in (plan, tmp_path / "missing.json", nan, null_seed):
            assert self.rejected(capsys, "--faults", str(path)).startswith(
                "repro: bad fault plan")

    @pytest.mark.parametrize("flags, message", [
        (["--crash", "bad"], "bad crash spec 'bad'"),
        (["--crash", "1@-5"], "at_us must be >= 0"),
        (["--crash", "9@10"], "targets node 9"),
        (["--crash", "1@nan"], "at_us must be finite"),
    ])
    def test_unusable_crash_or_health_flag_is_an_error_not_a_traceback(
            self, capsys, flags, message):
        assert message in self.rejected(capsys, "--servers", "3",
                                        "--clients", "6", *flags)

    def test_a_crash_of_a_node_still_down_is_an_error_not_a_live_restart(
            self, capsys, tmp_path):
        """The plan used to run: the first crash's restart hit node 1
        while it was alive, and started its clients a second time."""
        down = ["--crash", "1@2+6", "--crash", "1@3+1"]
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"events": [
            {"kind": "crash", "node": 1, "at_us": 2, "restart_after_us": 6},
            {"kind": "crash", "node": 1, "at_us": 3,
             "restart_after_us": 1}]}))
        first = tmp_path / "first.json"
        first.write_text(json.dumps({"events": [
            {"kind": "crash", "node": 1, "at_us": 2, "restart_after_us": 6}]}))
        # Plan seed 7 picks node 1 out of three.
        picked = tmp_path / "picked.json"
        picked.write_text(json.dumps({"seed": 7, "events": [
            {"kind": "crash", "node": None, "at_us": 2,
             "restart_after_us": 6}]}))
        for flags in (down, ["--faults", str(plan)],
                      ["--faults", str(first), "--crash", "1@3+1"],
                      ["--faults", str(picked), "--crash", "1@3+1"]):
            err = self.rejected(capsys, "--servers", "3", "--clients", "6",
                                "--duration-us", "12", *flags)
            assert err.startswith("repro: bad fault plan"), flags
            assert "node 1 is crashed at 3 us while still down" in err, flags

    def test_a_rejected_invocation_leaves_its_outputs_as_they_were(
            self, capsys, tmp_path):
        """The writability check runs before the rest of the input is
        validated, so it must not truncate: a rejected ``run`` or
        ``order`` leaves an existing output byte-identical and creates
        no new one."""
        old, fresh = tmp_path / "old.json", tmp_path / "fresh.json"
        history = tmp_path / "fresh.jsonl"
        old.write_bytes(b'{"kept": true}\n')
        for argv in (["run", "--servers", "3", "--clients", "6",
                      "--metrics-out", str(old), "--trace-out", str(fresh),
                      "--history-out", str(history), "--crash", "9@10"],
                     ["order", "--seeds", "1", "1", "--sweep-out", str(old)]):
            assert main(argv) == 2, argv
            assert capsys.readouterr().err.startswith("repro: "), argv
            assert old.read_bytes() == b'{"kept": true}\n', argv
            assert not fresh.exists() and not history.exists(), argv

    def test_a_repeated_sweep_seed_is_an_error_not_a_cell_run_twice(
            self, capsys):
        err = self.rejected(capsys, "--seeds", "3", "3", command="sweep")
        assert "repeat a seed" in err

    @pytest.mark.parametrize("first, second", [
        ("--trace-out", "--metrics-out"), ("--history-out", "--trace-out"),
        ("--metrics-out", "--history-out")])
    def test_two_outputs_on_one_path_are_an_error_not_a_lost_artifact(
            self, capsys, tmp_path, monkeypatch, first, second):
        """The second writer used to overwrite the first: ``run
        --trace-out same.json --metrics-out same.json`` left the report
        where it had announced the trace."""
        monkeypatch.chdir(tmp_path)
        same = tmp_path / "same.json"
        same.write_bytes(b'{"kept": true}\n')

        def simulated(*args, **kwargs):
            raise AssertionError("simulated before checking the paths")

        monkeypatch.setattr("repro.obs.run.observed_run", simulated)
        for other in ("same.json", str(same), "./sub/../same.json"):
            (tmp_path / "sub").mkdir(exist_ok=True)
            err = self.rejected(capsys, "--servers", "3", "--clients", "6",
                                first, "same.json", second, other)
            assert err.rstrip().endswith("same path"), other
            assert same.read_bytes() == b'{"kept": true}\n', other

    def test_meta_records_the_client_count_the_run_had(self, capsys,
                                                       tmp_path):
        metas = {}
        for clients in ("6", "7"):
            path = tmp_path / f"m{clients}.json"
            assert main(["run", "--servers", "3", "--clients", clients,
                         "--duration-us", "20",
                         "--metrics-out", str(path)]) == 0
            metas[clients] = json.loads(path.read_text())["meta"]
        assert metas["7"]["clients"] == 6
        assert metas["7"] == metas["6"]


class TestCommands:
    def test_run(self, capsys):
        code = main(["run", "--consistency", "causal",
                     "--persistency", "eventual",
                     "--servers", "3", "--clients", "6",
                     "--duration-us", "30"])
        out = capsys.readouterr().out
        assert code == 0
        assert "<Causal, Eventual>" in out
        assert "thr(Mops/s)" in out

    def test_sweep_default_selection(self, capsys):
        code = main(["sweep", "--servers", "3", "--clients", "6",
                     "--duration-us", "20"])
        out = capsys.readouterr().out
        assert code == 0
        assert "<Linearizable, Synchronous>" in out
        assert "<Eventual, Eventual>" in out
        assert "thr(norm)" in out

    def test_tradeoffs(self, capsys):
        code = main(["tradeoffs"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("\n") == 10  # the ten Table 4 rows

    def test_tradeoffs_all(self, capsys):
        code = main(["tradeoffs", "--all"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("\n") == 25

    def test_run_with_observability_artifacts(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.json"
        report_path = tmp_path / "report.json"
        code = main(["run", "--servers", "3", "--clients", "6",
                     "--duration-us", "30",
                     "--trace-out", str(trace_path),
                     "--metrics-out", str(report_path), "--profile"])
        out = capsys.readouterr().out
        assert code == 0
        assert "trace" in out and "metrics" in out and "kernel:" in out

        trace = json.loads(trace_path.read_text())
        events = trace["traceEvents"]
        assert events, "trace must contain events"
        assert {"i", "X", "M"} <= {e["ph"] for e in events}
        assert all("pid" in e and "tid" in e for e in events)
        assert all("ts" in e for e in events if e["ph"] != "M")
        assert trace["otherData"]["record_count"] > 0

        report = json.loads(report_path.read_text())
        assert report["schema"] == "repro.run_report/6"
        assert report["meta"]["window_ns"] == 10_000.0
        assert len(report["meta"]["config_hash"]) == 16
        assert report["windows"], "windowed throughput series missing"
        assert all("p50_ns" in w and "p99_ns" in w
                   and "throughput_ops_per_s" in w
                   for w in report["windows"])
        assert report["windows_by_node"]
        assert report["messages"]["windows_by_type"]
        assert report["lag"]["per_node"], "VP/DP lag series missing"
        first_node = next(iter(report["lag"]["per_node"].values()))
        assert "vp_mean_ns" in first_node[0]
        assert "dp_p99_ns" in first_node[0]
        assert report["profile"]["events_processed"] > 0
        # The /5 enrichment rides along whenever --profile is set.
        assert report["profile"]["attribution"]["by_event_kind"]
        assert report["profile"]["scheduling"]["messages_handled"] > 0
        assert report["trace"]["records"] > 0

    def test_trace_subcommand(self, capsys, tmp_path):
        out_path = tmp_path / "trace.json"
        assert main(["run", "--consistency", "causal",
                     "--persistency", "eventual",
                     "--servers", "3", "--clients", "6",
                     "--duration-us", "30", "--trace-out",
                     str(out_path)]) == 0
        capsys.readouterr()
        code = main(["trace", str(out_path), "--limit", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "model <Causal, Eventual>" in out
        assert "category counts:" in out
        assert "msg_send" in out
        shown = out.split("first 3 events:\n")[1].splitlines()
        assert len(shown) == 3
        times = [float(re.match(r"\[\s*([\d.]+)ns\]", line).group(1))
                 for line in shown]
        assert times == sorted(times)

    def test_trace_subcommand_category_filter(self, capsys, tmp_path):
        path = tmp_path / "trace.json"
        assert main(["run", "--servers", "3", "--clients", "6",
                     "--duration-us", "20", "--trace-out", str(path)]) == 0
        capsys.readouterr()
        code = main(["trace", str(path), "--category", "persist",
                     "--limit", "3"])
        out = capsys.readouterr().out
        assert code == 0
        counts, events = out.split("category counts:\n")[1].split("\n\n")
        assert re.fullmatch(r"  persist +\d+", counts)
        events = events.splitlines()[1:]
        assert 0 < len(events) <= 3
        assert all(re.match(r"\[\s*[\d.]+ns\] +n\d persist ", line)
                   for line in events), events
        assert "msg_send" not in out

    def test_recover(self, capsys):
        code = main(["recover", "--consistency", "linearizable",
                     "--persistency", "strict",
                     "--servers", "3", "--clients", "6",
                     "--duration-us", "30"])
        out = capsys.readouterr().out
        assert code == 0
        assert "keys in NVM images" in out
        served = re.findall(r"node (\d) time to serve : [\d.]+ us \(scan "
                            r"[\d.]+ us, catch-up [\d.]+ us, \d+ keys "
                            r"fetched\)", out)
        assert served == ["0", "1", "2"]

    def test_run_with_health_monitoring(self, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        trace_path = tmp_path / "trace.json"
        code = main(["run", "--servers", "3", "--clients", "6",
                     "--duration-us", "30", "--health",
                     "--metrics-out", str(report_path),
                     "--trace-out", str(trace_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "health" in out and "violations=0" in out
        report = json.loads(report_path.read_text())
        health = report["health"]
        assert health["samples"] > 0
        assert health["violations"]["total"] == 0
        assert set(health["series"]["per_node"]) == {"0", "1", "2"}
        trace = json.loads(trace_path.read_text())
        counters = [e for e in trace["traceEvents"] if e.get("ph") == "C"]
        assert {e["name"] for e in counters} == {"health.kernel",
                                                "health.pressure"}

    def test_journey_caps_report_their_drops(self, capsys, tmp_path):
        """A tracker's losses reach the report and the ``journey`` view
        of it: a truncated population never reads as complete."""
        from repro.obs import (CellSpec, JourneyTracker, observed_run,
                               section_observers, write_run_report)
        spec = CellSpec("causal", "synchronous", 2021, servers=3, clients=6,
                        duration_ns=30_000.0, warmup_ns=3_000.0,
                        sections=("journeys",))
        observers = section_observers(spec, report=True)
        observers.journey = JourneyTracker(3)
        observers.journey.dropped = 4  # a tracker keeps all: set a loss
        report_path = tmp_path / "report.json"
        write_run_report(str(report_path), observed_run(spec, observers).report)
        report = json.loads(report_path.read_text())
        tracked = report["journeys"]["journeys"]
        assert tracked == len(observers.journey) > 0
        assert report["journeys"]["dropped"] == 4
        assert main(["journey", str(report_path)]) == 0
        assert f"({tracked} journeys tracked, 4 dropped)" in \
            capsys.readouterr().out

    def test_run_audit_passes_own_model(self, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        plan_path = tmp_path / "chaos-plan.json"
        plan_path.write_text(json.dumps({"seed": 7, "events": [
            {"kind": "drop", "at_us": 10, "duration_us": 15,
             "probability": 0.1},
            {"kind": "crash", "node": 1, "at_us": 30,
             "restart_after_us": 20}]}))
        for chaos in ([], ["--faults", str(plan_path)]):
            code = main(["run", "--consistency", "linearizable",
                         "--persistency", "synchronous",
                         "--servers", "3", "--clients", "6",
                         "--duration-us", "80", "--audit", *chaos,
                         "--metrics-out", str(report_path)])
            out = capsys.readouterr().out
            assert code == 0
            assert "target <linearizable, synchronous>: PASS" in out
            report = json.loads(report_path.read_text())
            assert report["schema"] == "repro.run_report/6"
            audit = report["audit"]
            assert audit["schema"] == "repro.audit_report/1"
            assert audit["usable"] and audit["target"]["ok"]
            assert audit["totals"]["cells"] == 25
            assert ("faults" in report) == bool(chaos)
        faults = report["faults"]
        assert faults["injected"]["crashes"] == 1
        assert faults["injected"]["restarts"] == 1
        assert faults["membership"]["live"] == [0, 1, 2]
        assert any(e["kind"] == "restart" for e in faults["events"])
        assert "VIOLATED" not in out

    def test_history_out_then_audit_subcommand(self, capsys, tmp_path):
        history_path = tmp_path / "history.jsonl"
        code = main(["run", "--consistency", "causal",
                     "--persistency", "synchronous",
                     "--servers", "3", "--clients", "6",
                     "--duration-us", "30",
                     "--history-out", str(history_path)])
        assert code == 0
        assert history_path.exists()
        capsys.readouterr()

        code = main(["audit", str(history_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "target <causal, synchronous>: PASS" in out

    def test_audit_cross_model_override_fails(self, capsys, tmp_path):
        history_path = tmp_path / "history.jsonl"
        out_path = tmp_path / "audit.json"
        main(["run", "--consistency", "eventual",
              "--persistency", "eventual",
              "--servers", "3", "--clients", "6",
              "--duration-us", "60",
              "--history-out", str(history_path)])
        capsys.readouterr()
        code = main(["audit", str(history_path),
                     "--consistency", "linearizable",
                     "--persistency", "strict", "--out", str(out_path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "target <linearizable, strict>: FAIL" in out
        target = json.loads(out_path.read_text())["target"]
        assert not target["ok"] and target["failed_checks"]

    def test_audit_json_document(self, capsys, tmp_path):
        history_path = tmp_path / "history.jsonl"
        out_path = tmp_path / "audit.json"
        main(["run", "--servers", "3", "--clients", "6",
              "--duration-us", "30",
              "--history-out", str(history_path)])
        capsys.readouterr()
        code = main(["audit", str(history_path), "--json",
                     "--out", str(out_path)])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["schema"] == "repro.audit_report/1"
        assert doc["usable"]
        assert json.loads(out_path.read_text()) == doc

    def test_audit_rejects_non_history_file(self, capsys, tmp_path):
        path = tmp_path / "not_history.json"
        header = '{"schema": "repro.history/1"}\n'
        for text, complaint in [
                ("not a history\n", "not JSONL"),
                ('{"schema": "repro.run_report/6"}\n', "not a repro.history/1"),
                # An op line that is not an op: a verdict, not a traceback.
                (header + "{}\n", ":2: bad op line"),
                (header + "[1,2]\n", ":2: bad op line"),
                (header + '{"index": "x"}\n', ":2: bad op line")]:
            path.write_text(text)
            code = main(["audit", str(path)])
            err = capsys.readouterr().err
            assert code == 2
            assert err.startswith("repro:") and err.count("\n") == 1
            assert complaint in err

    def test_audit_missing_file_exits_2(self, capsys, tmp_path):
        code = main(["audit", str(tmp_path / "missing.jsonl")])
        assert code == 2
        assert "repro:" in capsys.readouterr().err

    def test_profile_prints_the_hotspot_table(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        assert main(["run", "--servers", "3", "--clients", "6",
                     "--duration-us", "30", "--profile",
                     "--metrics-out", str(path)]) == 0
        kernel = capsys.readouterr().out.splitlines()[-1]
        code = main(["profile", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        # The line ``run --profile`` printed, read back from the report.
        assert out.splitlines()[0] == (
            "model: <Causal, Synchronous>   throughput: "
            f"{json.loads(path.read_text())['summary']['throughput_ops_per_s'] / 1e6:.2f}"
            f" Mops/s   {kernel}")
        assert "kernel loop:" in out
        assert "by event kind" in out
        assert "by message handler" in out
        assert "timeout" in out
        assert "scheduling:" in out


class TestInputFileModes:
    """``trace`` / ``journey`` / ``profile`` read what ``run`` and
    ``sweep`` wrote; they never simulate."""

    def test_trace_reopens_a_saved_file(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        assert main(["run", "--servers", "3", "--clients", "6",
                     "--duration-us", "20", "--trace-out", str(path)]) == 0
        capsys.readouterr()
        code = main(["trace", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "category counts:" in out
        assert "msg_send" in out
        assert "first 20 events:" in out

    def test_trace_missing_file_exits_2(self, capsys, tmp_path):
        code = main(["trace", str(tmp_path / "nope.json")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("repro: cannot read")
        assert "Traceback" not in captured.err

    def test_trace_schema_mismatch_exits_2(self, capsys, tmp_path):
        path = tmp_path / "not-a-trace.json"
        path.write_text(json.dumps({"schema": "repro.run_report/6"}))
        code = main(["trace", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert "not a Chrome trace_event file" in captured.err

    def test_journey_reopens_a_saved_report(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        assert main(["run", "--servers", "3", "--clients", "6",
                     "--duration-us", "30",
                     "--journeys", "--metrics-out", str(path)]) == 0
        capsys.readouterr()
        journeys = json.loads(path.read_text())["journeys"]
        assert journeys["journeys"] > 0
        assert journeys["buckets"] == [
            "network", "coord_wait", "nvm_queue", "device", "compute"]
        for point in ("vp", "dp"):
            aggregate = journeys[point]
            assert (abs(sum(aggregate["buckets_ns"].values())
                        - aggregate["mean_latency_ns"]) < 1e-6), point
        code = main(["journey", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("critical-path waterfall — "
                              "<Causal, Synchronous>  "
                              f"({journeys['journeys']} journeys tracked)")
        assert "VP (visibility)" in out and "DP (durability)" in out
        assert "by coordinator node:" in out
        assert out.count("    key=") == len(journeys["slowest"]) == 5

    def test_journey_unreadable_file_exits_2(self, capsys, tmp_path):
        code = main(["journey", str(tmp_path / "nope.json")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("repro: cannot read")

    def test_journey_report_without_journeys_exits_2(self, capsys, tmp_path):
        path = tmp_path / "plain.json"
        assert main(["run", "--servers", "3", "--clients", "6",
                     "--duration-us", "20",
                     "--metrics-out", str(path)]) == 0
        sweep = tmp_path / "sweep.json"
        assert main(["sweep", *_SMALL, "--no-progress",
                     "--out", str(sweep)]) == 0
        capsys.readouterr()
        for report, hint in ((path, "run --journeys --metrics-out"),
                             (sweep, "sweep --journeys --out")):
            code = main(["journey", str(report)])
            captured = capsys.readouterr()
            assert code == 2
            assert captured.out == ""
            assert captured.err.startswith("repro: ")
            assert captured.err.count("\n") == 1
            assert "no journeys section" in captured.err
            assert hint in captured.err

    def test_journey_prints_a_cell_alike_from_a_run_or_a_sweep(
            self, capsys, tmp_path):
        """A run report and a sweep report of the same cell give the
        same waterfall; a sweep gives one per ``ok`` cell."""
        sweep, run = tmp_path / "sweep.json", tmp_path / "run.json"
        assert main(["sweep", *_SMALL, "--journeys", "--no-progress",
                     "--out", str(sweep)]) == 0
        assert main(["run", *_SMALL, "--consistency", "transactional",
                     "--journeys", "--metrics-out", str(run)]) == 0
        capsys.readouterr()
        assert main(["journey", str(run)]) == 0
        single = capsys.readouterr().out
        assert main(["journey", str(sweep)]) == 0
        blocks = capsys.readouterr().out.rstrip("\n").split("\n\n")
        cells = json.loads(sweep.read_text())["cells"]
        assert len(blocks) == len(cells) == 6
        assert [block.split("\n")[0].split(" — ")[1].split("  (")[0]
                for block in blocks] == [cell["model"] for cell in cells]
        assert single.rstrip("\n") in blocks

    def test_profile_of_a_sweep_or_a_report_without_one_exits_2(
            self, capsys, tmp_path):
        plain, sweep = tmp_path / "plain.json", tmp_path / "sweep.json"
        assert main(["run", *_SMALL, "--metrics-out", str(plain)]) == 0
        assert main(["sweep", *_SMALL, "--profile", "--no-progress",
                     "--out", str(sweep)]) == 0
        capsys.readouterr()
        for report, message in (
                (plain, "no profile section"),
                (sweep, "run --profile --metrics-out")):
            code = main(["profile", str(report)])
            captured = capsys.readouterr()
            assert code == 2, report
            assert captured.out == "", report
            assert captured.err.startswith("repro: "), report
            assert captured.err.count("\n") == 1, report
            assert message in captured.err, report

    def test_the_readers_never_simulate(self, capsys, tmp_path,
                                        monkeypatch):
        trace, report = tmp_path / "t.json", tmp_path / "m.json"
        assert main(["run", *_SMALL, "--trace-out", str(trace), "--journeys",
                     "--metrics-out", str(report), "--profile"]) == 0
        capsys.readouterr()

        def simulated(*args, **kwargs):
            raise AssertionError("a reader simulated")

        monkeypatch.setattr("repro.obs.run.observed_run", simulated)
        monkeypatch.setattr("repro.cluster.cluster.Cluster.__init__",
                            simulated)
        for argv in (["trace", str(trace)], ["journey", str(report)],
                     ["profile", str(report)]):
            assert main(argv) == 0, argv
            assert capsys.readouterr().out, argv

    def test_journey_invalid_json_exits_2(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{oops")
        code = main(["journey", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert "not valid JSON" in captured.err

    def test_reopened_artifact_of_the_wrong_shape_exits_2(self, capsys,
                                                          tmp_path):
        """A section that is not the JSON type its reader walks is one
        ``repro:`` line and exit 2, not an AttributeError."""
        report = tmp_path / "report.json"
        assert main(["run", "--servers", "3", "--clients", "6",
                     "--duration-us", "20", "--journeys",
                     "--metrics-out", str(report)]) == 0
        doc = json.loads(report.read_text())
        trace = {"traceEvents": [{"ph": "X", "name": "a"}, 7]}
        bad_meta = dict(doc, meta=["model"])
        bad_vp = dict(doc, journeys=dict(doc["journeys"], vp=[1, 2]))
        bad_profile = dict(doc, profile={"attribution": {}})
        capsys.readouterr()
        for command, content, message in (
                ("trace", trace, "malformed trace (AttributeError"),
                ("journey", bad_meta, "'meta' is a list, not a JSON object"),
                ("journey", bad_vp, "malformed journeys section (TypeError"),
                ("profile", bad_profile, "malformed profile section")):
            path = tmp_path / "bad.json"
            path.write_text(json.dumps(content))
            code = main([command, str(path)])
            captured = capsys.readouterr()
            assert code == 2, command
            assert captured.out == "", command
            assert captured.err.startswith("repro: "), command
            assert message in captured.err, command
            assert captured.err.count("\n") == 1, command


class TestDiffCommand:
    def _report(self, tmp_path, name, seed="2021"):
        path = tmp_path / name
        assert main(["run", "--servers", "3", "--clients", "6",
                     "--duration-us", "20", "--seed", seed,
                     "--metrics-out", str(path)]) == 0
        return path

    def test_same_seed_no_regression(self, capsys, tmp_path):
        base = self._report(tmp_path, "a.json")
        cand = self._report(tmp_path, "b.json")
        capsys.readouterr()
        code = main(["diff", str(base), str(cand)])
        out = capsys.readouterr().out
        assert code == 0
        assert "no-regression" in out

    def test_injected_p99_regression_names_the_metric(self, capsys,
                                                      tmp_path):
        base = self._report(tmp_path, "a.json")
        doc = json.loads(base.read_text())
        doc["summary"]["p99_write_ns"] *= 1.2
        cand = tmp_path / "worse.json"
        cand.write_text(json.dumps(doc))
        capsys.readouterr()
        code = main(["diff", str(base), str(cand), "--json"])
        out = capsys.readouterr().out
        assert code == 1
        parsed = json.loads(out)
        assert parsed["verdict"] == "regression"
        assert parsed["regressions"] == ["summary/p99_write_ns"]

    def test_nan_threshold_is_rejected_not_a_pass(self, capsys, tmp_path):
        """``change > nan`` is false for every change, so a NaN
        threshold would pass any candidate: it is a usage error."""
        base = self._report(tmp_path, "a.json")
        doc = json.loads(base.read_text())
        doc["summary"]["p99_write_ns"] *= 1.2
        cand = tmp_path / "worse.json"
        cand.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["diff", str(base), str(cand), "--threshold", "5"]) == 1
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["diff", str(base), str(cand), "--threshold", "nan"])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert "no-regression" not in captured.out
        assert "--threshold: must be positive and finite: nan" in captured.err

    def test_config_mismatch_exits_2_unless_forced(self, capsys, tmp_path):
        base = self._report(tmp_path, "a.json")
        doc = json.loads(base.read_text())
        doc["meta"]["config_hash"] = "0" * 16
        cand = tmp_path / "other.json"
        cand.write_text(json.dumps(doc))
        code = main(["diff", str(base), str(cand)])
        captured = capsys.readouterr()
        assert code == 2
        assert "apples-to-oranges" in captured.err
        assert main(["diff", str(base), str(cand), "--force"]) == 0
        capsys.readouterr()

    def test_diff_writes_json_artifact(self, capsys, tmp_path):
        base = self._report(tmp_path, "a.json")
        cand = self._report(tmp_path, "b.json")
        out_path = tmp_path / "diff.json"
        capsys.readouterr()
        code = main(["diff", str(base), str(cand), "--out", str(out_path)])
        capsys.readouterr()
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["schema"] == "repro.diff_report/1"
        assert doc["verdict"] == "no-regression"

    def test_unusable_input_exits_2(self, capsys, tmp_path):
        base = self._report(tmp_path, "a.json")
        capsys.readouterr()
        code = main(["diff", str(base), str(tmp_path / "nope.json")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("repro: cannot read")
        # A section that is not the JSON type the differ walks.
        for key, value in (("summary", [1, 2]), ("meta", "x")):
            doc = json.loads(base.read_text())
            doc[key] = value
            bad = tmp_path / "bad.json"
            bad.write_text(json.dumps(doc))
            code = main(["diff", str(bad), str(bad)])
            captured = capsys.readouterr()
            assert code == 2, key
            assert captured.err.startswith(f"repro: {bad}: '{key}' is a "), key
            assert captured.err.count("\n") == 1, key

    def test_committed_baseline_report_is_reproduced_byte_for_byte(
            self, capsys, tmp_path):
        """The perf gate: the command in
        ``benchmarks/results/baseline/README.md`` rewrites the committed
        report exactly, so any simulated drift is a code change."""
        baseline = (Path(__file__).resolve().parents[2] / "benchmarks"
                    / "results" / "baseline" / "report.json")
        fresh = tmp_path / "fresh.json"
        assert main(["run", "--consistency", "causal",
                     "--persistency", "synchronous", "--servers", "3",
                     "--clients", "6", "--duration-us", "60",
                     "--seed", "2021", "--health",
                     "--metrics-out", str(fresh)]) == 0
        assert fresh.read_bytes() == baseline.read_bytes()
        assert main(["diff", str(baseline), str(fresh)]) == 0
        assert "no-regression" in capsys.readouterr().out


class TestSweepObservatory:
    """The parallel sweep runner and the per-cell sections it embeds."""

    ARGS = ["sweep", "--servers", "3", "--clients", "6",
            "--duration-us", "15", "--no-progress"]

    def test_sweep_out_is_schema_valid_and_worker_invariant(self, capsys,
                                                            tmp_path):
        serial, parallel = tmp_path / "w1.json", tmp_path / "w2.json"
        assert main(self.ARGS + ["--out", str(serial)]) == 0
        assert main(self.ARGS + ["--workers", "2", "--out",
                                 str(parallel)]) == 0
        capsys.readouterr()
        assert serial.read_bytes() == parallel.read_bytes()
        from repro.obs.schemas import validate_artifact
        doc = json.loads(serial.read_text())
        assert validate_artifact(doc).family == "repro.sweep_report"
        assert doc["totals"] == {"cells": 6, "ok": 6, "errors": 0}

    def test_sweep_crash_partial_artifact_and_exit_1(self, capsys,
                                                     monkeypatch,
                                                     tmp_path):
        rig_to_crash(monkeypatch, "causal", "eventual")
        out = tmp_path / "partial.json"
        code = main(self.ARGS + ["--workers", "2", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert "errored" in captured.err
        from repro.obs.schemas import validate_artifact
        doc = json.loads(out.read_text())
        validate_artifact(doc, family="repro.sweep_report")
        assert doc["totals"]["errors"] == 1
        error = [c for c in doc["cells"] if c["status"] == "error"][0]
        assert (error["consistency"], error["persistency"]) == (
            "causal", "eventual")

    def test_sweep_progress_is_line_oriented_off_tty(self, capsys,
                                                     tmp_path):
        args = [a for a in self.ARGS if a != "--no-progress"]
        assert main(args + ["--out", str(tmp_path / "s.json")]) == 0
        captured = capsys.readouterr()
        assert "\r" not in captured.err and "\x1b" not in captured.err
        lines = [l for l in captured.err.splitlines() if l]
        assert len(lines) == 6
        assert lines[0].startswith("[1/6]")

    def test_sweep_sections_equal_the_single_run_views(self, capsys,
                                                       tmp_path):
        """Every cell's ``journeys`` and ``profile`` sections are that
        model's ``run --journeys --profile --metrics-out`` report's, wall clock
        stripped: the views that read a run report read a sweep cell
        alike."""
        from repro.obs import strip_wall_clock
        out = tmp_path / "s.json"
        assert main(self.ARGS + ["--journeys", "--profile", "--out",
                                 str(out)]) == 0
        cells = json.loads(out.read_text())["cells"]
        assert len(cells) == 6
        shape = self.ARGS[1:-1]
        for cell in cells:
            model = ["--consistency", cell["consistency"],
                     "--persistency", cell["persistency"]]
            path = tmp_path / "r.json"
            assert main(["run", *shape, *model, "--journeys", "--profile",
                         "--metrics-out", str(path)]) == 0
            capsys.readouterr()
            report = json.loads(path.read_text())
            label = f'{cell["consistency"]}/{cell["persistency"]}'
            assert cell["journeys"] == report["journeys"], label
            assert cell["profile"] == strip_wall_clock(
                report["profile"]), label

    def test_sweep_seeds_run_each_model_per_seed(self, capsys, tmp_path):
        out = tmp_path / "seeds.json"
        assert main(self.ARGS + ["--seeds", "1", "2", "--out",
                                 str(out)]) == 0
        capsys.readouterr()
        doc = json.loads(out.read_text())
        assert doc["totals"]["cells"] == 12
        assert doc["meta"]["seeds"] == [1, 2]


# ---------------------------------------------------------------------------
# Every flag is set by some test.  These are the ones no other test
# sets: one case each, at a non-default value, asserting what the flag
# changes against the same command without it.
# ---------------------------------------------------------------------------

_SMALL = ["--servers", "3", "--clients", "6", "--duration-us", "30"]


def _flag_profile_top(run, tmp):
    def rows(out):
        return len(re.findall(r"%$", out, re.MULTILINE))
    path = tmp / "m.json"
    run("run", *_SMALL, "--profile", "--metrics-out", str(path))
    assert rows(run("profile", str(path), "--top", "1")) == 2  # per section
    assert rows(run("profile", str(path))) > 2


def _flag_diff_threshold(run, tmp):
    base, worse = tmp / "base.json", tmp / "worse.json"
    run("run", *_SMALL, "--metrics-out", str(base))
    doc = json.loads(base.read_text())
    doc["summary"]["p99_write_ns"] *= 1.2
    worse.write_text(json.dumps(doc))
    assert "regression" in run("diff", str(base), str(worse), code=1)
    assert "no-regression" in run("diff", str(base), str(worse),
                                  "--threshold", "50")


def _flag_sweep_journeys(run, tmp):
    plain, embedded = tmp / "plain.json", tmp / "embedded.json"
    args = ["sweep", *_SMALL, "--no-progress", "--out"]
    run(*args, str(plain))
    run(*args, str(embedded), "--journeys")
    assert all("journeys" not in cell
               for cell in json.loads(plain.read_text())["cells"])
    for cell in json.loads(embedded.read_text())["cells"]:
        assert cell["journeys"]["journeys"] > 0


def _flag_workload(run, tmp):
    def report(*flags):
        path = tmp / "m.json"
        run("run", *_SMALL, "--metrics-out", str(path), *flags)
        return json.loads(path.read_text())
    default, write_heavy = report(), report("--workload", "W")
    assert (default["meta"]["workload"],
            write_heavy["meta"]["workload"]) == ("A", "W")
    # 95 % writes against 50 %: more replication traffic.
    assert write_heavy["summary"]["total_messages"] > \
        1.5 * default["summary"]["total_messages"]


@pytest.mark.parametrize("case", [
    pytest.param(_flag_profile_top, id="profile --top"),
    pytest.param(_flag_diff_threshold, id="diff --threshold"),
    pytest.param(_flag_sweep_journeys, id="sweep --journeys"),
    pytest.param(_flag_workload, id="--workload"),
])
def test_flag_has_its_documented_effect(case, capsys, tmp_path):
    def run(*argv, code=0):
        assert main(list(argv)) == code, argv
        return capsys.readouterr().out

    case(run, tmp_path)


def test_a_streamed_trace_keeps_every_record(capsys, tmp_path):
    """``run --trace-out`` streams the whole run: ``trace FILE`` counts
    the records the run report counts, none dropped, and the record
    events end in time order (up to the float rounding of ``ts + dur``)."""
    trace, report = tmp_path / "t.json", tmp_path / "m.json"
    assert main(["run", "--servers", "3", "--clients", "6",
                 "--duration-us", "30", "--trace-out", str(trace),
                 "--metrics-out", str(report)]) == 0
    capsys.readouterr()
    records = json.loads(report.read_text())["trace"]
    assert records["records"] > 0 and records["dropped"] == 0
    assert main(["trace", str(trace), "--limit", "0"]) == 0
    assert capsys.readouterr().out.splitlines()[0].endswith(
        f"   {records['records']} records, 0 dropped")
    events = [event for event in json.loads(trace.read_text())["traceEvents"]
              if event["ph"] != "M"]
    assert len(events) == records["records"]
    ends = [event["ts"] + event.get("dur", 0.0) for event in events]
    assert all(a <= b + 1e-9 for a, b in zip(ends, ends[1:]))


#: Flags that are gone, and prefixes of flags that are not: each is
#: argparse's usage error (exit 2), never a surviving flag.
_NOT_A_FLAG = [
    ["run", "--journey-out", "j.json"],
    ["run", "--trace-limit", "50"],
    ["run", "--trace-ring"],
    ["run", "--trace-jsonl", "t.jsonl"],
    ["run", "--metrics-window-us", "5"],
    ["run", "--journey-sample-every", "4"],
    ["run", "--journey-max", "5"],
    ["run", "--health-interval-us", "2"],
    ["run", "--health-samples", "3"],
    ["run", "--health-top-k", "2"],
    ["run", "--history-limit", "10"],
    ["sweep", "--seed", "3"],
    ["run", "--metrics-o", "m.json"],
    ["diff", "a.json", "b.json", "--thr", "5"],
]


def _flag_of(argv):
    return next(arg for arg in argv if arg.startswith("--"))


@pytest.mark.parametrize("argv", [
    pytest.param(argv, id=f"{argv[0]} {_flag_of(argv)}")
    for argv in _NOT_A_FLAG])
def test_a_flag_is_its_whole_surviving_name(capsys, monkeypatch, argv):
    def simulated(*args, **kwargs):
        raise AssertionError("simulated on a flag that is not one")

    monkeypatch.setattr("repro.obs.run.observed_run", simulated)
    monkeypatch.setattr("repro.obs.sweep.run_sweep", simulated)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    rest = " ".join(argv[argv.index(_flag_of(argv)):])
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"repro: error: unrecognized arguments: {rest}")


#: Every subcommand's settable arguments, by name: adding or removing
#: one is a visible diff here.
CLI_SURFACE = {
    "run": ["--consistency", "--persistency", "--workload", "--servers",
            "--clients", "--duration-us", "--seed", "--trace-out",
            "--metrics-out", "--history-out", "--journeys", "--health",
            "--profile", "--audit", "--faults", "--crash"],
    "trace": ["input", "--limit", "--category"],
    "journey": ["input"],
    "profile": ["input", "--top"],
    "diff": ["baseline", "candidate", "--threshold", "--json", "--out",
             "--force"],
    "audit": ["history", "--consistency", "--persistency", "--json",
              "--out"],
    "sweep": ["--all", "--workload", "--servers", "--clients",
              "--duration-us", "--workers", "--seeds", "--out", "--journeys",
              "--health", "--profile", "--audit", "--no-progress"],
    "tradeoffs": ["--all"],
    "recover": ["--consistency", "--persistency", "--workload", "--servers",
                "--clients", "--duration-us", "--seed"],
    "order": ["--json", "--seeds", "--ops", "--sweep-out"],
}


def test_the_cli_surface_is_pinned():
    import argparse
    (subparsers,) = [action for action in build_parser()._actions
                     if isinstance(action, argparse._SubParsersAction)]
    surface = {name: [action.option_strings[-1] if action.option_strings
                      else action.dest for action in parser._actions
                      if not isinstance(action, argparse._HelpAction)]
               for name, parser in subparsers.choices.items()}
    assert surface == CLI_SURFACE
    assert sum(map(len, surface.values())) == 58
