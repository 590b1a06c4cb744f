"""Checks of the benchmark itself (``pytest bench -q``; tier-1 does not
collect this directory).

Drives the worker functions in-process at a fifth of the simulated
durations with one round, so it tests what the benchmark emits and which
failures it catches, not how long anything takes.
"""

import json
import re

import pytest

import compare
import run as bench_run
import traced
import worker

SCALE = 0.2
SEED = 11
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def in_process(job):
    """``run.run_child`` without the child: same jobs, same JSON."""
    if job["mode"] == "timed":
        result = worker.run_workload(job["workload"], job["seed"], job["scale"])
    else:
        result = traced.run_job(job)
    return json.loads(json.dumps(result))


@pytest.fixture(scope="module")
def contract():
    return bench_run.load_contract()


@pytest.fixture(scope="module")
def document(contract):
    return bench_run.run_all(SEED, SCALE, contract, rounds=1, runner=in_process)


def test_contract_names_and_units(contract):
    names = [w["name"] for w in contract["workloads"]]
    assert names == list(worker.WORKLOADS)
    metrics = contract["end_to_end"] + contract["per_layer"]
    for spec in contract["workloads"] + metrics:
        assert NAME.fullmatch(spec["name"]) and len(spec["name"]) <= 64
    for spec in metrics:
        assert spec["unit"] and spec["better"] in ("lower", "higher")
    assert len({spec["name"] for spec in metrics}) == len(metrics)
    setup = next(s for s in contract["end_to_end"] if s["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(s["bound"] for s in contract["end_to_end"])


def test_every_named_metric_is_emitted_and_nothing_else(contract, document):
    end_to_end = {s["name"] for s in contract["end_to_end"]}
    per_layer = {s["name"] for s in contract["per_layer"]}
    assert set(document["workloads"]) == set(worker.WORKLOADS)
    emitted = set()
    for name, result in document["workloads"].items():
        assert set(result["end_to_end"]) == end_to_end, name
        assert set(result["per_layer"]) <= per_layer, name
        for metric, value in result["per_layer"].items():
            assert value is None or isinstance(value, (int, float)), metric
        emitted |= set(result["per_layer"])
    assert emitted == per_layer
    assert set(compare.EXACT_PER_LAYER) <= per_layer
    # Each layer's own workload has its numbers (not just the keys).
    measured = {"msg_heavy": ("sim.events_per_msg", "obs.overhead_ratio.tracer",
                              "host.pycalls_per_op", "net.bare_events_per_msg"),
                "chaos_recover": ("faults.on_message_host_us_per_call",
                                  "recovery.validate_ms", "audit.target_ok"),
                "matrix25": ("txn.abort_frac", "analysis.paper_anchor_err")}
    for name, metrics in measured.items():
        for metric in metrics:
            assert document["workloads"][name]["per_layer"][metric] is not None


def test_traced_digest_equals_untraced(document):
    """``run_all`` fails every traced cell-run whose digest differs from
    the timed rounds' — so no such problem may be listed."""
    for name, result in document["workloads"].items():
        assert result["sim_digest"], name
        assert not [p for p in result["problems"] if "sim_digest" in p
                    or "something else" in p], name
    for name in ("msg_heavy", "read_local", "scale_out", "chaos_recover"):
        assert document["workloads"][name]["failed"] == 0, name


def test_compare_accepts_a_run_against_itself(contract, document):
    rows, worse, unresolved, inexact = compare.compare(
        document, document, contract)
    assert (worse, unresolved, inexact) == (0, 0, 0), "\n".join(rows)


def test_compare_flags_a_regression_and_a_changed_count(contract, document):
    slower = json.loads(json.dumps(document))
    result = slower["workloads"]["msg_heavy"]
    for key in ("value", "median", "q1", "q3"):
        result["end_to_end"]["host_s_per_sim_ms"][key] *= 1.5
    result["per_layer"]["sim.events_per_msg"] += 1
    rows, worse, unresolved, inexact = compare.compare(
        document, slower, contract)
    assert (worse, unresolved, inexact) == (1, 0, 1), "\n".join(rows)


def test_contract_line_is_complete_and_numeric(contract, document):
    result = document["workloads"]["read_local"]
    line = json.loads(bench_run.contract_line(
        result["per_layer"], contract["per_layer"], 2, 0))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert set(line["metrics"]) == {s["name"] for s in contract["per_layer"]}
    for name, metric in line["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        assert metric["unit"]
    # Not applicable here (no fault injector), so null in the document.
    assert result["per_layer"]["faults.on_message_host_us_per_call"] is None
    assert line["metrics"]["faults.on_message_host_us_per_call"]["value"] == 0


def test_a_different_seed_in_one_repeat_fails_every_cell_run():
    calls = []

    def flaky(job):
        calls.append(job)
        return in_process(dict(job, seed=job["seed"] + (len(calls) == 2)))

    repeats = bench_run.timed_rounds(["msg_heavy"], SEED, SCALE, 3, flaky)
    outcome = bench_run.end_to_end(repeats["msg_heavy"])
    assert outcome["attempted"] == 3 and outcome["failed"] == 3
    assert outcome["sim_digest"] is None
    assert any("non-deterministic" in p for p in outcome["problems"])


def test_a_repeat_that_does_not_report_is_a_failed_cell_run():
    def dies(job):
        raise ValueError("no result line")

    repeats = bench_run.timed_rounds(["msg_heavy"], SEED, SCALE, 1, dies)
    outcome = bench_run.end_to_end(repeats["msg_heavy"])
    assert (outcome["attempted"], outcome["failed"]) == (1, 1)
    assert outcome["metrics"] == {}


def test_a_missing_snapshot_key_yields_null_not_a_crash():
    profile_cls = traced.optional("repro.obs", "KernelProfile")
    snapshot = profile_cls().snapshot()
    whole = traced.kernel_metrics([snapshot], requests=10)
    assert whole["sim.max_tie_batch"] == 0
    del snapshot["scheduling"]
    del snapshot["attribution"]["by_msg_type"]
    partial = traced.kernel_metrics([snapshot], requests=10)
    assert set(partial) == set(whole)
    assert partial["sim.max_tie_batch"] is None
    assert partial["sim.events_per_msg"] is None
    assert partial["core.handler_host_us.INV"] is None
    assert partial["sim.heap_peak"] == 0
    assert traced.kernel_metrics([None], requests=10)["sim.heap_peak"] is None


def test_a_removed_module_or_attribute_reads_as_none():
    assert traced.optional("repro.no_such_module", "Thing") is None
    assert traced.optional("repro.obs", "NoSuchObserver") is None
    assert traced.dig({"a": {"b": 1}}, "a", "c", "d") is None
    assert traced.Spans().wrap(object(), "send", "net") is False


def test_chaos_plan_scales_with_the_duration():
    short, long = worker.fault_plan(1, 50.0), worker.fault_plan(1, 500.0)
    assert [e.kind for e in short.events] == [e.kind for e in long.events]
    for a, b in zip(short.events, long.events):
        assert b.at_ns == pytest.approx(10 * a.at_ns)
