"""Command-line interface for the reproduction.

``run`` is the one subcommand that simulates a single cell (``sweep``
many, ``recover`` one it then crashes and restarts): it parses its
flags into a :class:`repro.obs.CellSpec` and a
:class:`repro.obs.Observers`, calls :func:`repro.obs.observed_run` —
the one build-run-observe recipe, see :mod:`repro.obs.run` and
docs/handbook.md "How an experiment is built, run and observed" — and
prints or writes what came back.  ``trace``,
``journey`` and ``profile`` simulate nothing: each reads an artifact
``run`` (or ``sweep``) wrote and renders it.  Unusable input (a run
shape ``CellSpec`` rejects, an unwritable output path, two outputs on
one path, an unreadable artifact) is one ``repro: <message>`` line and
exit code 2.

The module imports only what the parser and :func:`main` need; each
subcommand imports its own dependencies, so the readers load no
simulator and no subcommand pays for compiling another's modules.

Subcommands (``repro <cmd> --help`` for flags; worked examples in
docs/handbook.md "CLI reference"):

* ``run`` — simulate one DDP model and print a summary; optionally
  write a Chrome trace, the run-report JSON with the sections
  ``sweep`` names by the same four flags (``--journeys``,
  ``--health``, ``--profile``, ``--audit``), a client history, inject
  faults and validate durability contracts (exit 1 on a contract
  violation).
* ``trace FILE`` / ``journey FILE`` / ``profile FILE`` — one saved run
  seen through one observer: the event timeline of ``run --trace-out``,
  the per-update critical-path waterfalls of ``run --journeys
  --metrics-out`` (or of every cell of ``sweep --journeys --out``), the
  kernel hotspots of ``run --profile --metrics-out``.
* ``sweep`` — several models (``--all``: the 5x5 matrix, times
  ``--seeds``) across ``--workers`` processes; the merged
  ``repro.sweep_report/1`` is byte-identical for any worker count and a
  crashed cell is a schema-valid ``error`` entry (exit 1).
* ``diff`` — compare two run reports, sweep reports or ``BENCH_*.json``
  artifacts: exit 0 no regression, 1 regression, 2 unusable input.
* ``audit`` — verify a recorded client history against all 25 cells:
  exit 0 target model passes, 1 violation, 2 unusable history.
* ``recover`` — run, crash the whole cluster, restart every node and
  print each node's time to serve (NVM scan, then catch-up from its
  peers).
* ``tradeoffs`` — print the derived Table 4 (or the full grid).
* ``order`` — the tie-batch sanitizer sweep
  (:mod:`repro.devtools.sanitizer`): exit 0 every model byte-identical
  under permuted same-timestamp deliveries, 1 a diverged or vacuous
  cell.

Examples::

    python -m repro.cli run --consistency causal --persistency synchronous
    python -m repro.cli run --trace-out t.json --metrics-out m.json --profile
    python -m repro.cli run --health --metrics-out report.json
    python -m repro.cli run --crash 2@50+40 --metrics-out report.json
    python -m repro.cli run --faults chaos.json --trace-out t.json
    python -m repro.cli trace t.json --category persist --limit 5
    python -m repro.cli run --consistency linearizable --journeys --metrics-out j.json
    python -m repro.cli journey j.json
    python -m repro.cli sweep --all --journeys --out sweep.json
    python -m repro.cli journey sweep.json      # one waterfall per cell
    python -m repro.cli profile m.json --top 10
    python -m repro.cli diff baseline.json fresh.json --json
    python -m repro.cli run --audit --consistency linearizable
    python -m repro.cli run --history-out h.jsonl --crash 1@120+60
    python -m repro.cli audit h.jsonl --consistency eventual
    python -m repro.cli sweep --workload B --duration-us 150
    python -m repro.cli sweep --all --workers 4 --out sweep.json
    python -m repro.cli diff old_sweep.json sweep.json
    python -m repro.cli tradeoffs --all
    python -m repro.cli recover --persistency eventual
    python -m repro.cli order --json
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
from collections import Counter
from operator import attrgetter
from typing import Any, Dict, List, Optional

from repro.core.model import Consistency, DdpModel, Persistency, all_ddp_models
from repro.obs.diff import DiffError
from repro.obs.schemas import SECTIONS, SchemaError
from repro.workload.ycsb import WORKLOADS

__all__ = ["main", "build_parser"]


class _CliError(Exception):
    """Unusable input: ``main`` prints ``repro: <message>``, exits 2."""


def _sections(args) -> tuple:
    """The report sections the four section flags name."""
    return tuple(name for name in SECTIONS if getattr(args, name, False))


def _spec_from(args):
    """The run the common flags describe (``repro: ...`` + exit 2 when
    they describe none; see ``CellSpec.__post_init__``)."""
    from repro.obs.run import CellSpec
    duration = args.duration_us * 1000.0
    try:
        return CellSpec(
            args.consistency, args.persistency, args.seed,
            workload=args.workload, servers=args.servers,
            clients=args.clients, duration_ns=duration,
            warmup_ns=duration / 10, sections=_sections(args))
    except ValueError as exc:
        raise _CliError(str(exc)) from exc


def _preflight(*paths: Optional[str]) -> None:
    """Fail on an unwritable destination, or on two outputs that are
    one file, now, not after simulating — without truncating it: an
    input rejected after this check must leave an existing file as it
    was, and no new empty one behind."""
    paths = [path for path in paths if path]
    seen: Dict[str, str] = {}
    for path in paths:
        real = os.path.realpath(path)
        if real in seen:
            raise _CliError(f"{seen[real]} and {path} are the same path")
        seen[real] = path
    for path in paths:
        existed = os.path.exists(path)
        try:
            open(path, "a").close()
        except OSError as exc:
            raise _CliError(f"cannot write {path}: {exc}") from exc
        if not existed:
            os.remove(path)


def _add_model(parser: argparse.ArgumentParser,
               defaults=("causal", "synchronous"), note=None) -> None:
    for name, kinds, default in zip(("consistency", "persistency"),
                                    (Consistency, Persistency), defaults):
        parser.add_argument(f"--{name}", default=default,
                            choices=[kind.value for kind in kinds],
                            help=note and note.format(name))


def _add_common(parser: argparse.ArgumentParser, seed: bool = True) -> None:
    parser.add_argument("--workload", default="A", choices=sorted(WORKLOADS),
                        help="YCSB workload mix (default: A)")
    parser.add_argument("--servers", type=int, default=5)
    parser.add_argument("--clients", type=int, default=100,
                        help="total clients across the cluster")
    parser.add_argument("--duration-us", type=float, default=100.0,
                        help="measured simulated time per run")
    if seed:  # a sweep takes its seeds only through --seeds
        parser.add_argument("--seed", type=int, default=2021)


def _add_seeds(parser: argparse.ArgumentParser, default, text) -> None:
    parser.add_argument("--seeds", type=int, nargs="+", default=default,
                        metavar="SEED", help=text)


_SECTION_HELP = {
    "journeys": "per-update critical-path journey waterfalls",
    "health": "cluster health sampled on the simulation clock (persist "
              "queues, causal buffers, inflight rounds, invariant probes)",
    "profile": "simulation-kernel profile counters",
    "audit": "black-box audit of the client history against the 5x5 "
             "consistency/persistency matrix",
}


def _add_sections(parser: argparse.ArgumentParser, where: str) -> None:
    """``run``'s and ``sweep``'s report-section flags, one per name in
    :data:`repro.obs.schemas.SECTIONS`."""
    for name in SECTIONS:
        parser.add_argument(f"--{name}", action="store_true",
                            help=f"{_SECTION_HELP[name]}, {where}")


def _positive(kind):
    def parse(text: str):
        value = kind(text)
        # NaN fails both comparisons, inf the second.
        if not 0 < value < math.inf:
            raise argparse.ArgumentTypeError(
                f"must be positive and finite: {text}")
        return value
    return parse


def _add_outputs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace-out", metavar="PATH", default=None,
                        help="stream every trace record to a Chrome "
                             "trace_event JSON timeline (open in "
                             "Perfetto / chrome://tracing)")
    parser.add_argument("--metrics-out", metavar="PATH", default=None,
                        help="write the run-report JSON (windowed "
                             "throughput/latency, VP/DP lag series, and "
                             "the sections the section flags name)")
    parser.add_argument("--history-out", metavar="PATH", default=None,
                        help="record every client-observed operation and "
                             "write the repro.history/1 JSONL artifact "
                             "(the black-box contract auditor's input)")


def build_parser() -> argparse.ArgumentParser:
    # No prefix matching: a removed flag must not resolve to a survivor.
    parser = argparse.ArgumentParser(
        prog="repro", allow_abbrev=False,
        description="Distributed Data Persistency (MICRO 2021) reproduction")
    subparsers = parser.add_subparsers(dest="command", required=True)
    add_parser = functools.partial(subparsers.add_parser, allow_abbrev=False)

    run_parser = add_parser(
        "run", help="simulate one DDP model",
        description="Simulate one DDP model.  Exit code 1 when --audit "
                    "fails the run's own model or --faults/--crash "
                    "violates a durability contract.")
    _add_model(run_parser)
    _add_common(run_parser)
    _add_outputs(run_parser)
    _add_sections(run_parser, "in the report and summarised on stdout")
    run_parser.add_argument("--faults", metavar="PLAN.json", default=None,
                            help="inject the faults described in a JSON "
                                 "plan (crashes, drops, delays, "
                                 "duplicates, partitions, NVM slowdowns) "
                                 "and validate durability contracts "
                                 "afterwards")
    run_parser.add_argument("--crash", metavar="NODE@T_US[+RESTART_US]",
                            action="append", default=None,
                            help="crash a node at a time (us), optionally "
                                 "restarting it after RESTART_US more; "
                                 "repeatable; combines with --faults")

    trace_parser = add_parser(
        "trace", help="print the event timeline of a Chrome trace")
    trace_parser.add_argument("input", metavar="FILE",
                              help="Chrome trace_event JSON from "
                                   "run --trace-out")
    trace_parser.add_argument("--limit", type=int, default=20,
                              help="events to print (default: 20)")
    trace_parser.add_argument("--category", action="append", default=None,
                              help="only these categories (repeatable)")

    journey_parser = add_parser(
        "journey", help="print per-update critical-path latency "
                        "waterfalls")
    journey_parser.add_argument("input", metavar="FILE",
                                help="run report from run --journeys "
                                     "--metrics-out, or sweep report from "
                                     "sweep --journeys --out (one "
                                     "waterfall per cell)")

    profile_parser = add_parser(
        "profile", help="print kernel hotspot attribution: wall time by "
                        "event kind and message handler")
    profile_parser.add_argument("input", metavar="FILE",
                                help="run report from run --profile "
                                     "--metrics-out")
    profile_parser.add_argument("--top", type=_positive(int), default=None,
                                metavar="N",
                                help="rows per hotspot section "
                                     "(default: all)")

    diff_parser = add_parser(
        "diff", help="compare two run/sweep reports or bench artifacts "
                     "for regressions")
    diff_parser.add_argument("baseline", help="baseline artifact "
                             "(run report, sweep report, or "
                             "BENCH_*.json)")
    diff_parser.add_argument("candidate", help="candidate artifact to "
                             "judge against the baseline")
    diff_parser.add_argument("--threshold", type=_positive(float),
                             default=5.0, metavar="PCT",
                             help="noise threshold in percent "
                                  "(default: 5)")
    diff_parser.add_argument("--json", action="store_true", dest="as_json",
                             help="print the repro.diff_report/1 JSON "
                                  "instead of markdown")
    diff_parser.add_argument("--out", metavar="PATH", default=None,
                             help="also write the JSON diff document here")
    diff_parser.add_argument("--force", action="store_true",
                             help="compare despite a config-hash mismatch")

    audit_parser = add_parser(
        "audit", help="verify a recorded client history against the 5x5 "
                      "consistency/persistency matrix")
    audit_parser.add_argument("history", metavar="HISTORY.jsonl",
                              help="repro.history/1 artifact from "
                                   "run --history-out")
    _add_model(audit_parser, defaults=(None, None),
               note="override the target {} model "
                    "(default: the history's run metadata)")
    audit_parser.add_argument("--json", action="store_true", dest="as_json",
                              help="print the repro.audit_report/1 JSON "
                                   "instead of the verdict table")
    audit_parser.add_argument("--out", metavar="PATH", default=None,
                              help="also write the JSON audit report here")

    sweep_parser = add_parser(
        "sweep", help="compare models on one workload; --workers fans "
                      "the matrix across processes")
    sweep_parser.add_argument("--all", action="store_true",
                              help="sweep all 25 models (slow)")
    _add_common(sweep_parser, seed=False)
    sweep_parser.add_argument("--workers", type=_positive(int), default=1,
                              metavar="N",
                              help="worker processes (default: 1 = "
                                   "in-process); the merged artifact is "
                                   "byte-identical for any worker count")
    _add_seeds(sweep_parser, [2021],
               "run each model once per seed (default: 2021)")
    sweep_parser.add_argument("--out", metavar="PATH", default=None,
                              help="write the merged repro.sweep_report/1 "
                                   "JSON here")
    _add_sections(sweep_parser, "embedded per cell (wall clock stripped)")
    sweep_parser.add_argument("--no-progress", action="store_true",
                              help="suppress the stderr progress "
                                   "telemetry")

    tradeoff_parser = add_parser(
        "tradeoffs", help="print the derived Table 4")
    tradeoff_parser.add_argument("--all", action="store_true",
                                 help="derive all 25 models")

    recover_parser = add_parser(
        "recover", help="crash the whole cluster after a run and restart "
                        "every node")
    _add_model(recover_parser)
    _add_common(recover_parser)

    order_parser = add_parser(
        "order",
        help="tie-batch sanitizer sweep across all 25 DDP models",
        description="Permute the processing order of same-timestamp "
                    "message deliveries (one alternative order per "
                    "seed) and require every model's final protocol "
                    "state to stay byte-identical to its unpermuted "
                    "run.")
    order_parser.add_argument("--json", action="store_true",
                              help="emit the repro.order_sweep/2 JSON "
                                   "document")
    _add_seeds(order_parser, [1, 2, 3, 4],
               "permutation seeds (default: 1 2 3 4)")
    order_parser.add_argument("--ops", type=_positive(int), default=30,
                              metavar="N",
                              help="request budget per client (fixed-work "
                                   "drain; default: 30)")
    order_parser.add_argument("--sweep-out", metavar="FILE", default=None,
                              help="also write the JSON document to FILE")
    return parser


def _faults_from(args):
    """Build the injector requested by ``--faults`` / ``--crash``."""
    from repro.faults.injector import FaultInjector
    from repro.faults.plan import FaultPlan, load_fault_plan, parse_crash_spec
    from repro.sim.rng import SeededStream
    plan = None
    if args.faults:
        try:
            plan = load_fault_plan(args.faults)
        except (OSError, ValueError) as exc:
            raise _CliError(f"bad fault plan {args.faults}: {exc}") from exc
    crashes = ()
    if args.crash:
        try:
            crashes = tuple(parse_crash_spec(spec) for spec in args.crash)
        except ValueError as exc:
            raise _CliError(str(exc)) from exc
    if plan is None and not crashes:
        return None
    node_ids = list(range(args.servers))
    try:
        for event in (plan.events if plan is not None else ()) + crashes:
            FaultInjector.validate_target(event, node_ids)
    except ValueError as exc:
        raise _CliError(str(exc)) from exc
    try:
        if plan is None:
            plan = FaultPlan(seed=args.seed)
        plan = dataclasses.replace(plan, events=tuple(sorted(
            plan.events + crashes, key=lambda e: (e.at_ns, e.kind))))
        # The seeded picks attach will make, checked before simulating.
        plan.resolved(node_ids, SeededStream(plan.seed, "faults").choice)
    except ValueError as exc:
        raise _CliError(f"bad fault plan: {exc}") from exc
    return FaultInjector(plan)


def _print_fault_outcome(cluster, injector) -> int:
    """Fault/recovery summary + contract validation; returns exit code."""
    from repro.faults.validate import validate_faulty_run
    network = cluster.network
    resends = sum(e.round_resends for e in cluster.engines)
    retargeted = sum(e.rounds_retargeted for e in cluster.engines)
    print(f"\nfaults   :  crashes={injector.crashes} "
          f"detections={injector.detections} restarts={injector.restarts} "
          f"txns-abandoned={injector.txns_abandoned} "
          f"ops-severed={injector.ops_severed}")
    print(f"network  :  dropped={network.dropped_messages} "
          f"delayed={network.delayed_messages} "
          f"duplicated={network.duplicated_messages}")
    print(f"rounds   :  resends={resends} retargeted={retargeted} "
          f"epoch={cluster.membership.epoch} "
          f"live={sorted(cluster.membership.live)}")
    failed = False
    for result in validate_faulty_run(cluster):
        status = ("VIOLATED" if not result.ok
                  else "vacuous" if result.vacuous else "ok")
        print(f"check    :  {result.name:28s} {status}")
        for detail in result.details[:5]:
            print(f"            {detail['detail']}")
        if result.violations > 5:
            print(f"            ... and {result.violations - 5} more")
        failed = failed or not result.ok
    return 1 if failed else 0


def _cmd_run(args) -> int:
    from repro.analysis.report import format_summary_table
    from repro.obs.history import write_history
    from repro.obs.profile import format_kernel
    from repro.obs.report import write_run_report
    from repro.obs.run import observed_run, section_observers
    spec = _spec_from(args)
    _preflight(args.trace_out, args.metrics_out, args.history_out)
    injector = _faults_from(args)
    observers = section_observers(
        spec, history=bool(args.history_out), trace=args.trace_out,
        report=bool(args.metrics_out))
    run = observed_run(spec, observers, faults=injector)
    summary = run.summary
    print(format_summary_table([(str(spec.model), summary)]))
    print(f"\npersists={summary.persists}  messages={summary.total_messages}"
          f"  causal-buffer-peak={summary.causal_buffer_peak}"
          f"  txn-conflicts={summary.txn_conflicts}")
    exit_code = 0
    if injector is not None:
        exit_code = _print_fault_outcome(run.cluster, injector)
    if args.history_out:
        write_history(args.history_out, run.history)
        print(f"history  -> {args.history_out} "
              f"({len(run.history.ops)} ops, "
              f"{run.history.dropped} dropped)")
    if args.audit:
        from repro.audit.engine import audit_exit_code, format_audit_table
        print()
        print(format_audit_table(run.audit))
        exit_code = max(exit_code, audit_exit_code(run.audit))
    trace = observers.trace
    if trace is not None:
        print(f"trace    -> {args.trace_out} "
              f"({len(trace)} records, {trace.dropped} dropped)")
    if args.metrics_out:
        write_run_report(args.metrics_out, run.report)
        print(f"metrics  -> {args.metrics_out}")
    journey = observers.journey
    if journey is not None:
        print(f"journeys :  {len(journey)} tracked, "
              f"{journey.dropped} dropped")
    monitor = observers.monitor
    if monitor is not None:
        from repro.obs.monitor import INTERVAL_NS
        print(f"health   :  {len(monitor)} samples "
              f"(every {INTERVAL_NS / 1000:g} us, "
              f"{monitor.dropped} dropped)  "
              f"peak-queue={monitor.peak_event_queue_depth}  "
              f"peak-nvm={monitor.peak_nvm_outstanding}  "
              f"violations={monitor.violations_total}")
    if observers.profile is not None:
        print(format_kernel(observers.profile.snapshot()))
    return exit_code


def _read_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise _CliError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _CliError(f"{path} is not valid JSON ({exc})") from exc


def _rendered(path: str, what: str, render, *args) -> str:
    """``render(*args)``, or ``repro: ...`` + exit 2 when the
    artifact's ``what`` is not the JSON shape the renderer walks."""
    try:
        return render(*args)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise _CliError(f"{path}: malformed {what} "
                        f"({type(exc).__name__}: {exc})") from exc


def _format_trace(path: str, doc: Dict[str, Any], categories, limit) -> str:
    from repro.obs.export import CLUSTER_PID
    from repro.sim.trace import INSTANT, TraceRecord

    def record_of(event: Dict[str, Any]) -> TraceRecord:
        """A ``trace_event`` as the trace record it was written from
        (its ``ts``/``dur`` are microseconds; a span's record time is
        its end)."""
        pid, dur = event.get("pid"), event.get("dur", 0) * 1000.0
        return TraceRecord(event.get("ts", 0) * 1000.0 + dur,
                           str(event.get("name", "?")),
                           None if pid in (None, CLUSTER_PID) else pid - 1,
                           event.get("args", {}), event.get("ph", INSTANT),
                           dur)

    other = doc.get("otherData", {})
    records = other.get("record_count", len(doc["traceEvents"]))
    dropped = other.get("dropped_records", 0)
    lines = [f"{path}: model {other.get('model', '?')}   "
             f"{records} records, {dropped} dropped"]
    events = [event for event in doc["traceEvents"]
              if event.get("ph") != "M" and (
                  categories is None or event.get("name") in categories)]
    lines += ["", "category counts:"]
    for name, count in sorted(Counter(
            str(event.get("name", "?")) for event in events).items()):
        lines.append(f"  {name:28s} {count:8d}")
    if limit > 0:
        records = sorted(map(record_of, events), key=attrgetter("time"))
        lines += ["", f"first {min(limit, len(records))} events:"]
        lines += [record.format() for record in records[:limit]]
    return "\n".join(lines)


def _cmd_trace(args) -> int:
    doc = _read_json(args.input)
    if not isinstance(doc, dict) or not isinstance(doc.get("traceEvents"),
                                                   list):
        raise _CliError(f"{args.input}: not a Chrome trace_event file "
                        f"(no traceEvents array)")
    print(_rendered(args.input, "trace", _format_trace, args.input, doc,
                    args.category, args.limit))
    return 0


def _load_report(path: str):
    """A run or sweep report and its family (``repro: ...`` + exit 2
    for any other artifact)."""
    from repro.obs.diff import load_artifact
    from repro.obs.schemas import parse_schema_tag
    doc = load_artifact(path)
    family = parse_schema_tag(doc["schema"])[0]
    if family not in ("repro.run_report", "repro.sweep_report"):
        raise _CliError(f"{path}: expected a run or sweep report, got "
                        f"{doc['schema']}")
    return doc, family


def _cmd_journey(args) -> int:
    from repro.analysis.waterfall import format_waterfall
    doc, family = _load_report(args.input)
    if family == "repro.sweep_report":
        sections = [(cell.get("model", "?"), cell.get("journeys"))
                    for cell in doc["cells"] if cell.get("status") == "ok"]
        kind, hint = "sweep report cell", "sweep --journeys --out"
        if not sections:
            raise _CliError(f"{args.input}: sweep report has no ok cell")
    else:
        sections = [(doc["meta"].get("model", "run"), doc.get("journeys"))]
        kind, hint = "run report", "run --journeys --metrics-out"
    if not all(isinstance(journeys, dict) for _, journeys in sections):
        raise _CliError(f"{args.input}: {kind} has no journeys section "
                        f"(produce one with {hint})")
    print("\n\n".join(
        _rendered(args.input, "journeys section", format_waterfall,
                  journeys, title)
        for title, journeys in sections))
    return 0


def _format_profile(doc: Dict[str, Any], top: Optional[int]) -> str:
    from repro.obs.profile import format_hotspots, format_kernel
    return (f"model: {doc['meta'].get('model', '?')}   throughput: "
            f"{doc['summary']['throughput_ops_per_s'] / 1e6:.2f} Mops/s   "
            f"{format_kernel(doc['profile'])}\n\n"
            + format_hotspots(doc["profile"], top=top))


def _cmd_profile(args) -> int:
    doc, family = _load_report(args.input)
    if family == "repro.sweep_report":
        raise _CliError(f"{args.input}: a sweep report strips wall clock; "
                        f"profile one cell with run --profile "
                        f"--metrics-out FILE")
    if not isinstance(doc.get("profile"), dict):
        raise _CliError(f"{args.input}: run report has no profile section "
                        f"(produce one with run --profile --metrics-out)")
    print(_rendered(args.input, "profile section", _format_profile, doc,
                    args.top))
    return 0


def _cmd_diff(args) -> int:
    from repro.obs.diff import diff_json, diff_paths, format_markdown
    report = diff_paths(args.baseline, args.candidate,
                        threshold=args.threshold / 100.0, force=args.force)
    doc = diff_json(report)
    if args.out:
        _preflight(args.out)
        with open(args.out, "w") as fh:
            json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
            fh.write("\n")
    if args.as_json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(format_markdown(report))
    return 1 if report.verdict == "regression" else 0


def _cmd_audit(args) -> int:
    from repro.audit.engine import (audit_exit_code, audit_history,
                                    format_audit_table)
    from repro.obs.history import load_history
    try:
        history = load_history(args.history)
    except (OSError, ValueError) as exc:
        raise _CliError(str(exc)) from exc
    report = audit_history(history, consistency=args.consistency,
                           persistency=args.persistency)
    if args.out:
        _preflight(args.out)
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if args.as_json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(format_audit_table(report))
    return audit_exit_code(report)


def _cmd_sweep(args) -> int:
    from repro.analysis.report import format_summary_table
    from repro.obs.sweep import (SweepProgress, build_sweep_report,
                                 matrix_specs, run_sweep, write_sweep_report)
    duration = args.duration_us * 1000.0
    if args.all:
        models = all_ddp_models()
    else:
        models = [
            DdpModel(Consistency.LINEARIZABLE, Persistency.SYNCHRONOUS),
            DdpModel(Consistency.READ_ENFORCED, Persistency.SYNCHRONOUS),
            DdpModel(Consistency.TRANSACTIONAL, Persistency.SYNCHRONOUS),
            DdpModel(Consistency.CAUSAL, Persistency.SYNCHRONOUS),
            DdpModel(Consistency.CAUSAL, Persistency.EVENTUAL),
            DdpModel(Consistency.EVENTUAL, Persistency.EVENTUAL),
        ]
    seeds = args.seeds
    try:
        specs = matrix_specs(models, seeds, workload=args.workload,
                             servers=args.servers, clients=args.clients,
                             duration_ns=duration, warmup_ns=duration / 10,
                             sections=_sections(args))
    except ValueError as exc:
        raise _CliError(str(exc)) from exc
    _preflight(args.out)
    progress = (None if args.no_progress
                else SweepProgress(len(specs), workers=args.workers))
    results = run_sweep(specs, workers=args.workers, progress=progress)
    doc = build_sweep_report(results)
    if args.out:
        write_sweep_report(args.out, doc)
        print(f"sweep report -> {args.out} "
              f"({doc['totals']['ok']}/{doc['totals']['cells']} cells ok)")
    by_key = {(r.spec.consistency, r.spec.persistency, r.spec.seed): r
              for r in results}
    rows = []
    baseline = None
    for model in models:
        result = by_key[(model.consistency.value, model.persistency.value,
                         seeds[0])]
        if result.status != "ok":
            continue
        if baseline is None:
            baseline = result.summary
        rows.append((str(model), result.summary))
    if rows:
        print(format_summary_table(rows, baseline=baseline))
    errors = doc["totals"]["errors"]
    if errors:
        print(f"repro: {errors} sweep cell(s) errored", file=sys.stderr)
        return 1
    return 0


def _cmd_tradeoffs(args) -> int:
    from repro.core.tradeoffs import analyze_all
    models = all_ddp_models() if args.all else None
    for profile in analyze_all(models):
        print(profile.row())
    return 0


def _cmd_recover(args) -> int:
    from repro.obs.run import observed_run
    spec = _spec_from(args)
    cluster = observed_run(spec).cluster
    sim = cluster.sim
    cluster.crash_all()
    sim.run_until_complete(sim.all_of(
        [cluster.restart_node(node.node_id) for node in cluster.nodes]))
    print(f"model                : {spec.model}")
    print(f"keys in NVM images   : {len(cluster.nvm_log.all_keys())}")
    for engine in cluster.engines:
        scan_ns, catch_up_ns, fetched = engine.time_to_serve
        print(f"node {engine.node_id} time to serve : "
              f"{(scan_ns + catch_up_ns) / 1000:.1f} us (scan "
              f"{scan_ns / 1000:.1f} us, catch-up {catch_up_ns / 1000:.1f} "
              f"us, {fetched} keys fetched)")
    return 0


def _cmd_order(args) -> int:
    from repro.devtools import sanitizer
    _preflight(args.sweep_out)
    seeds = args.seeds
    if len(set(seeds)) != len(seeds):
        raise _CliError(f"--seeds: {' '.join(map(str, seeds))} repeats a "
                        f"seed: each seed runs once")
    result = sanitizer.sweep(ops_per_client=args.ops, seeds=seeds)
    payload = json.dumps(result.to_dict(), indent=2)
    if args.sweep_out:
        with open(args.sweep_out, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
    if args.json:
        print(payload)
    else:
        cells = result.cells
        permuted = sum(sum(c.permuted.values()) for c in cells)
        print(f"sanitizer: {len(cells)} model(s) x {len(result.seeds)} "
              f"seed(s), {permuted} batch permutation(s), "
              f"{'all byte-identical' if result.ok else 'FAILED'}")
        for cell in result.diverged:
            print(f"  DIVERGED {cell.model}: seeds {cell.diverged} "
                  f"(pairs: {cell.observed_pairs})")
        for cell in result.vacuous:
            print(f"  VACUOUS {cell.model}: no seed reordered a batch "
                  f"(byte-identity certifies nothing)")
    return 0 if result.ok else 1


_COMMANDS = {
    "run": _cmd_run,
    "trace": _cmd_trace,
    "journey": _cmd_journey,
    "profile": _cmd_profile,
    "diff": _cmd_diff,
    "audit": _cmd_audit,
    "sweep": _cmd_sweep,
    "tradeoffs": _cmd_tradeoffs,
    "recover": _cmd_recover,
    "order": _cmd_order,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early — not an error.
        return 0
    except (_CliError, DiffError, SchemaError) as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
