"""The traced pass: per-layer numbers, taken from outside the layers.

One traced repeat runs the same spec and seed as a timed repeat with

* a ``KernelProfile`` passed through the public ``profile=`` argument,
* timing wrappers assigned onto the instances of the ``Cluster`` the
  benchmark built (``Network.send``, the stores, the request streams,
  ``Metrics.summarize``, the fault injector's ``on_message``),
* ``gc.callbacks`` timing every collection,

and nothing added inside ``src/``.  Spans are kept in memory and handed
back in the result as ``{layer, name, calls, host_s, self_s}``; a span's
self time is its time minus the spans that ran inside it.

Every source is read defensively: an attribute, key or module a later
refactor removes yields ``None`` for the metrics built on it, never a
crash — the end-to-end numbers must survive ROADMAP item 3.
"""

from __future__ import annotations

import contextlib
import cProfile
import gc
import importlib
import pstats
import time
from typing import Any, Callable, Dict, Iterable, List, Optional

import worker

#: Every ``MsgType`` value gets a ``core.handler_host_us.<type>`` metric.
MSG_TYPES = ("INV", "ACK", "ACK_c", "ACK_p", "VAL", "VAL_c", "VAL_p", "UPD",
             "INITX", "ENDX", "PERSIST")
EVENT_KINDS = ("timeout", "event", "process_start", "process_end",
               "msg_delivery", "call_at")
STORE_CALLS = ("get", "put", "read_cost", "write_cost")


def optional(module: str, name: str) -> Any:
    """``module.name``, or None when a refactor moved or removed it."""
    try:
        return getattr(importlib.import_module(module), name, None)
    except ImportError:
        return None


def dig(source: Any, *path: Any) -> Any:
    """Follow ``path`` through attributes and keys; None when any step
    is missing."""
    for step in path:
        if source is None:
            return None
        if isinstance(source, dict):
            source = source.get(step)
        else:
            source = getattr(source, step, None)
    return source


def ratio(numerator: Optional[float], denominator: Optional[float],
          scale: float = 1.0) -> Optional[float]:
    """``numerator / denominator * scale``; None when either is missing
    or there is nothing to divide by."""
    if numerator is None or not denominator:
        return None
    return numerator / denominator * scale


class Tally:
    """Sums and maxima across cells in which one missing source poisons
    the key: a total that silently skipped a cell would look like a gain."""

    def __init__(self):
        self._values: Dict[str, float] = {}
        self._missing = set()

    def add(self, key: str, value: Optional[float]) -> None:
        if value is None:
            self._missing.add(key)
        else:
            self._values[key] = self._values.get(key, 0) + value

    def peak(self, key: str, values: Iterable[Optional[float]]) -> None:
        values = list(values)
        if not values or any(v is None for v in values):
            self._missing.add(key)
        else:
            self._values[key] = max(self._values.get(key, 0), *values)

    def get(self, key: str) -> Optional[float]:
        return None if key in self._missing else self._values.get(key)


class Spans:
    """In-memory spans keyed by (layer, name), with self time."""

    def __init__(self):
        self.rows: Dict[tuple, List[float]] = {}   # [calls, host_s, child_s]
        self._stack: List[List[float]] = []        # open spans: [t0, child_s]

    def _row(self, layer: str, name: str) -> List[float]:
        return self.rows.setdefault((layer, name), [0, 0.0, 0.0])

    def _close(self, row: List[float]) -> None:
        t0, child_s = self._stack.pop()
        elapsed = time.perf_counter() - t0
        row[0] += 1
        row[1] += elapsed
        row[2] += child_s
        if self._stack:
            self._stack[-1][1] += elapsed

    def wrap(self, obj: Any, attr: str, layer: str) -> bool:
        """Time every call of ``obj.attr`` by assigning a wrapper onto
        the instance.  False when there is nothing to wrap."""
        fn = getattr(obj, attr, None)
        if fn is None:
            return False
        row = self._row(layer, attr)
        stack, close, clock = self._stack, self._close, time.perf_counter

        def timed(*args, **kwargs):
            stack.append([clock(), 0.0])
            try:
                return fn(*args, **kwargs)
            finally:
                close(row)

        try:
            setattr(obj, attr, timed)
        except AttributeError:   # __slots__ without the name
            return False
        return True

    @contextlib.contextmanager
    def span(self, layer: str, name: str):
        self._stack.append([time.perf_counter(), 0.0])
        try:
            yield
        finally:
            self._close(self._row(layer, name))

    def gc_callback(self) -> Callable[[str, Dict[str, int]], None]:
        """A ``gc.callbacks`` entry: collections become ``host.gc`` spans,
        so the layer they interrupted is not charged for them."""
        row = self._row("host", "gc")
        gen2 = self._row("host", "gc_gen2")

        def on_gc(phase: str, info: Dict[str, int]) -> None:
            if phase == "start":
                self._stack.append([time.perf_counter(), 0.0])
            elif self._stack:
                self._close(row)
                if info.get("generation") == 2:
                    gen2[0] += 1
        return on_gc

    def calls(self, layer: str, *names: str) -> Optional[float]:
        rows = [self.rows.get((layer, n)) for n in names]
        return None if None in rows else sum(r[0] for r in rows)

    def host_s(self, layer: str, *names: str) -> Optional[float]:
        rows = [self.rows.get((layer, n)) for n in names]
        return None if None in rows else sum(r[1] for r in rows)

    def table(self) -> List[Dict[str, Any]]:
        return [{"layer": layer, "name": name, "calls": int(calls),
                 "host_s": host_s, "self_s": host_s - child_s}
                for (layer, name), (calls, host_s, child_s)
                in sorted(self.rows.items())]


class TraceProbe(worker.Probe):
    """Installs the profile and the wrappers; collects the raw numbers
    behind every per-layer metric that comes from a cluster run."""

    def __init__(self):
        self.spans = Spans()
        self.tally = Tally()
        self.snapshots: List[Optional[Dict[str, Any]]] = []
        self._profile = None
        self._recorder = None
        self._model = None
        self.audit_target_ok: Optional[bool] = None

    # -- worker.Probe ------------------------------------------------------

    def cluster_kwargs(self, workload, model):
        self._model = model
        kwargs: Dict[str, Any] = {}
        profile_cls = optional("repro.obs", "KernelProfile")
        self._profile = profile_cls() if profile_cls else None
        if self._profile is not None:
            kwargs["profile"] = self._profile
        self._recorder = None
        recorder_cls = optional("repro.obs", "HistoryRecorder")
        if workload.chaos and recorder_cls is not None:
            self._recorder = recorder_cls()
            kwargs["history"] = self._recorder
        return kwargs

    def built(self, cluster):
        spans = self.spans
        spans.wrap(dig(cluster, "network"), "send", "net")
        for node in dig(cluster, "nodes") or ():
            for call in STORE_CALLS:
                spans.wrap(dig(node, "store"), call, "store")
        for client in dig(cluster, "clients") or ():
            spans.wrap(dig(client, "stream"), "next_request", "workload")
        spans.wrap(dig(cluster, "metrics"), "summarize", "analysis")
        # The injector hooks the network only when its plan can touch
        # messages; wrap what the network will actually call.
        spans.wrap(dig(cluster, "network", "faults"), "on_message", "faults")
        spans.wrap(cluster, "run", "cluster")

    def ran(self, cluster, summary):
        tally = self.tally
        snapshot = (self._profile.snapshot()
                    if hasattr(self._profile, "snapshot") else None)
        self.snapshots.append(snapshot)
        nodes = dig(cluster, "nodes") or ()
        nics = [dig(node, "nic") for node in nodes]
        nvms = [dig(node, "memory", "nvm") for node in nodes]
        tally.peak("net.qp_peak_queue",
                   (dig(nic, "queue_pairs", "peak_queue_len") for nic in nics))
        tally.peak("net.inbox_peak",
                   (dig(nic, "inbox", "peak_len") for nic in nics))
        tally.add("net.dropped", dig(cluster, "network", "dropped_messages"))
        for engine in dig(cluster, "engines") or (None,):
            tally.add("net.resends", dig(engine, "round_resends"))
        for nvm in nvms or (None,):
            tally.add("nvm.persists", dig(nvm, "persists"))
            tally.add("nvm.queued_ns", dig(nvm, "queued_ns"))
            tally.add("nvm.busy_ns", dig(nvm, "busy_ns"))
            banks, now = dig(nvm, "timing", "total_banks"), dig(cluster, "sim", "now")
            tally.add("nvm.bank_ns",
                      None if banks is None or now is None else banks * now)
        tally.peak("memory.nvm_peak_queue",
                   (dig(nvm, "peak_queue_len") for nvm in nvms))
        tally.add("txn.begun", dig(cluster, "txn_table", "begun"))
        tally.add("txn.aborted", dig(cluster, "txn_table", "aborted"))
        for field in ("requests", "total_messages", "total_bytes", "persists",
                      "read_stalls"):
            tally.add("summary." + field, dig(summary, field))
        tally.peak("core.causal_buffer_peak",
                   [dig(summary, "causal_buffer_peak")])
        if self._recorder is not None:
            self._audit(cluster)

    def _audit(self, cluster) -> None:
        audit_history = optional("repro.audit", "audit_history")
        recovered = optional("repro.obs", "recovered_from_cluster")
        if audit_history is None or recovered is None:
            return
        recorder = self._recorder
        with self.spans.span("audit", "audit_history"):
            recorder.meta = {"consistency": self._model.consistency.value,
                             "persistency": self._model.persistency.value}
            recorder.recovered = recovered(cluster)
            report = audit_history(recorder.history())
        self.tally.add("audit.ops", dig(report, "history", "ops"))
        self.audit_target_ok = dig(report, "target", "ok")

    def result(self):
        return {"spans": self.spans.table()}


def kernel_metrics(snapshots: List[Optional[Dict[str, Any]]],
                   requests: Optional[float]) -> Dict[str, Optional[float]]:
    """The ``sim.*`` and ``core.*`` metrics that come from
    ``KernelProfile.snapshot()``, summed over cells."""
    tally = Tally()
    for snap in snapshots or [None]:
        tally.add("events", dig(snap, "events_processed"))
        tally.add("procs", dig(snap, "processes_spawned"))
        tally.add("loop_s", dig(snap, "loop_wall_seconds"))
        tally.add("handled", dig(snap, "scheduling", "messages_handled"))
        tally.peak("heap_peak", [dig(snap, "heap_peak")])
        tally.peak("max_tie_batch", [dig(snap, "scheduling", "max_tie_batch")])
        kinds = dig(snap, "attribution", "by_event_kind")
        for kind in EVENT_KINDS:
            # A kind that never fired in this cell took no time.
            tally.add("kind." + kind, None if kinds is None
                      else dig(kinds, kind, "wall_seconds") or 0.0)
        types = dig(snap, "attribution", "by_msg_type")
        for label in MSG_TYPES:
            stats = dig(types, label)
            tally.add("type_s." + label, None if types is None
                      else dig(stats, "wall_seconds") or 0.0)
            tally.add("type_n." + label, None if types is None
                      else dig(stats, "count") or 0)
        tally.add("handler_s", None if types is None else sum(
            dig(stats, "wall_seconds") or 0.0 for stats in types.values()))
    events, loop_s = tally.get("events"), tally.get("loop_s")
    handled = tally.get("handled")
    metrics = {
        "sim.events_per_op": ratio(events, requests),
        "sim.events_per_msg": ratio(events, handled),
        "sim.procs_per_msg": ratio(tally.get("procs"), handled),
        "sim.heap_peak": tally.get("heap_peak"),
        "sim.max_tie_batch": tally.get("max_tie_batch"),
        "sim.host_ns_per_event": ratio(loop_s, events, 1e9),
        "core.msgs_handled_per_op": ratio(handled, requests),
        "core.handler_share": ratio(tally.get("handler_s"), loop_s),
        "core.handler_host_us_per_msg":
            ratio(tally.get("handler_s"), handled, 1e6),
    }
    for kind in EVENT_KINDS:
        metrics["sim.kind_share." + kind] = ratio(
            tally.get("kind." + kind), loop_s)
    for label in MSG_TYPES:
        metrics["core.handler_host_us." + label] = ratio(
            tally.get("type_s." + label), tally.get("type_n." + label), 1e6)
    return metrics


def layer_metrics(result: Dict[str, Any], probe: TraceProbe,
                  ) -> Dict[str, Optional[float]]:
    """Every per-layer metric a traced cluster run yields."""
    tally, spans = probe.tally, probe.spans
    requests = tally.get("summary.requests")
    cells = result["cells"]
    run_s = spans.host_s("cluster", "run")
    metrics = kernel_metrics(probe.snapshots, requests)
    anchor = result.get("anchor_ratio")
    metrics.update({
        "net.msgs_per_op": ratio(tally.get("summary.total_messages"), requests),
        "net.bytes_per_op": ratio(tally.get("summary.total_bytes"), requests),
        "net.qp_peak_queue": tally.get("net.qp_peak_queue"),
        "net.inbox_peak": tally.get("net.inbox_peak"),
        "net.dropped": tally.get("net.dropped"),
        "net.resends": tally.get("net.resends"),
        "net.send_host_us_per_call": ratio(
            spans.host_s("net", "send"), spans.calls("net", "send"), 1e6),
        "memory.persists_per_op": ratio(tally.get("summary.persists"), requests),
        "memory.nvm_wait_ns_per_persist": ratio(
            tally.get("nvm.queued_ns"), tally.get("nvm.persists")),
        "memory.nvm_busy_frac": ratio(
            tally.get("nvm.busy_ns"), tally.get("nvm.bank_ns")),
        "memory.nvm_peak_queue": tally.get("memory.nvm_peak_queue"),
        "store.calls_per_op": ratio(spans.calls("store", *STORE_CALLS), requests),
        "store.host_us_per_call": ratio(
            spans.host_s("store", *STORE_CALLS),
            spans.calls("store", *STORE_CALLS), 1e6),
        "workload.next_request_host_us": ratio(
            spans.host_s("workload", "next_request"),
            spans.calls("workload", "next_request"), 1e6),
        "core.read_stalls_per_kop": ratio(
            tally.get("summary.read_stalls"), requests, 1e3),
        "core.causal_buffer_peak": tally.get("core.causal_buffer_peak"),
        "txn.abort_frac": ratio(tally.get("txn.aborted"), tally.get("txn.begun")),
        "cluster.import_ms": result["import_s"] * 1e3,
        "cluster.build_ms_per_cell": result["build_s"] / cells * 1e3,
        "analysis.summarize_ms": ratio(
            spans.host_s("analysis", "summarize"),
            spans.calls("analysis", "summarize"), 1e3),
        "analysis.sim_p99_write_us": result["sim_p99_write_us"],
        "analysis.paper_anchor_err": None if anchor is None else abs(
            anchor - worker.PAPER_ANCHOR_RATIO) / worker.PAPER_ANCHOR_RATIO,
        "faults.on_message_host_us_per_call": ratio(
            spans.host_s("faults", "on_message"),
            spans.calls("faults", "on_message"), 1e6),
        "recovery.validate_ms": ratio(result["validate_s"], 1, 1e3),
        "audit.audit_ms_per_kop": ratio(
            spans.host_s("audit", "audit_history"), tally.get("audit.ops"), 1e6),
        "audit.target_ok": None if probe.audit_target_ok is None
            else float(probe.audit_target_ok),
        "host.gc_share": ratio(spans.host_s("host", "gc"), run_s),
        "host.gc_gen2_collections": spans.calls("host", "gc_gen2"),
    })
    return metrics


def run_traced(name: str, seed: int, scale: float) -> Dict[str, Any]:
    probe = TraceProbe()
    on_gc = probe.spans.gc_callback()
    gc.callbacks.append(on_gc)
    try:
        result = worker.run_workload(name, seed, scale, probe,
                                     interleave=False)
    finally:
        gc.callbacks.remove(on_gc)
    result["per_layer"] = layer_metrics(result, probe)
    return result


class ObserverProbe(worker.Probe):
    """One observer attached the way the CLI attaches it, nothing else."""

    def __init__(self, observer: str):
        self.observer = observer
        self.missing = False

    def _make(self, module: str, name: str, *args, **kwargs) -> Any:
        cls = optional(module, name)
        if cls is None:
            self.missing = True
            return None
        return cls(*args, **kwargs)

    def cluster_kwargs(self, workload, model):
        if self.observer == "tracer":
            made = {"tracer": self._make("repro.sim.trace", "Tracer")}
        elif self.observer == "journey":
            made = {"tracer": self._make("repro.obs", "JourneyTracker",
                                         workload.servers)}
        elif self.observer == "health":
            made = {"monitor": self._make("repro.obs", "HealthMonitor")}
        elif self.observer == "history":
            made = {"history": self._make("repro.obs", "HistoryRecorder")}
        else:
            made = {}
        return {key: value for key, value in made.items() if value is not None}

    def built(self, cluster):
        if self.observer == "sanitizer":
            sanitizer = self._make("repro.devtools.sanitizer",
                                   "TieBatchSanitizer", seed=None)
            if sanitizer is not None:
                sanitizer.attach(cluster.sim)

    def result(self):
        return {"observer_missing": self.missing}


class CallCountProbe(worker.Probe):
    """Counts Python and C calls inside ``Cluster.run`` with ``cProfile``:
    an exact host-work count, for changes smaller than the time bound
    can resolve."""

    def __init__(self):
        self.profiler = cProfile.Profile()

    def built(self, cluster):
        run = cluster.run
        cluster.run = lambda *args, **kwargs: self.profiler.runcall(
            run, *args, **kwargs)

    def result(self):
        return {"pycalls": pstats.Stats(self.profiler).total_calls}


def run_job(job: Dict[str, Any]) -> Dict[str, Any]:
    """A child job of the traced pass (see ``worker.main``).  None of
    them calibrates inside the run: bursts there would land in the spans
    and in the call count."""
    mode = job["mode"]
    if mode == "ladder":
        import layers
        return layers.run_ladder(job["seed"])
    name, seed, scale = job["workload"], job["seed"], job["scale"]
    if mode == "traced":
        return run_traced(name, seed, scale)
    if mode == "bare":
        probe = worker.Probe()
    elif mode == "pycalls":
        probe = CallCountProbe()
    elif mode.startswith("observer:"):
        probe = ObserverProbe(mode.partition(":")[2])
    else:
        raise ValueError(f"unknown job mode {mode!r}")
    return worker.run_workload(name, seed, scale, probe, interleave=False)
