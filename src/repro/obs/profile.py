"""Profiling the simulation kernel itself.

Every future "make a hot path measurably faster" PR needs to know what
the kernel spent its time on.  :class:`KernelProfile` is an
:class:`~repro.sim.engine.Instrument`: ``attach(sim)`` puts it in the
kernel's one observer slot (``sim.instrument``), and the single run loop
then calls ``loop_enter``/``loop_exit`` around itself,
``before_pop(times, entries)`` before every instant it pops,
``after_event(entry)`` after every entry, and bumps the
process/cancellation/resume counters; with nothing attached (the
default) the loop pays two ``is not None`` checks per entry.  ``step()``,
``run()`` and ``run_until_complete()`` all drive that same loop, so the
counts below are the counts of every run, however it was driven.

Collected:

* ``events_processed`` — instants popped (a ``step()`` is a pop too).
* ``calls_coalesced`` — entries run inside another entry's pop: the
  pops plus these are the entries run.
* ``heap_peak`` — high-water mark of the pending instants (scheduling
  depth).
* ``processes_spawned`` — generator processes launched.
* wall-clock — real seconds between :meth:`start` and :meth:`stop`,
  reported per simulated second so runs of different lengths compare.

Attribution (what ``repro profile``'s hotspot table,
:func:`format_hotspots`, ranks from a saved report's ``profile``
section):

* ``by_event_kind`` — per entry kind (timeout, a process's wake
  included, msg_delivery, process_start/end, call_at, composite,
  interrupt, event) the entry count and cumulative wall seconds.
* ``by_msg_type`` — per protocol :class:`~repro.core.messages.MsgType`
  handler, the message count, cumulative wall seconds, and resumes
  after a wait (filled in by :meth:`call_handler` for every plain-call
  segment of a handler and :meth:`drive_handler` for what is left of
  one that loops over waits; ``core.engine`` routes dispatch through
  them when a profile is attached).
* scheduling statistics — heap-depth histogram (power-of-two buckets),
  tie-batch size histogram (the entries one instant ran), defused-event
  and cancelled-callback counts, trampoline hops per resume, and the
  two ratios ROADMAP item 1 budgets: kernel events (instants popped)
  and spawned processes per handled protocol message.

All wall-clock reads live here (waivered) so the kernel stays clean of
``time`` imports; ``loop_wall_seconds`` brackets only the event loop, so
attribution buckets sum to ~100% of it (the hotspot-table denominator).
For Python stacks rather than kernel buckets, run the CLI under
``python -m cProfile -m repro.cli run ...``.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Generator, List, Optional

from repro.sim.engine import Instrument, entry_kind

__all__ = ["KernelProfile", "format_hotspots", "format_kernel",
           "hotspot_rows"]


class KernelProfile(Instrument):
    """Cheap kernel counters plus wall-clock accounting."""

    __slots__ = ("events_processed", "calls_coalesced", "heap_peak", "processes_spawned",
                 "_wall_start", "wall_seconds", "sim_ns",
                 "loop_wall_seconds", "by_event_kind", "by_msg_type",
                 "heap_depth_hist", "_last_stamp", "_loop_start",
                 "tie_batch_hist", "_tie_when", "_tie_run", "_coalescing",
                 "events_defused", "callbacks_cancelled",
                 "trampoline_hops", "resume_segments")

    def __init__(self):
        self.events_processed = 0
        self.calls_coalesced = 0
        self.heap_peak = 0
        self.processes_spawned = 0
        self._wall_start: Optional[float] = None
        self.wall_seconds = 0.0
        self.sim_ns = 0.0
        # Event-loop wall time only (between loop_enter/loop_exit); the
        # denominator for attribution shares, excluding setup/teardown.
        self.loop_wall_seconds = 0.0
        # kind -> [count, wall_seconds]
        self.by_event_kind: Dict[str, List] = {}
        # MsgType.value -> [count, wall_seconds, resume_segments]
        self.by_msg_type: Dict[str, List] = {}
        # heap depth bit_length bucket -> pops observed at that depth
        # (bucket b covers depths 2**(b-1) .. 2**b - 1; bucket 0 is depth 0)
        self.heap_depth_hist: Dict[int, int] = {}
        # Wall stamps of the running loop's start and of the last
        # event's end (see after_event); set by loop_enter.
        self._loop_start = self._last_stamp = 0.0
        # tie-batch size -> batches (the entries one instant ran)
        self.tie_batch_hist: Dict[int, int] = {}
        self._tie_when: Optional[float] = None
        self._tie_run = 0
        # 0 until the popped instant's first entry has run, then 1
        self._coalescing = 0
        self.events_defused = 0
        self.callbacks_cancelled = 0
        self.trampoline_hops = 0
        self.resume_segments = 0

    # -- lifecycle -----------------------------------------------------------

    def attach(self, sim: Any) -> KernelProfile:
        """Install on a simulator and start the wall clock."""
        super().attach(sim)
        self.start()
        return self

    def start(self) -> None:
        self._wall_start = time.perf_counter()

    def stop(self, sim_now: float) -> None:
        """Freeze wall-clock and simulated extent (idempotent)."""
        if self._wall_start is not None:
            self.wall_seconds += time.perf_counter() - self._wall_start
            self._wall_start = None
        self._flush_tie_run()
        self.sim_ns = sim_now

    # -- kernel hooks (repro.sim.engine.Instrument) ---------------------------

    def before_pop(self, times: List[float], entries: List) -> None:
        """Scheduling stats of the instant about to be popped."""
        self.events_processed += 1
        self._coalescing = 0
        depth = len(times)
        if depth > self.heap_peak:
            self.heap_peak = depth
        bucket = depth.bit_length()
        hist = self.heap_depth_hist
        hist[bucket] = hist.get(bucket, 0) + 1
        if times[0] != self._tie_when:
            self._flush_tie_run()
            self._tie_when = times[0]

    def after_event(self, event: Any) -> None:
        """Bucket the wall time since the previous event ended (or the
        loop began): pop, peek and bookkeeping overhead stays attributed
        to an event kind, so the buckets sum to ~100% of the loop."""
        now = time.perf_counter()
        kind = entry_kind(event)
        bucket = self.by_event_kind.get(kind)
        if bucket is None:
            bucket = self.by_event_kind[kind] = [0, 0.0]
        bucket[0] += 1
        bucket[1] += now - self._last_stamp
        self._last_stamp = now
        self.calls_coalesced += self._coalescing
        self._coalescing = 1
        self._tie_run += 1
        if event.__class__ is not tuple and event.defused:
            self.events_defused += 1

    def loop_enter(self) -> None:
        self._loop_start = self._last_stamp = time.perf_counter()

    def loop_exit(self) -> None:
        self.loop_wall_seconds += time.perf_counter() - self._loop_start

    def drive_handler(self, label: str, handler: Generator) -> Generator:
        """Run the rest of a protocol message handler — the generator
        one of its :meth:`call_handler` segments returned, which counted
        the message — timing each resume segment.

        A transparent generator shim: yields exactly the events ``handler``
        yields, forwards sent values and thrown exceptions unchanged, so
        kernel scheduling (and hence the run) is byte-identical — only the
        wall time between a resume and the next suspend is recorded under
        ``label`` (the ``MsgType`` value).
        """
        stats = self.by_msg_type.setdefault(label, [0, 0.0, 0])
        value: Any = None
        error: Optional[BaseException] = None
        while True:
            t0 = time.perf_counter()
            try:
                if error is None:
                    target = handler.send(value)
                else:
                    target, error = handler.throw(error), None
            except StopIteration:
                stats[1] += time.perf_counter() - t0
                return
            except BaseException:
                stats[1] += time.perf_counter() - t0
                raise
            stats[1] += time.perf_counter() - t0
            stats[2] += 1
            try:
                value = yield target
            except BaseException as exc:  # rethrown into the handler next turn
                error = exc
                value = None

    def call_handler(self, label: str, handler: Callable[..., Any],
                     *args: Any, resumed: bool = False) -> Any:
        """Run one plain-call segment of a protocol message handler —
        all of one that cannot wait, or one stretch of one that parks
        between callbacks — timed under ``label`` like a
        :meth:`drive_handler` segment; returns what it returns."""
        stats = self.by_msg_type.setdefault(label, [0, 0.0, 0])
        # A handler's first segment counts its message; one that
        # continues it is one more resume, as after a generator's yield.
        stats[2 if resumed else 0] += 1
        t0 = time.perf_counter()
        try:
            return handler(*args)
        finally:
            stats[1] += time.perf_counter() - t0

    def _flush_tie_run(self) -> None:
        if self._tie_run:
            hist = self.tie_batch_hist
            hist[self._tie_run] = hist.get(self._tie_run, 0) + 1
            self._tie_run = 0
            self._tie_when = None

    # -- derived -------------------------------------------------------------

    @property
    def wall_elapsed_seconds(self) -> float:
        """Wall seconds including any still-running interval.

        Mid-run (before :meth:`stop`), ``wall_seconds`` alone is the sum
        of *closed* intervals — zero on the first lap — so live readers
        (``HealthMonitor``, mid-run snapshots) must fold in the in-flight
        elapsed time or they report a dishonest 0.
        """
        elapsed = self.wall_seconds
        if self._wall_start is not None:
            # Live snapshots include the in-flight interval.
            elapsed += time.perf_counter() - self._wall_start
        return elapsed

    @property
    def events_per_wall_second(self) -> float:
        wall = self.wall_elapsed_seconds
        if wall <= 0:
            return 0.0
        return self.events_processed / wall

    @property
    def wall_seconds_per_sim_second(self) -> float:
        """Slowdown factor: real seconds per simulated second."""
        if self.sim_ns <= 0:
            return 0.0
        return self.wall_elapsed_seconds / (self.sim_ns * 1e-9)

    @property
    def messages_handled(self) -> int:
        return sum(stats[0] for stats in self.by_msg_type.values())

    @property
    def events_per_message(self) -> float:
        """Kernel events per handled protocol message: the whole run's
        pops over its handled messages, so client work and persists
        ride along — comparable across commits, not across models."""
        messages = self.messages_handled
        return self.events_processed / messages if messages else 0.0

    @property
    def processes_per_message(self) -> float:
        """Processes spawned per handled protocol message (same
        whole-run convention as :attr:`events_per_message`)."""
        messages = self.messages_handled
        return self.processes_spawned / messages if messages else 0.0

    @property
    def attributed_wall_seconds(self) -> float:
        """Wall seconds accounted to some event-kind bucket."""
        return sum(bucket[1] for bucket in self.by_event_kind.values())

    def snapshot(self) -> Dict[str, Any]:
        """The run-report ``profile`` section (schema ``/5`` shape).

        Flat headline counters first (the ``/4`` shape, unchanged), then
        the ``attribution`` and ``scheduling`` subsections the
        observatory added.  Safe to call mid-run: wall-derived values
        include the in-flight interval (see :attr:`wall_elapsed_seconds`).
        """
        messages = self.messages_handled
        loop = self.loop_wall_seconds
        attributed = self.attributed_wall_seconds
        entries = self.events_processed + self.calls_coalesced
        return {
            "events_processed": self.events_processed,
            "calls_coalesced": self.calls_coalesced,
            "heap_peak": self.heap_peak,
            "processes_spawned": self.processes_spawned,
            "sim_ns": self.sim_ns,
            "wall_seconds": self.wall_elapsed_seconds,
            "events_per_wall_second": self.events_per_wall_second,
            "wall_seconds_per_sim_second": self.wall_seconds_per_sim_second,
            "loop_wall_seconds": loop,
            "attribution": {
                "by_event_kind": {
                    kind: {"count": count, "wall_seconds": wall}
                    for kind, (count, wall)
                    in sorted(self.by_event_kind.items())
                },
                "by_msg_type": {
                    label: {"count": count, "wall_seconds": wall,
                            "resume_segments": segments}
                    for label, (count, wall, segments)
                    in sorted(self.by_msg_type.items())
                },
                "attributed_wall_seconds": attributed,
                "attributed_fraction":
                    attributed / loop if loop > 0 else 0.0,
            },
            "scheduling": {
                "heap_depth_hist": {
                    str(bucket): count for bucket, count
                    in sorted(self.heap_depth_hist.items())
                },
                "tie_batch_hist": {
                    str(size): count for size, count
                    in sorted(self.tie_batch_hist.items())
                },
                "max_tie_batch":
                    max(self.tie_batch_hist) if self.tie_batch_hist else 0,
                "events_defused": self.events_defused,
                "defused_ratio":
                    self.events_defused / entries if entries else 0.0,
                "callbacks_cancelled": self.callbacks_cancelled,
                "trampoline_hops": self.trampoline_hops,
                "resume_segments": self.resume_segments,
                "messages_handled": messages,
                "hops_per_message":
                    self.trampoline_hops / messages if messages else 0.0,
                "events_per_message": self.events_per_message,
                "processes_per_message": self.processes_per_message,
            },
        }


def format_kernel(profile: Dict[str, Any]) -> str:
    """The one-line kernel summary of a ``profile`` section
    (:meth:`KernelProfile.snapshot`, as a run report carries it)."""
    return (f"kernel: {profile['events_processed']} events, "
            f"heap peak {profile['heap_peak']}, "
            f"{profile['processes_spawned']} processes, "
            f"{profile['wall_seconds'] * 1e3:.1f} ms wall "
            f"({profile['events_per_wall_second'] / 1e6:.2f} Mevents/s, "
            f"{profile['wall_seconds_per_sim_second']:.0f}x slowdown)")


def hotspot_rows(profile: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Attribution buckets of a ``profile`` section, ranked by
    cumulative wall seconds (descending), ties broken by name.

    Each row: ``section`` (``event_kind`` or ``msg_type``), ``name``,
    ``count``, ``wall_seconds``, ``ns_per_event``, and ``share`` of the
    event-loop wall (msg_type rows are a *refinement* of the
    process-resume event rows, so shares across sections overlap).
    """
    loop = profile["loop_wall_seconds"]
    attribution = profile["attribution"]
    rows: List[Dict[str, Any]] = []
    for section in ("event_kind", "msg_type"):
        for name, stats in attribution[f"by_{section}"].items():
            count, wall = stats["count"], stats["wall_seconds"]
            rows.append({
                "section": section,
                "name": name,
                "count": count,
                "wall_seconds": wall,
                "ns_per_event": (wall / count * 1e9) if count else 0.0,
                "share": (wall / loop) if loop > 0 else 0.0,
            })
    rows.sort(key=lambda row: (-row["wall_seconds"], row["name"]))
    return rows


def format_hotspots(profile: Dict[str, Any],
                    top: Optional[int] = None) -> str:
    """Human-readable hotspot table of a ``profile`` section, for
    ``repro profile``."""
    loop = profile["loop_wall_seconds"]
    attributed = profile["attribution"]["attributed_wall_seconds"]
    coverage = (attributed / loop * 100.0) if loop > 0 else 0.0
    lines = [
        f"kernel loop: {loop * 1e3:.1f} ms wall, "
        f"{profile['events_processed']} events "
        f"(+{profile['calls_coalesced']} calls coalesced), "
        f"{coverage:.1f}% attributed to event buckets",
    ]
    header = (f"{'bucket':<28} {'count':>10} {'wall ms':>10} "
              f"{'ns/event':>10} {'share':>7}")
    rule = "-" * len(header)
    ranked = hotspot_rows(profile)
    for section, title in (("event_kind", "by event kind"),
                           ("msg_type", "by message handler (refines "
                                        "process-resume time)")):
        rows = [row for row in ranked if row["section"] == section]
        if top is not None:
            rows = rows[:top]
        if not rows:
            continue
        lines += ["", title, header, rule]
        for row in rows:
            lines.append(
                f"{row['name']:<28} {row['count']:>10} "
                f"{row['wall_seconds'] * 1e3:>10.2f} "
                f"{row['ns_per_event']:>10.0f} "
                f"{row['share'] * 100:>6.1f}%")
    scheduling = profile["scheduling"]
    lines += [
        "",
        "scheduling: "
        f"max tie-batch {scheduling['max_tie_batch']}, "
        f"defused ratio {scheduling['defused_ratio']:.4f}, "
        f"{scheduling['callbacks_cancelled']} callbacks cancelled, "
        f"{scheduling['hops_per_message']:.2f} trampoline hops/message",
        "per handled message: "
        f"{scheduling['events_per_message']:.2f} kernel events, "
        f"{scheduling['processes_per_message']:.3f} processes spawned",
    ]
    return "\n".join(lines)
