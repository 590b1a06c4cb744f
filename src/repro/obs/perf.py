"""The kernel performance observatory: flamegraphs and hotspot tables.

Two complementary views of where a run's wall-clock goes, feeding the
ROADMAP item-1 kernel-speedup work (in the spirit of always-on,
low-overhead profiling a la Google-Wide Profiling):

* :class:`FrameSampler` — an opt-in statistical sampler.  A daemon
  thread polls ``sys._current_frames()`` for the simulation thread at a
  configurable wall interval (signal-free, so it works anywhere and
  never perturbs the sim — the GIL guarantees a consistent frame
  chain).  Samples are tagged with the active *sim phase* (kernel /
  protocol / store / workload / observability) inferred from the
  deepest ``repro.*`` frame, and export as Brendan-Gregg folded stacks
  (``stackcollapse`` format, one ``frame;frame;frame count`` line) or
  speedscope JSON.
* :func:`format_hotspots` — the ``repro profile`` hotspot table, built
  from a :class:`~repro.obs.profile.KernelProfile`'s attribution
  buckets: event kinds and message handlers ranked by cumulative wall
  time, with per-event overhead and share of the event-loop wall.

Determinism note: nothing here touches the simulator.  The sampler only
*reads* interpreter frames; the hotspot table only reads counters the
kernel already maintains behind its single ``is not None`` check.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "FrameSampler",
    "classify_phase",
    "format_hotspots",
    "hotspot_rows",
]

# Deepest repro.* frame decides the phase: the kernel shows up under
# every stack, so a protocol handler mid-callback counts as protocol
# work, not kernel work, matching how a human reads the flamegraph.
_PHASE_PREFIXES: Tuple[Tuple[str, str], ...] = (
    ("repro.sim", "kernel"),
    ("repro.store", "store"),
    ("repro.workload", "workload"),
    ("repro.obs", "observability"),
    ("repro.analysis", "observability"),
    ("repro.devtools", "observability"),
)
_PROTOCOL_PREFIX = "repro."  # any other repro.* module is protocol/model code


def classify_phase(stack: Sequence[str]) -> str:
    """Phase label for a root-first stack of ``module:function`` frames."""
    for frame in reversed(stack):
        module = frame.partition(":")[0]
        for prefix, phase in _PHASE_PREFIXES:
            if module == prefix or module.startswith(prefix + "."):
                return phase
        if module == "repro" or module.startswith(_PROTOCOL_PREFIX):
            return "protocol"
    return "other"


class FrameSampler:
    """Signal-free statistical sampler of one thread's Python stacks.

    Construct it on the thread that will run the simulation (the target
    thread id defaults to the constructing thread), then::

        sampler = FrameSampler(interval_s=0.005)
        sampler.start()
        ...  # run the simulation
        sampler.stop()
        sampler.write_folded("profile.folded")
        sampler.write_speedscope("profile.speedscope.json")

    Samples accumulate as ``(phase, stack, weight_seconds)`` tuples in
    :attr:`samples`; ``stack`` is root-first ``module:function`` frames.
    :meth:`sample_once` is public so tests can sample deterministically
    without the polling thread.
    """

    def __init__(self, interval_s: float = 0.005,
                 target_thread_id: Optional[int] = None):
        if interval_s <= 0:
            raise ValueError(f"sample interval must be > 0, got {interval_s}")
        self.interval_s = interval_s
        self.target_thread_id = (threading.get_ident()
                                 if target_thread_id is None
                                 else target_thread_id)
        self.samples: List[Tuple[str, Tuple[str, ...], float]] = []
        self._thread: Optional[threading.Thread] = None
        self._stop_event = threading.Event()

    # -- collection ----------------------------------------------------------

    def sample_once(self, weight_s: Optional[float] = None) -> bool:
        """Capture one stack of the target thread.  Returns False if the
        thread has no frames (exited).  ``weight_s`` defaults to the
        configured interval."""
        frame = sys._current_frames().get(self.target_thread_id)
        if frame is None:
            return False
        stack: List[str] = []
        own_module = __name__
        while frame is not None:
            module = frame.f_globals.get("__name__", "?")
            stack.append(f"{module}:{frame.f_code.co_name}")
            frame = frame.f_back
        stack.reverse()
        # When sampling our own thread (tests), trim the sampler's frames
        # so the leaf is the caller, as it would be for a polled target.
        while stack and stack[-1].startswith(own_module + ":"):
            stack.pop()
        if not stack:
            return False
        weight = self.interval_s if weight_s is None else weight_s
        self.samples.append((classify_phase(stack), tuple(stack), weight))
        return True

    def start(self) -> None:
        if self._thread is not None:
            raise RuntimeError("sampler already started")
        self._stop_event.clear()
        self._thread = threading.Thread(target=self._poll, daemon=True,
                                        name="repro-frame-sampler")
        self._thread.start()

    def stop(self) -> None:
        thread = self._thread
        if thread is None:
            return
        self._stop_event.set()
        thread.join()
        self._thread = None

    def _poll(self) -> None:
        # repro: lint-ok[wall-clock-ban] sampler weights are real elapsed time between polls
        last = time.perf_counter()
        while not self._stop_event.wait(self.interval_s):
            # repro: lint-ok[wall-clock-ban] sampler weights are real elapsed time between polls
            now = time.perf_counter()
            self.sample_once(weight_s=now - last)
            last = now

    # -- export --------------------------------------------------------------

    def folded_counts(self) -> Dict[str, float]:
        """Aggregate samples to ``phase;frame;frame -> weight_seconds``."""
        counts: Dict[str, float] = {}
        for phase, stack, weight in self.samples:
            key = ";".join((phase,) + stack)
            counts[key] = counts.get(key, 0.0) + weight
        return counts

    def write_folded(self, path: str) -> int:
        """Write Brendan-Gregg folded stacks (for ``flamegraph.pl`` /
        speedscope import).  Counts are integer milliseconds so standard
        tooling, which expects integers, renders sane widths.  Returns
        the number of stack lines written."""
        counts = self.folded_counts()
        lines = [f"{key} {max(1, round(weight * 1e3))}"
                 for key, weight in sorted(counts.items())]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + ("\n" if lines else ""))
        return len(lines)

    def speedscope_document(self, name: str = "repro") -> Dict[str, Any]:
        """The profile as a speedscope file-format document
        (``type: sampled``, weights in seconds)."""
        frame_index: Dict[str, int] = {}
        frames: List[Dict[str, str]] = []
        sample_stacks: List[List[int]] = []
        weights: List[float] = []
        for phase, stack, weight in self.samples:
            indices = []
            for frame_name in (f"[{phase}]",) + stack:
                index = frame_index.get(frame_name)
                if index is None:
                    index = frame_index[frame_name] = len(frames)
                    frames.append({"name": frame_name})
                indices.append(index)
            sample_stacks.append(indices)
            weights.append(weight)
        total = sum(weights)
        return {
            "$schema": "https://www.speedscope.app/file-format-schema.json",
            "shared": {"frames": frames},
            "profiles": [{
                "type": "sampled",
                "name": name,
                "unit": "seconds",
                "startValue": 0.0,
                "endValue": total,
                "samples": sample_stacks,
                "weights": weights,
            }],
            "exporter": "repro.obs.perf",
            "name": name,
        }

    def write_speedscope(self, path: str, name: str = "repro") -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.speedscope_document(name), fh, indent=1,
                      sort_keys=True)
            fh.write("\n")

    def phase_totals(self) -> Dict[str, float]:
        """Sampled wall seconds per phase (the coarse breakdown)."""
        totals: Dict[str, float] = {}
        for phase, _stack, weight in self.samples:
            totals[phase] = totals.get(phase, 0.0) + weight
        return totals


# ---------------------------------------------------------------------------
# hotspot table
# ---------------------------------------------------------------------------

def hotspot_rows(profile: Any) -> List[Dict[str, Any]]:
    """Attribution buckets of a :class:`KernelProfile`, ranked by
    cumulative wall seconds (descending), ties broken by name.

    Each row: ``section`` (``event_kind`` or ``msg_type``), ``name``,
    ``count``, ``wall_seconds``, ``ns_per_event``, and ``share`` of the
    event-loop wall (msg_type rows are a *refinement* of the
    process-resume event rows, so shares across sections overlap).
    """
    loop = profile.loop_wall_seconds
    rows: List[Dict[str, Any]] = []
    for section, table in (("event_kind", profile.by_event_kind),
                           ("msg_type", profile.by_msg_type)):
        for name, stats in table.items():
            count, wall = stats[0], stats[1]
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


def format_hotspots(profile: Any, top: Optional[int] = None) -> str:
    """Human-readable hotspot table for ``repro profile``."""
    loop = profile.loop_wall_seconds
    attributed = profile.attributed_wall_seconds
    coverage = (attributed / loop * 100.0) if loop > 0 else 0.0
    lines = [
        f"kernel loop: {loop * 1e3:.1f} ms wall, "
        f"{profile.events_processed} events, "
        f"{coverage:.1f}% attributed to event buckets",
    ]
    header = (f"{'bucket':<28} {'count':>10} {'wall ms':>10} "
              f"{'ns/event':>10} {'share':>7}")
    rule = "-" * len(header)
    for section, title in (("event_kind", "by event kind"),
                           ("msg_type", "by message handler (refines "
                                        "process-resume time)")):
        rows = [row for row in hotspot_rows(profile)
                if row["section"] == section]
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
    scheduling = profile.snapshot()["scheduling"]
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
