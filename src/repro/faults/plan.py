"""Declarative, deterministic fault plans.

A plan is a seed plus a list of :class:`FaultEvent` entries.  Plans are
authored in JSON (times in microseconds, matching the CLI's
``--duration-us``) or built from compact ``node@t`` crash specs; the
loader normalizes everything to nanoseconds, the unit of the simulation
clock.

Supported kinds:

``crash``
    Kill ``node`` at ``at_us`` (volatile state lost; the NVM image
    survives).  With ``restart_after_us`` the node restarts that many
    microseconds later, seeded from its NVM image, and serves again once
    it has caught up from its peers.  ``node: null`` picks
    a node from the plan seed, deterministically.
``drop`` / ``delay`` / ``duplicate``
    Message faults over the window ``[at_us, at_us + duration_us)``:
    drop with ``probability``, add ``extra_us`` of propagation latency,
    or duplicate with ``probability``.  Optional ``src`` / ``dst``
    restrict the fault to one direction.
``partition``
    Drop every message crossing between the node ``groups`` (a list of
    disjoint node-id lists) during the window.
``nvm_slow``
    Multiply NVM service times on ``node`` by ``factor`` during the
    window (degraded-DIMM model).
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

__all__ = ["FaultEvent", "FaultPlan", "load_fault_plan",
           "parse_crash_spec", "plan_from_crash_specs"]

_US = 1000.0  # nanoseconds per microsecond

KINDS = ("crash", "drop", "delay", "duplicate", "partition", "nvm_slow")
MESSAGE_KINDS = ("drop", "delay", "duplicate", "partition")
WINDOW_KINDS = ("drop", "delay", "duplicate", "partition", "nvm_slow")


@dataclass(frozen=True)
class FaultEvent:
    """One planned fault.  Fields beyond ``kind``/``at_ns`` apply only to
    the kinds documented on them; the loader validates the combinations."""

    kind: str
    at_ns: float
    node: Optional[int] = None
    """Target node (crash, nvm_slow).  None = seeded random pick."""
    duration_ns: Optional[float] = None
    """Window length (all kinds except crash)."""
    restart_after_ns: Optional[float] = None
    """Crash only: restart the node this long after the crash."""
    probability: float = 1.0
    """drop/delay/duplicate: per-message chance of applying."""
    extra_ns: float = 0.0
    """delay only: added one-way propagation latency."""
    factor: float = 1.0
    """nvm_slow only: NVM service-time multiplier."""
    groups: Optional[Tuple[Tuple[int, ...], ...]] = None
    """partition only: disjoint node-id groups; cross-group traffic drops."""
    src: Optional[int] = None
    dst: Optional[int] = None
    """drop/delay/duplicate: optional directional matchers."""

    @property
    def until_ns(self) -> Optional[float]:
        if self.duration_ns is None:
            return None
        return self.at_ns + self.duration_ns


@dataclass(frozen=True)
class FaultPlan:
    """A seed plus an ordered tuple of fault events."""

    seed: int = 0
    detection_delay_ns: float = 3000.0
    """Time from a crash until the cluster *detects* it (membership epoch
    bump + transaction abandonment).  Models the failure detector of a
    membership service; paper Section 8 assumes Hermes-style
    membership-based failure handling."""
    events: Tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        # A node crashed while it is still down would be "restarted" by
        # the earlier crash's restart while alive, discarding its live
        # state, and its clients would run a second loop.  A restart at
        # the new crash's instant is not yet done: the crash was
        # scheduled first, so its entry runs first.
        back_at: Dict[int, float] = {}
        for event in sorted(self.events_of("crash"), key=lambda e: e.at_ns):
            node = event.node
            if node is None:
                continue
            if back_at.get(node, -math.inf) >= event.at_ns:
                back = ("is never restarted" if back_at[node] == math.inf
                        else f"restarts at {back_at[node] / _US:g} us")
                raise ValueError(
                    f"node {node} is crashed at {event.at_ns / _US:g} us "
                    f"while still down from an earlier crash (it {back})")
            back_at[node] = (math.inf if event.restart_after_ns is None
                             else event.at_ns + event.restart_after_ns)

    def resolved(self, node_ids: List[int],
                 choice: Callable[[List[int]], int]) -> "FaultPlan":
        """This plan with every ``node: null`` target picked by
        ``choice(node_ids)``, in event order; a pick that crashes a node
        still down is rejected like a planned one."""
        return dataclasses.replace(self, events=tuple(
            dataclasses.replace(e, node=choice(node_ids))
            if e.kind in ("crash", "nvm_slow") and e.node is None else e
            for e in self.events))

    @property
    def lossy(self) -> bool:
        """True when the plan can lose, delay, or duplicate messages —
        the condition under which protocol rounds arm retransmission
        (crash-only plans recover via membership alone, keeping
        fault-free and crash-only runs minimally perturbed)."""
        return any(e.kind in MESSAGE_KINDS for e in self.events)

    def events_of(self, *kinds: str) -> Tuple[FaultEvent, ...]:
        return tuple(e for e in self.events if e.kind in kinds)

    def to_json(self) -> Dict[str, Any]:
        """Echo of the plan for run reports (times back in us)."""
        events = []
        for e in self.events:
            entry: Dict[str, Any] = {"kind": e.kind, "at_us": e.at_ns / _US}
            if e.node is not None:
                entry["node"] = e.node
            if e.duration_ns is not None:
                entry["duration_us"] = e.duration_ns / _US
            if e.restart_after_ns is not None:
                entry["restart_after_us"] = e.restart_after_ns / _US
            if e.kind in ("drop", "delay", "duplicate"):
                entry["probability"] = e.probability
                if e.src is not None:
                    entry["src"] = e.src
                if e.dst is not None:
                    entry["dst"] = e.dst
            if e.kind == "delay":
                entry["extra_us"] = e.extra_ns / _US
            if e.kind == "nvm_slow":
                entry["factor"] = e.factor
            if e.groups is not None:
                entry["groups"] = [list(g) for g in e.groups]
            events.append(entry)
        return {"seed": self.seed,
                "detection_delay_us": self.detection_delay_ns / _US,
                "events": events}


def _fail(index: int, message: str) -> None:
    raise ValueError(f"fault plan event #{index}: {message}")


def _finite(where: str, raw: Dict[str, Any], name: str,
            default: Optional[float] = None) -> Optional[float]:
    """``raw[name]`` as a finite float, ``default`` when absent.  A NaN
    passes every range check (``nan < 0`` is false) and then breaks the
    kernel's clock, so it is rejected here."""
    if name not in raw:
        return default
    value = raw[name]
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{where}: {name} must be a number, "
                         f"got {value!r}") from None
    if not math.isfinite(number):
        raise ValueError(f"{where}: {name} must be finite, got {value!r}")
    return number


def _is_int(value: Any) -> bool:
    """An integer, and not a bool (``True`` would pass as node 1)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _event_from_dict(index: int, raw: Dict[str, Any]) -> FaultEvent:
    if not isinstance(raw, dict):
        _fail(index, f"expected an object, got {type(raw).__name__}")
    kind = raw.get("kind")
    if kind not in KINDS:
        _fail(index, f"unknown kind {kind!r} (expected one of {KINDS})")
    if "at_us" not in raw:
        _fail(index, "missing required field 'at_us'")
    known = {"kind", "at_us", "node", "duration_us", "restart_after_us",
             "probability", "extra_us", "factor", "groups", "src", "dst"}
    unknown = sorted(set(raw) - known)
    if unknown:
        _fail(index, f"unknown fields {unknown}")

    where = f"fault plan event #{index}"
    at_ns = _finite(where, raw, "at_us") * _US
    if at_ns < 0:
        _fail(index, "at_us must be >= 0")
    node = raw.get("node")
    duration_us = _finite(where, raw, "duration_us")
    duration_ns = None if duration_us is None else duration_us * _US
    restart_us = _finite(where, raw, "restart_after_us")
    restart_after_ns = None if restart_us is None else restart_us * _US
    probability = _finite(where, raw, "probability", 1.0)
    extra_ns = _finite(where, raw, "extra_us", 0.0) * _US
    factor = _finite(where, raw, "factor", 1.0)
    groups = raw.get("groups")
    src = raw.get("src")
    dst = raw.get("dst")

    if kind == "crash":
        if duration_ns is not None:
            _fail(index, "crash takes restart_after_us, not duration_us")
        if restart_after_ns is not None and restart_after_ns <= 0:
            _fail(index, "restart_after_us must be > 0")
    else:
        if restart_after_ns is not None:
            _fail(index, f"{kind} does not take restart_after_us")
        if duration_ns is None or duration_ns <= 0:
            _fail(index, f"{kind} requires duration_us > 0")
    if kind in ("crash", "nvm_slow"):
        if node is not None and (not _is_int(node) or node < 0):
            _fail(index, "node must be a non-negative integer or null")
    elif node is not None:
        _fail(index, f"{kind} does not take node")
    if kind in ("drop", "delay", "duplicate"):
        if not 0.0 <= probability <= 1.0:
            _fail(index, "probability must be in [0, 1]")
        for name, value in (("src", src), ("dst", dst)):
            if value is not None and (not _is_int(value) or value < 0):
                _fail(index, f"{name} must be a non-negative integer")
    elif src is not None or dst is not None:
        _fail(index, f"{kind} does not take src/dst")
    if kind == "delay" and extra_ns <= 0:
        _fail(index, "delay requires extra_us > 0")
    if kind == "nvm_slow" and factor <= 0:
        _fail(index, "nvm_slow requires factor > 0")
    if kind == "partition":
        if (not isinstance(groups, list) or len(groups) < 2
                or not all(isinstance(g, list) and g for g in groups)):
            _fail(index, "partition requires groups: >= 2 non-empty lists")
        flat = [n for g in groups for n in g]
        if not all(_is_int(n) for n in flat):
            _fail(index, "partition group members must be integers")
        if len(flat) != len(set(flat)):
            _fail(index, "partition groups must be disjoint")
        groups = tuple(tuple(g) for g in groups)
    elif groups is not None:
        _fail(index, f"{kind} does not take groups")

    return FaultEvent(kind=kind, at_ns=at_ns, node=node,
                      duration_ns=duration_ns,
                      restart_after_ns=restart_after_ns,
                      probability=probability, extra_ns=extra_ns,
                      factor=factor, groups=groups, src=src, dst=dst)


def load_fault_plan(source: Union[str, Dict[str, Any]]) -> FaultPlan:
    """Build a :class:`FaultPlan` from a JSON file path or a parsed dict."""
    if isinstance(source, dict):
        raw = source
    else:
        with open(source, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    if not isinstance(raw, dict):
        raise ValueError("fault plan must be a JSON object")
    unknown = sorted(set(raw) - {"seed", "detection_delay_us", "events"})
    if unknown:
        raise ValueError(f"fault plan: unknown top-level fields {unknown}")
    events = raw.get("events", [])
    if not isinstance(events, list):
        raise ValueError("fault plan: 'events' must be a list")
    parsed = tuple(_event_from_dict(i, e) for i, e in enumerate(events))
    # Stable time order keeps the injector's scheduling (and therefore
    # the trace) independent of how the author listed the events.
    ordered = tuple(sorted(parsed, key=lambda e: (e.at_ns, e.kind)))
    seed = raw.get("seed", 0)
    if not _is_int(seed):
        raise ValueError(f"fault plan: seed must be an integer, got {seed!r}")
    delay_us = _finite("fault plan", raw, "detection_delay_us", 3.0)
    if delay_us < 0:
        raise ValueError("fault plan: detection_delay_us must be >= 0, "
                         f"got {raw['detection_delay_us']!r}")
    return FaultPlan(seed=seed, detection_delay_ns=delay_us * _US,
                     events=ordered)


def parse_crash_spec(spec: str) -> FaultEvent:
    """Parse ``node@at_us`` or ``node@at_us+restart_after_us``.

    ``2@50`` crashes node 2 at t=50 us; ``2@50+40`` additionally
    restarts it at t=90 us.
    """
    text = spec.strip()
    try:
        node_part, when = text.split("@", 1)
        raw: Dict[str, Any] = {"kind": "crash", "node": int(node_part)}
        if "+" in when:
            when, restart = when.split("+", 1)
            raw["restart_after_us"] = float(restart)
        raw["at_us"] = float(when)
        return _event_from_dict(0, raw)
    except ValueError as exc:
        raise ValueError(
            f"bad crash spec {spec!r} (expected node@at_us or "
            f"node@at_us+restart_after_us): {exc}") from exc


def plan_from_crash_specs(specs: List[str], seed: int = 0) -> FaultPlan:
    """Build a crash-only plan from CLI ``--crash`` specs."""
    events = tuple(sorted((parse_crash_spec(s) for s in specs),
                          key=lambda e: (e.at_ns, e.kind)))
    return FaultPlan(seed=seed, events=events)
