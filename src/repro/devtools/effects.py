"""Interprocedural effect analysis for protocol message handlers.

For every ``MsgType`` handler reachable from an engine's ``_DISPATCH``
table this module computes a *read/write effect set* over abstract
engine-state locations, following ``self._helper(...)`` calls through
the class hierarchy — and every ``self._helper`` merely *referenced*:
a bound method handed to ``sim.call_at``, to a ``*_then`` callback form
or to another helper as a continuation runs later on the handler's
behalf, so the handler inherits its effects.  The result answers the
question the DES-kernel surgery of ROADMAP item 1 has to answer before
it may change tie-breaking order: *which pairs of same-timestamp
handlers can observe each other's order?*

Abstract locations
------------------
Engine state is collapsed onto a small location vocabulary (all
instances of a location are merged — the analysis is per-key/per-op
oblivious, which over-approximates conflicts, never misses them):

``replica.applied``, ``replica.persisted``, ``replica.cluster_persisted``,
``replica.inflight``, ``replica.persist_pending``, ``replica.txn_undo``,
``replica.table``, ``engine.outstanding_writes``,
``engine.outstanding_rounds``, ``engine.causal_buffer``,
``engine.txn_invs``, ``engine.op_counter``, ``store.slot``,
``nvm.queue``, ``nvm.ddio``, ``nvm.log``, ``txn.table``, ``membership``,
``net.send``, ``sched``, ``metrics``, ``trace``, ``board``, ``ctx``.

Access modes
------------
* ``r``  — read.
* ``w``  — **raw write**: the final state depends on the order in which
  two such writes (or a write and a read) execute.
* ``wm`` — **commutative/monotone write**: version-guarded
  last-writer-wins installs (:meth:`KeyReplica.apply` and friends),
  idempotent set adds (:meth:`AckRound.ack`), keyed dict inserts/pops,
  and counters.  Any interleaving of ``wm`` writes to a location
  reaches the same state, so ``wm`` never conflicts with ``wm`` or
  ``r``.

Two locations are deliberately exempt from conflicts and documented in
the handbook: ``trace`` (tracer output is ordered by construction and
compared only under identical schedules) and ``sched`` (insertion
order into the event heap is precisely the tie-breaking dimension the
*dynamic* tie-batch sanitizer permutes — the static pass certifies
state commutativity, the sanitizer owns schedule-order effects).

Conflict rule: a raw ``w`` on a location conflicts with any access
(``r``, ``w`` or ``wm``) to the same location from a co-schedulable
handler (including a second instance of the same handler).  Every
protocol message delivery can tie with any other at one node — the
fabric quantizes delays onto shared latency constants — so all handler
pairs are treated as co-schedulable.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.devtools.callgraph import ClassInfo, ProjectIndex, dispatch_table

__all__ = [
    "EffectAnalysis",
    "EffectSet",
    "MODES",
    "Site",
    "analyze_engines",
    "conflicts",
]

MODES = ("r", "wm", "w")

#: Memo owner for module-level functions (``_applied_at_least`` etc.).
MODULE_OWNER = "<module>"

#: Locations whose accesses never produce conflicts (see module doc).
EXEMPT_LOCATIONS = frozenset({"trace", "sched", "ctx"})


@dataclass(frozen=True)
class Site:
    """Where an effect was recorded (call/assignment site)."""

    path: str
    line: int
    detail: str


class EffectSet:
    """Accesses of one handler: ``(location, mode)`` with one witness
    site each (first site wins; sites are for reporting only)."""

    def __init__(self) -> None:
        self.accesses: Dict[Tuple[str, str], Site] = {}
        self.unresolved: Dict[str, Site] = {}
        #: Message sends guarded by a branch condition, with the
        #: locations that condition reads (intraprocedural guards;
        #: helper sends propagate through :meth:`merge`).
        self.guarded_sends: Dict[Tuple[Site, frozenset], None] = {}

    def add(self, location: str, mode: str, site: Site) -> None:
        self.accesses.setdefault((location, mode), site)

    def add_unresolved(self, call: str, site: Site) -> None:
        self.unresolved.setdefault(call, site)

    def add_guarded_send(self, site: Site, guard_locs: frozenset) -> None:
        if guard_locs:
            self.guarded_sends.setdefault((site, guard_locs))

    def merge(self, other: "EffectSet") -> bool:
        """Union ``other`` in; True if anything new appeared."""
        changed = False
        for key, site in other.accesses.items():
            if key not in self.accesses:
                self.accesses[key] = site
                changed = True
        for call, site in other.unresolved.items():
            if call not in self.unresolved:
                self.unresolved[call] = site
                changed = True
        for key in other.guarded_sends:
            if key not in self.guarded_sends:
                self.guarded_sends.setdefault(key)
                changed = True
        return changed

    def modes(self, location: str) -> Set[str]:
        return {mode for (loc, mode) in self.accesses if loc == location}

    def locations(self) -> Set[str]:
        return {loc for (loc, _mode) in self.accesses}

    def raw_writes(self) -> List[Tuple[str, Site]]:
        return sorted(((loc, site)
                       for (loc, mode), site in self.accesses.items()
                       if mode == "w"), key=lambda item: item[0])

    def summary(self) -> List[str]:
        """Canonical ``"mode location"`` lines (golden-fixture form)."""
        return sorted(f"{mode} {loc}" for (loc, mode) in self.accesses)

    def __len__(self) -> int:
        return len(self.accesses)


# ---------------------------------------------------------------------------
# The intrinsic-effect model: (receiver tag, method) -> [(location, mode)]
# ---------------------------------------------------------------------------

#: ``self.<attr>`` -> receiver tag for known engine collaborators.
SELF_ATTR_TAGS = {
    "sim": "sim",
    "memory": "memory",
    "network": "network",
    "nic": "nic",
    "metrics": "metrics",
    "tracer": "tracer",
    "store": "store",
    "nvm_log": "nvmlog",
    "txn_table": "txntable",
    "membership": "membership",
    "version_board": "board",
    "replicas": "replicatable",
    "config": "pure",
    "cpolicy": "pure",
    "ppolicy": "pure",
    "model": "pure",
    "peer_ids": "pure",
    "node_id": "pure",
}

#: ``self.<attr>`` -> abstract location for engine-owned mutable state.
SELF_STATE_LOCATIONS = {
    "_outstanding_writes": "engine.outstanding_writes",
    "_outstanding_rounds": "engine.outstanding_rounds",
    "_causal_waiting": "engine.causal_buffer",
    "_causal_waiting_count": "engine.causal_buffer",
    "_txn_invs": "engine.txn_invs",
    "_op_counter": "engine.op_counter",
}

#: Typed attribute reads: (tag, attribute) -> location.
ATTR_READS = {
    ("replica", "applied_version"): "replica.applied",
    ("replica", "applied_value"): "replica.applied",
    ("replica", "persisted_version"): "replica.persisted",
    ("replica", "persisted_value"): "replica.persisted",
    ("replica", "cluster_persisted_version"): "replica.cluster_persisted",
    ("replica", "inflight_invs"): "replica.inflight",
    ("replica", "transient"): "replica.inflight",
    ("replica", "persist_requested"): "replica.persist_pending",
    ("replica", "persist_target"): "replica.persist_pending",
    ("replica", "persist_active"): "replica.persist_pending",
    ("replica", "txn_undo"): "replica.txn_undo",
    ("membership", "live"): "membership",
    ("membership", "lossy"): "membership",
}

#: Typed attribute *assignments*: (tag, attribute) -> (location, mode).
#: Persist write-combining slots are guarded monotone at every site
#: (checked against ``persist_requested`` before writing), hence ``wm``.
ATTR_WRITES = {
    ("replica", "persist_requested"): ("replica.persist_pending", "wm"),
    ("replica", "persist_target"): ("replica.persist_pending", "wm"),
    ("replica", "persist_active"): ("replica.persist_pending", "wm"),
    ("replica", "applied_version"): ("replica.applied", "w"),
    ("replica", "applied_value"): ("replica.applied", "w"),
}

#: Method intrinsics: (tag, method) -> [(location, mode)].
#: ``None`` entries in a pair list mean "also analyze generator/callback
#: arguments" — handled specially for the ``sim`` tag below.
METHOD_EFFECTS: Dict[Tuple[str, str], List[Tuple[str, str]]] = {
    # KeyReplica — version-guarded monotone installs.
    ("replica", "apply"): [("replica.applied", "wm"), ("sched", "wm")],
    ("replica", "mark_persisted"): [("replica.persisted", "wm"),
                                    ("sched", "wm")],
    ("replica", "mark_cluster_persisted"): [
        ("replica.cluster_persisted", "wm"), ("sched", "wm")],
    ("replica", "next_version"): [("replica.applied", "r")],
    ("replica", "begin_inv"): [("replica.inflight", "wm")],
    ("replica", "end_inv"): [("replica.inflight", "wm"), ("sched", "wm")],
    # Transactional undo bookkeeping: pre-image records depend on the
    # interleaving with concurrent applies — raw.
    ("replica", "record_undo"): [("replica.txn_undo", "w"),
                                 ("replica.applied", "r")],
    ("replica", "commit_undo"): [("replica.txn_undo", "wm")],
    # absorb_superseded is guarded (``pre_image[0] < version``): the
    # pre-image converges to the maximum superseded version regardless
    # of arrival order — monotone.
    ("replica", "absorb_superseded"): [("replica.txn_undo", "wm"),
                                       ("replica.applied", "r")],
    ("replica", "revert"): [("replica.applied", "w"),
                            ("replica.txn_undo", "w"), ("sched", "wm")],
    ("replicatable", "get"): [("replica.table", "wm")],
    ("replicatable", "keys"): [("replica.table", "r")],
    # Condition variables: predicate waits re-check state on wake, so
    # wake order cannot change outcomes — schedule-domain only.
    ("condition", "wait_for"): [("sched", "wm")],
    ("condition", "wait"): [("sched", "wm")],
    ("condition", "notify"): [("sched", "wm")],
    # AckRound: set-add + idempotent, guarded completion.
    ("ackround", "ack"): [("round.acks", "wm"), ("sched", "wm")],
    ("ackround", "retarget"): [("round.acks", "wm"), ("sched", "wm")],
    ("ackround", "wait"): [("round.acks", "r")],
    # Store: reads and cost probes read the structure; ``put`` is raw by
    # default (last put wins) — call sites that install the replica's
    # LWW winner (``replica.applied_value``) are downgraded to ``wm``
    # in ``_call_effects`` since any interleaving converges.
    ("store", "get"): [("store.slot", "r")],
    ("store", "read_cost"): [("store.slot", "r")],
    ("store", "write_cost"): [("store.slot", "r")],
    ("store", "put"): [("store.slot", "w")],
    ("store", "delete"): [("store.slot", "w")],
    # Memory hierarchy: queue/device occupancy — timing, not values;
    # contention order is schedule-domain (sanitizer's dimension).
    ("memory", "persist"): [("nvm.queue", "wm"), ("sched", "wm")],
    ("memory", "persist_then"): [("nvm.queue", "wm"), ("sched", "wm")],
    ("memory", "volatile_update"): [("nvm.queue", "wm"), ("sched", "wm")],
    ("memory", "volatile_update_then"): [("nvm.queue", "wm"),
                                         ("sched", "wm")],
    ("memory", "volatile_read"): [("nvm.queue", "r"), ("sched", "wm")],
    ("memory", "consume_ddio"): [("nvm.ddio", "wm")],
    # Durable log: append-only; recovery takes the per-key version
    # maximum, so append interleaving cannot change recovered state.
    ("nvmlog", "record"): [("nvm.log", "wm")],
    ("nvmlog", "commit_scope"): [("nvm.log", "wm")],
    # Network: payload construction is deterministic per handler; the
    # *order* of same-timestamp sends is schedule-domain.  The
    # schedule-sensitive-send rule separately flags sends guarded by
    # raw-written state.
    ("network", "send"): [("net.send", "wm"), ("sched", "wm")],
    ("nic", "receive"): [("sched", "wm")],
    # Shared transaction table.
    ("txntable", "begin"): [("txn.table", "w")],
    ("txntable", "commit"): [("txn.table", "w")],
    ("txntable", "abort"): [("txn.table", "w")],
    ("txntable", "check_access"): [("txn.table", "w")],
    ("txntable", "check_still_alive"): [("txn.table", "r")],
    ("membership", "subscribe"): [("membership", "w")],
    ("board", "note_write"): [("board", "wm")],
    ("board", "score_read"): [("board", "wm")],
    # A continuation attached to an event runs when the event pops:
    # schedule-domain.  What it runs was charged where it was referenced.
    ("callbacks", "append"): [("sched", "wm")],
    # The kernel instrument only runs (and times) the handler segment it
    # is handed; the segment's effects were charged at its reference.
    ("instrument", "call_handler"): [],
    ("instrument", "drive_handler"): [],
}

#: Metrics and tracer: every method is one intrinsic.
_TAG_WILDCARD_EFFECTS = {
    "metrics": [("metrics", "wm")],
    "tracer": [("trace", "wm")],
    "ctx": [("ctx", "wm")],
}

#: ``sim`` methods that schedule; generator/callback arguments are
#: analyzed and their effects inherited by the scheduling handler.
_SIM_SCHEDULING = frozenset({
    "process", "call_at", "timeout", "event",
    "all_of", "any_of",
})

#: Calls that never touch engine state.
_PURE_BUILTINS = frozenset({
    "len", "sorted", "list", "dict", "set", "tuple", "frozenset", "min",
    "max", "range", "enumerate", "isinstance", "getattr", "hasattr",
    "abs", "float", "int", "str", "bool", "any", "all", "zip", "sum",
    "repr", "print", "iter", "next", "reversed", "id", "type", "round",
    "Message", "RuntimeError", "ValueError", "KeyError", "dataclass",
})

#: Methods that are pure on any receiver (containers, strings, ...).
_PURE_METHODS = frozenset({
    "items", "keys", "values", "copy", "index", "count", "format",
    "join", "split", "startswith", "endswith", "strip",
})

#: Dict-style mutations on *engine-state* locations that are keyed by a
#: message-derived id (op_id / txn_id / key): distinct keys commute and
#: repeats are idempotent, hence ``wm``.  ``append`` is order-sensitive
#: and stays raw.
_KEYED_CONTAINER_WM = frozenset({"pop", "setdefault", "discard", "add",
                                 "clear", "update", "remove"})
_CONTAINER_RAW = frozenset({"append", "extend", "insert", "sort"})
_CONTAINER_READS = frozenset({"get", "items", "keys", "values", "copy"})


# ---------------------------------------------------------------------------
# Local type environment
# ---------------------------------------------------------------------------

@dataclass
class _Binding:
    """What a local name refers to: a receiver tag, an aliased abstract
    location (mutating it mutates the location), or both."""

    tag: str = "unknown"
    alias: Optional[str] = None


#: Annotation (of a parameter, or of a helper's return) -> receiver tag.
_ANNOTATION_TAGS = {
    # A callable parameter is only ever called: whoever passed it
    # referenced it, and was charged its effects there.
    "Callable": "pure",
    "Event": "event",
    "KeyReplica": "replica",
    "Message": "message",
    "ClientContext": "ctx",
    "Txn": "txn",
    "AckRound": "ackround",
    "_WriteOp": "writeop",
    "_RoundOp": "roundop",
}

_PARAM_NAME_TAGS = {
    "replica": "replica",
    "message": "message",
    "ctx": "ctx",
    "txn": "txn",
    "op": "writeop",
    "round_": "ackround",
    "round_op": "roundop",
}


# ---------------------------------------------------------------------------
# The analysis
# ---------------------------------------------------------------------------

@dataclass
class HandlerReport:
    """Effects of one dispatch handler of one engine class."""

    engine: str
    handler: str
    msg_types: List[str]
    defined_in: str
    line: int
    effects: EffectSet = field(default_factory=EffectSet)


class EffectAnalysis:
    """Effect computation over one :class:`ProjectIndex`.

    Method effect sets are computed to a fixed point: each pass
    re-analyzes every reachable method against the previous pass's
    memo, so helper-call cycles (``_mark_durable`` ->
    ``_recheck_causal_waiters`` -> ``_apply_update`` ->
    ``_ensure_persisted`` -> ``_mark_durable``) converge instead of
    recursing.
    """

    MAX_PASSES = 12

    def __init__(self, index: ProjectIndex):
        self.index = index
        self._memo: Dict[Tuple[str, str], EffectSet] = {}

    # -- public API -------------------------------------------------------

    def method_effects(self, class_name: str, method: str) -> EffectSet:
        key = (class_name, method)
        if key not in self._memo:
            self._compute_fixpoint(class_name, method)
        return self._memo.get(key, EffectSet())

    def handler_reports(self, class_name: str) -> List[HandlerReport]:
        """One report per distinct handler method of ``class_name``."""
        table = dispatch_table(self.index, class_name)
        by_handler: Dict[str, List[str]] = {}
        for msg, handler in table.items():
            by_handler.setdefault(handler, []).append(msg)
        reports = []
        for handler in sorted(by_handler):
            resolved = self.index.resolve_method(class_name, handler)
            if resolved is None:
                continue
            info, func = resolved
            reports.append(HandlerReport(
                engine=class_name, handler=handler,
                msg_types=sorted(by_handler[handler]),
                defined_in=info.path, line=func.lineno,
                effects=self.method_effects(class_name, handler)))
        return reports

    # -- fixed point ------------------------------------------------------

    def _compute_fixpoint(self, class_name: str, method: str) -> None:
        # Pass 0 discovers the reachable method set and seeds the memo.
        worklist = {(class_name, method)}
        analyzed: Set[Tuple[str, str]] = set()
        while worklist:
            key = worklist.pop()
            if key in analyzed:
                continue
            analyzed.add(key)
            effects, callees = self._analyze_once(*key)
            self._memo[key] = effects
            worklist.update(callees)
        # Iterate: effect sets grow monotonically through call edges.
        for _ in range(self.MAX_PASSES):
            changed = False
            for key in sorted(analyzed):
                fresh, _ = self._analyze_once(*key)
                old = self._memo[key]
                if (fresh.accesses.keys() != old.accesses.keys()
                        or fresh.unresolved.keys() != old.unresolved.keys()
                        or fresh.guarded_sends.keys()
                        != old.guarded_sends.keys()):
                    self._memo[key] = fresh
                    changed = True
            if not changed:
                break

    def _analyze_once(self, class_name: str,
                      method: str) -> Tuple[EffectSet, Set[Tuple[str, str]]]:
        """Analyze one method (or module function) body against the
        current memo.  Module functions use the owner ``"<module>"``."""
        effects = EffectSet()
        callees: Set[Tuple[str, str]] = set()
        if class_name == MODULE_OWNER:
            entry = self.index.functions.get(method)
            if entry is None:
                return effects, callees
            path, func = entry
            # The visitor only touches ``info.path``; the node is unused.
            info = ClassInfo(name=MODULE_OWNER, path=path, node=None,
                             bases=[])
        else:
            resolved = self.index.resolve_method(class_name, method)
            if resolved is None:
                return effects, callees
            info, func = resolved
        _MethodVisitor(self, class_name, info, func, effects, callees).run()
        return effects, callees


class _MethodVisitor:
    """Walks one method body, tracking a coarse local-type environment."""

    def __init__(self, analysis: EffectAnalysis, class_name: str,
                 info: ClassInfo, func: ast.FunctionDef,
                 effects: EffectSet, callees: Set[Tuple[str, str]]):
        self.analysis = analysis
        self.class_name = class_name
        self.info = info
        self.func = func
        self.effects = effects
        self.callees = callees
        self.env: Dict[str, _Binding] = {}
        self.local_defs: Dict[str, ast.FunctionDef] = {}
        #: Locations read by enclosing If/While tests — the guard set
        #: for any send recorded while inside those branches.
        self.guard_stack: List[frozenset] = []
        self._bind_params(func)

    def site(self, node: ast.AST, detail: str) -> Site:
        return Site(self.info.path, getattr(node, "lineno", self.func.lineno),
                    detail)

    # -- environment ------------------------------------------------------

    def _bind_params(self, func: ast.FunctionDef) -> None:
        for arg in func.args.args + func.args.kwonlyargs:
            if arg.arg == "self":
                self.env["self"] = _Binding(tag="engine")
                continue
            tag = None
            if arg.annotation is not None:
                ann = _annotation_tail(arg.annotation)
                tag = _ANNOTATION_TAGS.get(ann)
            if tag is None:
                tag = _PARAM_NAME_TAGS.get(arg.arg, "unknown")
            self.env[arg.arg] = _Binding(tag=tag)

    def tag_of(self, node: ast.AST) -> _Binding:
        """Receiver classification for an expression."""
        if isinstance(node, ast.Name):
            if node.id == "self":
                return _Binding(tag="engine")
            return self.env.get(node.id, _Binding())
        if isinstance(node, ast.Attribute):
            base = self.tag_of(node.value)
            if base.tag == "engine":
                if node.attr in SELF_ATTR_TAGS:
                    return _Binding(tag=SELF_ATTR_TAGS[node.attr])
                if node.attr in SELF_STATE_LOCATIONS:
                    return _Binding(tag="container",
                                    alias=SELF_STATE_LOCATIONS[node.attr])
                return _Binding(tag="engine-attr")
            if base.tag in ("writeop", "roundop"):
                if node.attr in ("ack_c", "ack_p", "acks"):
                    return _Binding(tag="ackround")
                return _Binding(tag="pure")
            if base.tag == "replica" and node.attr == "condition":
                return _Binding(tag="condition")
            if base.tag == "event" and node.attr == "callbacks":
                return _Binding(tag="callbacks")
            if base.tag == "sim" and node.attr == "instrument":
                return _Binding(tag="instrument")
            if base.tag == "message":
                return _Binding(tag="pure")
            if base.tag == "ctx" and node.attr == "txn":
                return _Binding(tag="txn")
            return _Binding(tag=base.tag + "-attr"
                            if base.tag not in ("unknown", "pure", "local")
                            else base.tag)
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                             ast.DictComp, ast.SetComp, ast.Constant,
                             ast.Tuple, ast.GeneratorExp, ast.BinOp,
                             ast.Compare, ast.BoolOp, ast.UnaryOp,
                             ast.IfExp, ast.JoinedStr)):
            return _Binding(tag="local")
        if isinstance(node, ast.Call):
            return self._call_result_tag(node)
        if isinstance(node, ast.Subscript):
            base = self.tag_of(node.value)
            if base.alias is not None:
                return _Binding(tag=self._element_tag(base.alias),
                                alias=base.alias)
            return _Binding()
        return _Binding()

    @staticmethod
    def _element_tag(location: str) -> str:
        if location == "engine.outstanding_writes":
            return "writeop"
        if location == "engine.outstanding_rounds":
            return "roundop"
        return "unknown"

    def _call_result_tag(self, node: ast.Call) -> _Binding:
        func = node.func
        if isinstance(func, ast.Attribute):
            base = self.tag_of(func.value)
            if base.tag == "replicatable" and func.attr == "get":
                return _Binding(tag="replica")
            if base.tag == "engine":
                # ``self._helper(...)``: typed by its return annotation.
                resolved = self.analysis.index.resolve_method(
                    self.class_name, func.attr)
                if resolved is not None and resolved[1].returns is not None:
                    tag = _ANNOTATION_TAGS.get(
                        _annotation_tail(resolved[1].returns))
                    if tag is not None:
                        return _Binding(tag=tag)
            if base.alias is not None and func.attr in ("get", "pop",
                                                        "setdefault"):
                return _Binding(tag=self._element_tag(base.alias),
                                alias=base.alias)
        if isinstance(func, ast.Name) and func.id in ("AckRound",):
            return _Binding(tag="ackround")
        if isinstance(func, ast.Name) and func.id in ("_WriteOp",):
            return _Binding(tag="writeop")
        if isinstance(func, ast.Name) and func.id in ("_RoundOp",):
            return _Binding(tag="roundop")
        return _Binding()

    # -- traversal --------------------------------------------------------

    def run(self) -> None:
        # Nested function definitions (persist runners, watchdog checks)
        # are analyzed when referenced; collect them first.
        for stmt in ast.walk(self.func):
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and stmt is not self.func:
                self.local_defs[stmt.name] = stmt
        for stmt in self.func.body:
            self._visit_stmt(stmt)
        # Closures scheduled via sim.call_at(...) or processes built from
        # nested defs contribute their effects to this handler.
        for nested in self.local_defs.values():
            for stmt in nested.body:
                self._visit_stmt(stmt)

    def _visit_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return  # analyzed via local_defs
        if isinstance(stmt, ast.Assign):
            self._visit_expr(stmt.value)
            binding = self.tag_of(stmt.value)
            for target in stmt.targets:
                self._assign_target(target, binding, stmt)
            return
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._visit_expr(stmt.value)
                self._assign_target(stmt.target, self.tag_of(stmt.value),
                                    stmt)
            return
        if isinstance(stmt, ast.AugAssign):
            self._visit_expr(stmt.value)
            self._assign_target(stmt.target, _Binding(tag="local"), stmt,
                                aug=True)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._visit_expr(stmt.iter)
            self._bind_loop_target(stmt.target, stmt.iter)
            for s in stmt.body + stmt.orelse:
                self._visit_stmt(s)
            return
        if isinstance(stmt, (ast.While, ast.If)):
            self.guard_stack.append(self._test_locations(stmt.test))
            try:
                for s in stmt.body + stmt.orelse:
                    self._visit_stmt(s)
            finally:
                self.guard_stack.pop()
            return
        if isinstance(stmt, ast.Try):
            for s in stmt.body + stmt.orelse + stmt.finalbody:
                self._visit_stmt(s)
            for handler in stmt.handlers:
                for s in handler.body:
                    self._visit_stmt(s)
            return
        if isinstance(stmt, ast.With):
            for item in stmt.items:
                self._visit_expr(item.context_expr)
            for s in stmt.body:
                self._visit_stmt(s)
            return
        if isinstance(stmt, (ast.Expr, ast.Return)):
            if stmt.value is not None:
                self._visit_expr(stmt.value)
            return
        if isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Subscript):
                    base = self.tag_of(target.value)
                    if base.alias is not None:
                        self.effects.add(base.alias, "wm",
                                         self.site(stmt, "del"))
                self._visit_expr(target)
            return
        if isinstance(stmt, (ast.Raise, ast.Assert)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._visit_expr(child)
            return
        # pass / break / continue / global / import — nothing to do.

    def _bind_loop_target(self, target: ast.expr, source: ast.expr) -> None:
        binding = self.tag_of(source)
        if isinstance(target, ast.Name):
            if binding.alias is not None:
                self.env[target.id] = _Binding(
                    tag=self._element_tag(binding.alias),
                    alias=binding.alias)
            else:
                self.env[target.id] = _Binding(tag="local")
        elif isinstance(target, ast.Tuple):
            for elt in target.elts:
                if isinstance(elt, ast.Name):
                    self.env[elt.id] = _Binding(tag="local")

    def _assign_target(self, target: ast.expr, binding: _Binding,
                       stmt: ast.stmt, aug: bool = False) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = binding
            return
        if isinstance(target, ast.Attribute):
            base = self.tag_of(target.value)
            key = (base.tag, target.attr)
            if key in ATTR_WRITES:
                loc, mode = ATTR_WRITES[key]
                self.effects.add(loc, mode,
                                 self.site(stmt, f"{target.attr} ="))
                return
            if base.tag == "engine":
                loc = SELF_STATE_LOCATIONS.get(target.attr)
                if loc is not None:
                    # Counter increments commute; rebinds are raw.
                    mode = "wm" if aug else "w"
                    self.effects.add(loc, mode,
                                     self.site(stmt, f"self.{target.attr}"))
                return
            if base.tag in ("ctx", "txn", "message"):
                self.effects.add("ctx", "wm",
                                 self.site(stmt, f"{base.tag} attr write"))
                return
            if base.tag == "replica":
                self.effects.add("replica.applied", "w",
                                 self.site(stmt, f"replica.{target.attr} ="))
            return
        if isinstance(target, ast.Subscript):
            base = self.tag_of(target.value)
            self._visit_expr(target.value)
            self._visit_expr(target.slice)
            if base.alias is not None:
                self.effects.add(base.alias, "wm",
                                 self.site(stmt, "keyed insert"))
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._assign_target(elt, _Binding(tag="local"), stmt)

    def _test_locations(self, test: ast.expr) -> frozenset:
        """Visit a branch test, recording its effects normally, and
        return the non-exempt locations it touches (the guard set)."""
        saved = self.effects
        probe = EffectSet()
        self.effects = probe
        try:
            self._visit_expr(test)
        finally:
            self.effects = saved
        saved.merge(probe)
        return frozenset(loc for loc in probe.locations()
                         if loc not in EXEMPT_LOCATIONS)

    # -- expressions ------------------------------------------------------

    def _visit_expr(self, node: ast.expr) -> None:
        if isinstance(node, ast.Call):
            self._visit_call(node)
            return
        if isinstance(node, ast.Attribute):
            self._record_attr_read(node)
            if self.tag_of(node.value).tag == "engine":
                # ``self._helper`` not called here: a bound method that
                # escapes (to the scheduler, a ``*_then`` form, another
                # helper) runs later for this handler; a property runs now.
                self._inherit_method(node.attr)
            self._visit_expr(node.value)
            return
        if isinstance(node, ast.Lambda):
            self._visit_expr(node.body)
            return
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            if node.value is not None:
                self._visit_expr(node.value)
            return
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._visit_expr(child)
            elif isinstance(child, ast.comprehension):
                self._visit_expr(child.iter)
                for cond in child.ifs:
                    self._visit_expr(cond)

    def _record_attr_read(self, node: ast.Attribute) -> None:
        base = self.tag_of(node.value)
        key = (base.tag, node.attr)
        if key in ATTR_READS:
            self.effects.add(ATTR_READS[key], "r",
                             self.site(node, f".{node.attr}"))
        elif base.tag == "engine" and node.attr in SELF_STATE_LOCATIONS:
            self.effects.add(SELF_STATE_LOCATIONS[node.attr], "r",
                             self.site(node, f"self.{node.attr}"))

    def _visit_call(self, node: ast.Call) -> None:
        for arg in node.args:
            self._visit_expr(arg)
        for kw in node.keywords:
            self._visit_expr(kw.value)
        func = node.func
        if isinstance(func, ast.Name):
            self._visit_name_call(node, func)
            return
        if isinstance(func, ast.Attribute):
            self._visit_attr_call(node, func)
            return
        self._visit_expr(func)

    def _visit_name_call(self, node: ast.Call, func: ast.Name) -> None:
        name = func.id
        if name in _PURE_BUILTINS:
            return
        if name in self.local_defs:
            return  # nested def: body analyzed in run()
        if self.analysis.index.classes.get(name) is not None:
            return  # constructor of an analyzed class: allocation is pure
        if name == "super":
            return
        binding = self.env.get(name)
        if binding is not None and binding.tag in ("local", "pure"):
            return
        if name in self.analysis.index.functions:
            self.callees.add((MODULE_OWNER, name))
            callee = self.analysis._memo.get((MODULE_OWNER, name))
            if callee is not None:
                self.effects.merge(callee)
            return
        self.effects.add_unresolved(name, self.site(node, f"{name}(...)"))

    def _visit_attr_call(self, node: ast.Call, func: ast.Attribute) -> None:
        base = self.tag_of(func.value)
        method = func.attr
        # self.method(...) / super().method(...): interprocedural.
        if base.tag == "engine" or _is_super_call(func.value):
            if method in SELF_ATTR_TAGS or method in SELF_STATE_LOCATIONS:
                self._visit_expr(func.value)
                return
            if not self._inherit_method(method):
                self.effects.add_unresolved(
                    f"self.{method}", self.site(node, f"self.{method}(...)"))
            return
        if base.tag == "sim":
            self._visit_sim_call(node, method)
            return
        effects = self._call_effects(base, method, node)
        if effects is not None:
            site = self.site(node, f".{method}()")
            for loc, mode in effects:
                self.effects.add(loc, mode, site)
                if loc == "net.send" and self.guard_stack:
                    guard = frozenset().union(*self.guard_stack)
                    self.effects.add_guarded_send(site, guard)
            return
        if base.tag in _TAG_WILDCARD_EFFECTS:
            for loc, mode in _TAG_WILDCARD_EFFECTS[base.tag]:
                self.effects.add(loc, mode, self.site(node, f".{method}()"))
            return
        if base.alias is not None:
            self._visit_container_call(node, base.alias, method)
            return
        if base.tag in ("local", "pure", "message") \
                or method in _PURE_METHODS:
            self._visit_expr(func.value)
            return
        self._visit_expr(func.value)
        self.effects.add_unresolved(
            f"{base.tag}.{method}",
            self.site(node, f"{_call_repr(func)}(...)"))

    def _call_effects(self, base: _Binding, method: str,
                      node: ast.Call) -> Optional[List[Tuple[str, str]]]:
        effects = METHOD_EFFECTS.get((base.tag, method))
        if effects is None:
            return None
        if base.tag == "store" and method == "put" and node.args:
            # ``store.put(key, replica.applied_value)`` installs the
            # LWW winner: convergent regardless of interleaving.
            value = node.args[-1]
            if (isinstance(value, ast.Attribute)
                    and self.tag_of(value.value).tag == "replica"
                    and value.attr == "applied_value"):
                return [("store.slot", "wm")]
        return effects

    def _visit_sim_call(self, node: ast.Call, method: str) -> None:
        if method not in _SIM_SCHEDULING:
            if method in ("run", "step"):
                self.effects.add_unresolved(
                    f"sim.{method}", self.site(node, f"sim.{method}(...)"))
            return
        # The generators and callbacks handed over were visited with the
        # call's other arguments, which charged their effects to this
        # handler (they start at the same simulated timestamp unless
        # explicitly delayed; being coarse here only over-approximates).
        self.effects.add("sched", "wm", self.site(node, f"sim.{method}()"))

    def _inherit_method(self, method: str) -> bool:
        """Merge in the effects of ``self.<method>``; False if the class
        hierarchy has no such method."""
        if self.analysis.index.resolve_method(self.class_name,
                                              method) is None:
            return False
        self.callees.add((self.class_name, method))
        callee = self.analysis._memo.get((self.class_name, method))
        if callee is not None:
            self.effects.merge(callee)
        return True

    def _visit_container_call(self, node: ast.Call, location: str,
                              method: str) -> None:
        if method in _CONTAINER_READS:
            self.effects.add(location, "r", self.site(node, f".{method}()"))
        elif method in _KEYED_CONTAINER_WM:
            self.effects.add(location, "wm", self.site(node, f".{method}()"))
        elif method in _CONTAINER_RAW:
            self.effects.add(location, "w", self.site(node, f".{method}()"))
        else:
            self.effects.add_unresolved(
                f"{location}.{method}", self.site(node, f".{method}(...)"))


def _is_super_call(node: ast.expr) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "super")


def _call_repr(func: ast.Attribute) -> str:
    parts = [func.attr]
    node: ast.expr = func.value
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


def _annotation_tail(node: ast.expr) -> str:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.split(".")[-1]
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Subscript):
        # Callable[..., Any] -> Callable, but Optional[Event] -> Event.
        outer = _annotation_tail(node.value)
        return _annotation_tail(node.slice) if outer == "Optional" else outer
    return ""


# ---------------------------------------------------------------------------
# Conflicts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Conflict:
    """One conflicting co-schedulable handler pair on one location."""

    engine: str
    location: str
    handler_a: str
    handler_b: str
    modes_a: Tuple[str, ...]
    modes_b: Tuple[str, ...]
    site: Site

    @property
    def pair(self) -> Tuple[str, str]:
        return tuple(sorted((self.handler_a, self.handler_b)))


def conflicts(reports: Iterable[HandlerReport]) -> List[Conflict]:
    """All raw-write conflicts among co-schedulable handlers.

    Every pair (including a handler against a second instance of
    itself) is co-schedulable; a conflict exists when one side raw-
    writes a non-exempt location the other side touches at all.  The
    witness site is the raw write, so a commutativity waiver sits next
    to the code that must commute.
    """
    reports = list(reports)
    found: List[Conflict] = []
    for i, a in enumerate(reports):
        for b in reports[i:]:
            for loc, site in a.effects.raw_writes():
                if loc in EXEMPT_LOCATIONS:
                    continue
                other = b.effects.modes(loc)
                if other:
                    found.append(Conflict(
                        engine=a.engine, location=loc,
                        handler_a=a.handler, handler_b=b.handler,
                        modes_a=tuple(sorted(a.effects.modes(loc))),
                        modes_b=tuple(sorted(other)), site=site))
            if b is not a:
                for loc, site in b.effects.raw_writes():
                    if loc in EXEMPT_LOCATIONS:
                        continue
                    other = a.effects.modes(loc)
                    if other and "w" not in other:
                        # w-vs-w already reported from a's side.
                        found.append(Conflict(
                            engine=a.engine, location=loc,
                            handler_a=b.handler, handler_b=a.handler,
                            modes_a=tuple(sorted(b.effects.modes(loc))),
                            modes_b=tuple(sorted(other)), site=site))
    return found


def analyze_engines(contexts: Iterable) -> Dict[str, List[HandlerReport]]:
    """Handler reports for every engine class in the context set."""
    index = ProjectIndex.from_contexts(contexts)
    analysis = EffectAnalysis(index)
    out: Dict[str, List[HandlerReport]] = {}
    for info in index.engine_classes():
        out[info.name] = analysis.handler_reports(info.name)
    return out
