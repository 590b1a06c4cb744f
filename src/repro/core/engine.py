"""The DDP protocol engine: leaderless coordinator/follower protocols.

One :class:`ProtocolNode` runs at every server.  Following the paper
(Section 5), the protocols are leaderless: any node can receive a client
read or write and act as the *Coordinator* for that operation; all other
nodes are *Followers* (every key is replicated at every node).  On a
write, the coordinator *broadcasts* to all followers rather than
chaining through them.

The engine is a single state machine parameterized by a
:class:`~repro.core.policies.ConsistencyPolicy` and a
:class:`~repro.core.policies.PersistencyPolicy`; together these
reproduce the per-model protocols of Figures 2-5:

* Invalidation-based consistency (Linearizable / Read-Enforced /
  Transactional) uses INV -> ACK(:sub:`c/p`) -> VAL(:sub:`c/p`) rounds.
* Causal / Eventual consistency sends UPD messages (with causal history
  under Causal) and never needs global visibility information.
* Persistency decides where a write's local persist sits relative to
  that round (one answer per write and role,
  :func:`~repro.core.policies.placement`), whether writes stall for
  cluster-wide durability (Strict), and what reads may return / stall on.

What a crash ends, a restart and the catch-up before a restarted node
serves again are :class:`~repro.recovery.lifecycle.NodeLifecycle`'s,
which the engine inherits.

Threading model: client requests occupy a *request worker* core for
their whole lifetime, including stalls (worker threads block, as in the
paper's testbed where client and worker threads are pinned to separate
cores).  Inbound protocol messages are handled by a separate small pool
of *protocol workers* that is only held for CPU time, never across
stalls — so the message plane can always make progress and wake stalled
requests.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import starmap
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from repro.analysis.metrics import Metrics
from repro.core.context import ClientContext
from repro.core.messages import VALUE_BYTES, Message, MsgType
from repro.core.model import DdpModel
from repro.core.policies import ACK_AFTER_PERSIST, placement, policy_for
from repro.core.replica import NEVER_WRITTEN, KeyReplica, ReplicaTable, Version
from repro.memory.hierarchy import MemoryHierarchy
from repro.net.network import Network, Nic
from repro.recovery.lifecycle import NodeLifecycle, TimeToServe
from repro.core.membership import Membership
from repro.sim.engine import Event, Simulator
from repro.sim.sync import AdmissionPool, Resource
from repro.sim.trace import NullTracer
from repro.txn.manager import Txn, TxnTable

__all__ = ["AckRound", "ProtocolConfig", "ProtocolNode"]

#: What a segment of a callback handler returns once it has arranged to
#: be continued (see :meth:`ProtocolNode._handle_now`).
_PARKED = object()


#: Worker cores per node that execute client requests (and block with
#: them); the remaining cores of the 20-core chip run client threads and
#: protocol handling.
REQUEST_WORKERS = 12

#: Cores dedicated to inbound protocol message processing.
PROTOCOL_WORKERS = 8

#: CPU time to process one inbound protocol message (RDMA delivery
#: leaves little per-message kernel work).
MSG_PROC_NS = 50.0

#: CPU time to parse, dispatch, and post-process one client request
#: (store-structure walk extra) — roughly the per-request instruction
#: footprint of a memcached-class server on the paper's 2 GHz cores.
REQ_PROC_NS = 500.0

#: Eventual consistency: delay before UPDs are sent out.
LAZY_PROPAGATION_DELAY_NS = 2_000.0

#: Eventual persistency: delay before a background persist is queued.
LAZY_PERSIST_DELAY_NS = 10_000.0

#: Fault tolerance: how long a coordinator round (INV/UPD acks,
#: INITX/ENDX, PERSIST) may sit incomplete before its watchdog resends
#: the round's message to the laggards.  Only armed when the fault plan
#: can lose messages (``membership.lossy``); a crash is settled when it
#: is detected (``_settle_lost_peer``), and failure-free and crash-only
#: runs never create these timers.
ROUND_TIMEOUT_NS = 12_000.0

#: Fault tolerance: maximum times a round's message is resent to
#: laggard replicas.
ROUND_MAX_RETRIES = 8

#: Fault tolerance: extra delay added to the round watchdog per retry
#: already spent (linear backoff, capped at 8 steps).
ROUND_RETRY_BACKOFF_NS = 4_000.0


@dataclass(frozen=True)
class ProtocolConfig:
    """What an experiment varies in the engine (defaults = paper
    Section 7)."""

    txn_length: int = 5
    """Client requests per transaction (paper Section 7)."""

    scope_length: int = 10
    """Client requests per scope (paper Section 7)."""

    chain_propagation: bool = False
    """Ablation: instead of the paper's leaderless broadcast, propagate
    coordinator messages follower-by-follower (each send starts once the
    previous one is delivered), modeling a sequential-visit chain."""


class AckRound:
    """An ACK-collection round over an explicit replica set.

    More than a bare countdown of arrivals, so that a coordinator
    round can survive faults:

    * arrivals are deduplicated by source, so resent or duplicated ACKs
      (message-duplication faults, round retries) are harmless instead
      of an overrun;
    * :meth:`retarget` shrinks the expected set when membership changes,
      completing the round if only crashed replicas are missing.

    In a failure-free run the event triggers at exactly the moment the
    equivalent countdown would have — same arrival, same kernel scheduling —
    so attaching fault machinery does not perturb healthy runs.
    """

    __slots__ = ("sim", "targets", "acked", "event", "open")

    def __init__(self, sim: Simulator, targets):
        self.sim = sim
        self.targets = set(targets)
        self.acked: set = set()
        self.event = sim.event()
        #: Until the event is triggered: what an arrival tests instead
        #: of reading the event's properties.
        self.open = bool(self.targets)
        if not self.open:
            self.event.succeed()

    @property
    def missing(self) -> List[int]:
        """Targets not yet heard from, in node-id order."""
        return sorted(self.targets - self.acked)

    def ack(self, src: int) -> None:
        """Record an ACK from ``src`` (idempotent)."""
        acked = self.acked
        acked.add(src)
        if self.open and self.targets <= acked:
            self.open = False
            self.event.succeed()

    def retarget(self, live) -> bool:
        """Drop targets no longer in ``live``; fire if now satisfied.
        Return whether the round was open and lost a target."""
        targets = {t for t in self.targets if t in live}
        shrunk = self.open and len(targets) < len(self.targets)
        self.targets = targets
        if self.open and targets <= self.acked:
            self.open = False
            self.event.succeed()
        return shrunk


@dataclass(slots=True)
class _WriteOp:
    """Coordinator-side state for one outstanding write: the rounds it
    collects (an INV gathers ACK_c, and ACK_p under dual ACKs; a
    Read-Enforced UPD gathers ACK_p alone)."""

    op_id: int
    key: int
    version: Version
    value: Any
    ack_c: Optional[AckRound] = None
    ack_p: Optional[AckRound] = None
    txn_id: Optional[int] = None
    scope_id: Optional[int] = None


class ProtocolNode(NodeLifecycle):
    """One server's protocol engine (coordinator + follower roles)."""

    #: Message dispatch, declared at class level (``MsgType`` -> handler
    #: method name) so subclasses extend it declaratively and so
    #: ``tests/devtools/test_dispatch.py::TestRealEngines`` can check that
    #: every member is handled without running a simulation.
    #: ``__init__`` binds it once per instance into ``self._handlers``.
    _DISPATCH: Dict[MsgType, str] = {
        MsgType.INV: "_on_inv",
        MsgType.UPD: "_on_upd",
        MsgType.ACK: "_on_ack",
        MsgType.ACK_C: "_on_ack",
        MsgType.ACK_P: "_on_ack",
        MsgType.VAL: "_on_val",
        MsgType.VAL_C: "_on_val",
        MsgType.VAL_P: "_on_val_p",
        MsgType.INITX: "_on_initx",
        MsgType.ENDX: "_on_endx",
        MsgType.PERSIST: "_on_persist",
    }

    def __init__(self, sim: Simulator, node_id: int, peer_ids: List[int],
                 network: Network, nic: Nic, memory: MemoryHierarchy,
                 model: DdpModel, metrics: Metrics,
                 config: Optional[ProtocolConfig] = None,
                 txn_table: Optional[TxnTable] = None,
                 store: Any = None, nvm_log: Any = None, tracer: Any = None,
                 version_board: Any = None,
                 membership: Optional[Membership] = None):
        self.sim = sim
        self.node_id = node_id
        self.peer_ids = list(peer_ids)
        self.network = network
        self.nic = nic
        self.memory = memory
        self.model = model
        self.cpolicy, self.ppolicy = policy_for(model)
        # What places a write's local persist, asked once: indexed by
        # "is the write inside a transaction".
        self._coordinator_places = (placement(model),
                                    placement(model, in_txn=True))
        self._follower_places = (
            placement(model, follower=True),
            placement(model, in_txn=True, follower=True))
        # Strict / Synchronous: a plain write persists before it is
        # acknowledged.  This also decides the VAL (combined, not VAL_c)
        # and what INITX and ENDX owe.
        self._ack_after_persist = (self._coordinator_places[0]
                                   in ACK_AFTER_PERSIST)
        # Whether a read can ever stall (the two flags _read_guard reads):
        # one that cannot is a worker grant, the request-processing sleep
        # and a cache sleep, with no guard checked.
        self._read_guarded = (self.cpolicy.read_stalls_on_transient
                              or self.ppolicy.read_requires_applied_persisted)
        self.metrics = metrics
        self.config = config or ProtocolConfig()
        self.txn_table = txn_table
        self.store = store
        self.nvm_log = nvm_log
        self.tracer = tracer if tracer is not None else NullTracer()
        self.version_board = version_board

        observer = self._replica_event if self.tracer.enabled else None
        self.replicas = ReplicaTable(sim, node_id, observer=observer)
        self.request_workers = Resource(sim, REQUEST_WORKERS,
                                        name=f"n{node_id}.reqw")
        # Held for a fixed MSG_PROC_NS per message, known on arrival.
        self.protocol_workers = AdmissionPool(sim, PROTOCOL_WORKERS,
                                              name=f"n{node_id}.protw")
        self._op_counter = 0
        self._outstanding_writes: Dict[int, _WriteOp] = {}
        # INITX / ENDX / PERSIST rounds and Strict UPD rounds, by op id.
        self._outstanding_rounds: Dict[int, AckRound] = {}
        # Causal updates buffered for their happens-before history,
        # indexed by (one of) the keys they are waiting on so that a
        # version advance re-checks only the relevant updates.
        self._causal_waiting: Dict[int, List[Message]] = {}
        self._causal_waiting_count = 0
        # Follower-side txn bookkeeping: txn_id -> [(key, op_id)] of the
        # transaction's INVs, cleared when the post-ENDX VAL arrives.
        self._txn_invs: Dict[int, List[Tuple[int, int]]] = {}
        # Fault tolerance (None in failure-free runs: no timers armed,
        # no epoch bookkeeping — exact seed behavior).
        self.membership = membership
        self.round_resends = 0
        self.rounds_retargeted = 0
        self.orphans_absorbed = 0
        #: key -> (version, value) of each drain persist a bank holds:
        #: durable at a crash (ADR), landed or not.
        self.in_banks: Dict[int, Tuple[Version, Any]] = {}
        # ``_later``'s FIFOs: (delay, callee) -> (FIFO, its kernel call).
        self._timers: Dict[Tuple[float, Callable], Tuple[deque, tuple]] = {}
        #: Set by each completed :meth:`catch_up`.
        self.time_to_serve: Optional[TimeToServe] = None
        if membership is not None:
            membership.subscribe(node_id, self._on_peer_crash)
        # Bound once here instead of building a dict literal per
        # inbound message in _on_arrival, and keyed by the type's label
        # (a str, hashed in C).  Every handler is the first segment of
        # _handle_now: ``fn(message, arrived_ns)``.
        self._handlers: Dict[str, Callable[..., Any]] = {
            msg_type.label: getattr(self, name)
            for msg_type, name in self._DISPATCH.items()}
        # Likewise the names of the processes spawned per message.
        self._pname = {role: f"n{node_id}.{role}" for role in (
            "msg", "crecheck", "valp", "bground", "ackp", "strictp",
            "chain", "orphan", "persist")}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Take over the NIC: arrivals come to :meth:`_on_arrival`."""
        self.nic.sink = self._on_arrival

    # ------------------------------------------------------------------
    # small helpers
    # ------------------------------------------------------------------

    def _next_op_id(self) -> int:
        # The coordinator's node id rides in the low bits (op_id % 1024),
        # so followers can attribute any transient marker to the node
        # that coordinates it — which is how crash cleanup finds the
        # orphans of a dead coordinator without extra bookkeeping.
        self._op_counter += 1
        return self._op_counter * 1024 + self.node_id

    @property
    def active_peers(self) -> List[int]:
        """Peers a new round targets: all of them in failure-free runs,
        the membership's live subset under fault injection.  A crashed
        but not-yet-detected peer is still targeted — the round then
        waits out the detection delay before retargeting, which is the
        failure-handling latency the membership approach models."""
        if self.membership is None:
            return self.peer_ids
        live = self.membership.live
        return [p for p in self.peer_ids if p in live]

    def _replica_event(self, kind: str, key: int, version: Version) -> None:
        """Forward replica apply/persist advances to the tracer (used by
        the Visibility/Durability Point measurement)."""
        # Only registered as the ReplicaTable observer when tracer.enabled.
        self.tracer.emit(self.sim.now, kind, node=self.node_id,
                         key=key, version=version)

    def _send(self, dst: int, message: Message, lazy: bool = False,
              delivered: Optional[Event] = None) -> None:
        """Account for, trace and hand one copy of ``message`` to the
        network.  ``delivered`` is the chain ablation's: the event to
        settle on remote delivery."""
        label, size_bytes = message.msg_type.label, message.size_bytes
        self.metrics.record_message(label, size_bytes, time_ns=self.sim.now)
        if self.tracer.enabled:
            details = dict(msg=label, dst=dst, op_id=message.op_id,
                           key=message.key, version=message.version,
                           bytes=size_bytes)
            if delivered is not None:
                details["chain"] = True
            if lazy:
                details["lazy"] = True
            self.tracer.emit(self.sim.now, "msg_send", node=self.node_id,
                             **details)
        self.network.send(self.node_id, dst, message, size_bytes, delivered)

    def _broadcast(self, message: Message, lazy: bool = False,
                   targets: Optional[List[int]] = None) -> None:
        if self.config.chain_propagation:
            self.sim.process(self._chain_send(message, lazy),
                             name=self._pname["chain"])
            return
        self._fan_out(message,
                      self.active_peers if targets is None else targets, lazy)

    def _fan_out(self, message: Message, targets: List[int],
                 lazy: bool = False) -> None:
        """Send one message to every node of ``targets``."""
        if self.tracer.enabled:
            # The trace interleaves msg_send and net_send per destination.
            for dst in targets:
                self._send(dst, message, lazy)
        elif targets:  # one frame: accounted once, walked by the network
            label, size_bytes = message.msg_type.label, message.size_bytes
            self.metrics.record_message(label, size_bytes, self.sim.now, len(targets))
            self.network.send(self.node_id, targets, message, size_bytes)

    def _chain_send(self, message: Message, lazy: bool = False) -> Generator:
        """Sequential propagation (ablation): the message reaches follower
        k only after it has been delivered at follower k-1."""
        for dst in self.peer_ids:
            delivered = self.sim.event()
            self._send(dst, message, lazy, delivered)
            yield delivered

    def _later(self, delay_ns: float, fn: Callable[..., None],
               *args: Any) -> None:
        """Run ``fn(*args)`` ``delay_ns`` from now if the incarnation that
        set the timer lasts: a crash ends its timers.

        Timers of one delay fire in the order they were armed, so each
        (delay, callee) has one FIFO and one prebuilt kernel call,
        ``_fire`` over that FIFO, queued once per timer: a pending timer
        is the incarnation and ``args`` in the FIFO, and the call's list
        slot in its instant.  One callee is armed with one arity."""
        try:
            fifo, call = self._timers[delay_ns, fn]
        except KeyError:
            fifo = deque()
            call = (self._fire, (fifo, fn, ((),) * len(args)))
            self._timers[delay_ns, fn] = fifo, call
        fifo.append(self.nic.incarnation)
        fifo.extend(args)
        self.sim.push_call(self.sim.now + delay_ns, call)

    def _fire(self, fifo: deque, fn: Callable[..., None],
              arity: Tuple[tuple, ...]) -> None:
        """``fifo``'s head timer is due: its incarnation and arguments
        (one per entry of ``arity``) are popped before ``fn`` runs, so
        ``fn`` may re-arm into the same FIFO."""
        pop = fifo.popleft
        incarnation = pop()
        args = tuple(starmap(pop, arity))
        if incarnation is not None and incarnation is self.nic.incarnation:
            fn(*args)

    def _store_write_cost(self, key: int, value: Any) -> float:
        if self.store is None:
            return 0.0
        return self.store.write_cost(key, value)

    # ------------------------------------------------------------------
    # persistence helpers
    # ------------------------------------------------------------------

    def _mark_durable(self, replica: KeyReplica, version: Version, value: Any,
                      scope_id: Optional[int] = None) -> None:
        """Bookkeeping after a media write completes."""
        replica.mark_persisted(version, value)
        self.metrics.persists += 1
        if self.nvm_log is not None:
            self.nvm_log.record(self.node_id, replica.key, version, value,
                                scope_id=scope_id)
        if (self.cpolicy.causal and self.ppolicy.deps_require_persist
                and replica.key in self._causal_waiting):
            # A durability advance can unblock buffered causal updates.
            self.sim.process(self._recheck_causal_waiters(replica.key),
                             name=self._pname["crecheck"])

    def _request_persist(self, replica: KeyReplica, version: Version,
                         value: Any, trigger: str) -> None:
        """Ask for (key, version) to become durable.

        ``trigger`` names what placed the persist (a
        :func:`~repro.core.policies.placement`, or scope / endx) so
        journey records can tell a deliberate persist delay from NVM
        queueing.

        Models memory-controller write combining: while a media write for
        the key is queued or in service, newer versions overwrite the
        key's single write-pending slot instead of enqueuing more NVM
        traffic — hot keys generate one persist per drain, not per write.
        """
        if version <= replica.persist_requested:
            return
        if self.tracer.enabled:
            self.tracer.emit(self.sim.now, "persist_issue", node=self.node_id,
                             key=replica.key, version=version, trigger=trigger)
        replica.persist_requested = version
        replica.persist_target = (version, value)
        if not replica.persist_active:
            replica.persist_active = True
            # Through the heap, not inline: requests for the key made in
            # this same instant must land in the slot before it is taken,
            # so that they combine into one media write.
            self.sim.call_at(self.sim.now, self._persist_drain,
                             self.nic.incarnation, replica)

    def _persist_drain(self, incarnation: object,
                       replica: KeyReplica) -> None:
        """Write the key's pending slot to NVM, if it holds anything and
        ``incarnation``, whose drain this is, lasts: NVM admission."""
        if (replica.persist_target is None or incarnation is None
                or incarnation is not self.nic.incarnation):
            replica.persist_active = False
            return
        landing = self.in_banks[replica.key] = replica.persist_target
        replica.persist_target = None
        self.memory.nvm.persist_then(replica.key, self._persist_drained,
                                     incarnation, replica, landing)

    def _persist_drained(self, incarnation: object, replica: KeyReplica,
                         landing: Tuple[Version, Any]) -> None:
        if self.in_banks.get(replica.key) is landing:
            del self.in_banks[replica.key]
        self._mark_durable(replica, *landing)
        self._persist_drain(incarnation, replica)

    def _ensure_persisted(self, replica: KeyReplica, version: Version,
                          value: Any, trigger: str) -> Generator:
        """Process: return once ``version`` (or newer) is durable locally."""
        durable = self._persist_wait(replica, version, value, trigger)
        if durable is not None:
            yield replica.wait_for(durable)

    def _persist_wait(self, replica: KeyReplica, version: Version,
                      value: Any, trigger: str) -> Optional[Callable]:
        """Ask for ``version`` to be persisted (write-combined) and
        return the predicate that holds once it, or a newer one, is
        durable locally — ``None`` if that is already so.  What a
        process waits for on the replica's condition, and a callback
        handler hangs its continuation on."""
        if replica.persisted_version >= version:
            return None
        self._request_persist(replica, version, value, trigger)
        return lambda: replica.persisted_version >= version

    def _place_persist(self, replica: KeyReplica, version: Version, value: Any,
                       placed: Optional[str]) -> None:
        """Carry out a placement: request the persist now — after the
        lazy delay when ``lazy`` placed it, not at all when nothing did.
        Nobody waits here; who must, waits on the replica afterwards."""
        if placed == "lazy":
            self._later(LAZY_PERSIST_DELAY_NS,
                        self._request_persist, replica, version, value, placed)
        elif placed is not None:
            self._request_persist(replica, version, value, placed)

    # ------------------------------------------------------------------
    # coordination rounds: launch, watchdogs, membership changes
    # ------------------------------------------------------------------

    def _launch_round(self, message: Message, targets: List[int],
                      *rounds: Optional[AckRound]) -> None:
        """Send a round's message to ``targets`` and put each ACK round
        it feeds under a watchdog."""
        self._broadcast(message, targets=targets)
        for round_ in rounds:
            if round_ is not None:
                self._arm_round_watchdog(round_, message)

    def _run_round(self, message: Message, local: Generator,
                   targets: Optional[List[int]] = None) -> Generator:
        """Process: one INITX / ENDX / PERSIST or Strict UPD round — the
        message to every live peer (or to ``targets``), this node's own
        share of the work (``local``) while it travels, then every ACK."""
        if targets is None:
            targets = self.active_peers
        acks = AckRound(self.sim, targets)
        self._outstanding_rounds[message.op_id] = acks
        self._launch_round(message, targets, acks)
        yield from local
        yield acks.event
        self._outstanding_rounds.pop(message.op_id, None)

    def _arm_round_watchdog(self, round_: AckRound,
                            message: Message) -> None:
        """Bound a coordination round's exposure to faults.

        Deliberately out-of-band: the coordinator keeps waiting directly
        on the round's event (identical kernel scheduling to the
        failure-free engine), while a periodic ``call_at`` callback
        re-checks the round from the side.  Armed only when the fault
        plan can lose messages: each check resends ``message`` to the
        laggards, with linear backoff and a bounded retry budget.  A
        crashed replica leaves the round when the crash is detected
        (:meth:`_settle_lost_peer`), not here.  Checks on completed
        rounds are no-ops and do not re-arm.
        """
        if self.membership is None or not self.membership.lossy:
            return
        self._later(ROUND_TIMEOUT_NS, self._check_round, round_, message, 0)

    def _check_round(self, round_: AckRound, message: Message,
                     attempt: int) -> None:
        """One watchdog check of a round (``attempt``: resends so far);
        re-arms itself while the round is open.  A method, not a
        closure that re-arms through its own cell: that would make every
        watched round a reference cycle, garbage only the collector
        frees."""
        if not round_.open:
            return
        if attempt < ROUND_MAX_RETRIES:
            attempt += 1
            self.round_resends += 1
            for dst in round_.missing:
                self._send(dst, message)
        backoff = ROUND_TIMEOUT_NS + ROUND_RETRY_BACKOFF_NS * min(attempt, 8)
        self._later(backoff, self._check_round, round_, message, attempt)

    def _on_peer_crash(self, node_id: int) -> None:
        """Membership detected a crash: settle what the dead node left
        open here (:meth:`_settle_lost_peer`).  A join needs nothing
        from existing rounds: they never re-add a replica that was
        dropped mid-round, and new rounds pick the wider live set up
        via ``active_peers``."""
        if node_id == self.node_id or not self.alive:
            return
        self._settle_lost_peer(node_id, self.membership.live)

    # ------------------------------------------------------------------
    # client API: reads
    # ------------------------------------------------------------------

    def client_read(self, ctx: ClientContext, key: int) -> Generator:
        """Process: one client read; returns the value per the DDP model.

        Holds a request worker for the full duration, stalls included.
        """
        sim, store = self.sim, self.store
        if not self.request_workers.try_acquire():  # a free one: no yield
            yield self.request_workers
        try:
            yield REQ_PROC_NS + (0.0 if store is None else store.read_cost(key))
            # A key nobody has written here reads as NEVER_WRITTEN,
            # which never stalls: no replica is built for a read.
            replicas = self.replicas
            replica = replicas.peek(key)
            if self.cpolicy.transactional and ctx.txn is not None:
                self.txn_table.check_access(ctx.txn, key, is_write=False)

            # The stalls and the memory read loop until the guards hold
            # for the state the read actually samples: the volatile read
            # costs simulated time, so a write racing in during it could
            # otherwise slip an unvalidated (or, under Read-Enforced
            # persistency, a not-yet-durable) version past guards that
            # were checked against an older snapshot.
            guarded, caches = self._read_guarded, self.memory.caches
            while True:
                if guarded:
                    invalidated, undurable = self._read_guard(replica)
                else:
                    invalidated = undurable = False
                if invalidated:
                    self.metrics.read_stalls += 1
                    if self.ppolicy.dual_acks:
                        # Under Read-Enforced persistency the transient
                        # state only clears at VAL_p, so this stall is a
                        # read racing a yet-to-persist write (the
                        # conflicts of Section 8.1.2).
                        self.metrics.reads_blocked_by_unpersisted += 1
                    stall_start = sim.now
                    yield replica.wait_for(lambda: not replica.transient)
                    if self.tracer.enabled:
                        self.tracer.emit(sim.now, "read_stall",
                                         node=self.node_id,
                                         dur=sim.now - stall_start, key=key)
                    # Durability is judged once that stall is over.
                    undurable = self._read_guard(replica)[1]
                if undurable:
                    target = replica.applied_version
                    self.metrics.reads_blocked_by_unpersisted += 1
                    stall_start = sim.now
                    yield replica.wait_for(
                        lambda: self._durable_to_readers(replica) >= target)
                    if self.tracer.enabled and sim.now > stall_start:
                        self.tracer.emit(sim.now, "read_blocked_unpersisted",
                                         node=self.node_id,
                                         dur=sim.now - stall_start, key=key)
                latency, needs_dram = caches.access_latency()
                yield latency
                if needs_dram:
                    yield from self.memory.dram.read(0)
                if replica is NEVER_WRITTEN:
                    # A write that landed during the memory read built
                    # the key's replica: sample that.
                    replica = replicas.peek(key)
                # Re-validate against what is visible *now*; a write
                # applied during the memory read restarts the sequence.
                if not guarded or not any(self._read_guard(replica)):
                    break

            if (self.ppolicy.read_returns_persisted
                    and not self.cpolicy.uses_inv):
                # <Causal/Eventual, Synchronous>: return the latest
                # *persisted* version so every read value is recoverable
                # (Figure 2(f)).
                version = replica.persisted_version
                value = replica.persisted_value
            else:
                version, value = replica.applied_version, replica.applied_value
            if self.cpolicy.causal:
                ctx.observe(key, version)
            ctx.last_read_version = version
            if self.version_board is not None:
                self.version_board.score_read(key, version)
            return value
        finally:
            self.request_workers.release()

    def _durable_to_readers(self, replica: KeyReplica) -> Version:
        """The newest version known durable, as far as a reader here can
        tell: cluster-wide (VAL_p) under invalidation-based consistency;
        under Causal / Eventual only local durability is knowable."""
        return (replica.cluster_persisted_version if self.cpolicy.uses_inv
                else replica.persisted_version)

    def _read_guard(self, replica: KeyReplica) -> Tuple[bool, bool]:
        """The two guards a read must pass, judged against the state it
        samples *now*: (invalidated, undurable).  Linearizable /
        Read-Enforced consistency waits until no invalidation is
        outstanding on the key (all replicas updated, and — when ACKs
        also cover persists — persisted); Read-Enforced persistency
        forbids reading a version that is not yet durable."""
        return (self.cpolicy.read_stalls_on_transient and replica.transient,
                self.ppolicy.read_requires_applied_persisted
                and self._durable_to_readers(replica) < replica.applied_version)

    # ------------------------------------------------------------------
    # client API: writes
    # ------------------------------------------------------------------

    def client_write(self, ctx: ClientContext, key: int, value: Any) -> Generator:
        """Process: one client write; returns at the model's completion
        point (e.g. after VALs under <Linearizable, Synchronous>, or
        immediately after the local update under Causal)."""
        if not self.request_workers.try_acquire():
            yield self.request_workers
        try:
            yield from self._do_write(ctx, key, value)
        finally:
            self.request_workers.release()

    def _do_write(self, ctx: ClientContext, key: int, value: Any) -> Generator:
        entry_ns = self.sim.now
        fwd_start = ctx.forward_start_ns
        fwd_net = ctx.forward_net_ns
        ctx.forward_start_ns = None
        ctx.forward_net_ns = 0.0
        yield REQ_PROC_NS + self._store_write_cost(key, value)
        replica = self.replicas.get(key)

        if self.cpolicy.transactional and ctx.txn is not None:
            self.txn_table.check_access(ctx.txn, key, is_write=True)

        # A coordinator cannot start a write on a key with an outstanding
        # invalidation (its own or a remote writer's): conflicting writers
        # serialize (Section 5.2).  The loop re-checks after waking
        # because another woken writer may have claimed the key first.
        stall_start = self.sim.now
        if self.cpolicy.write_stalls_on_transient:
            while replica.transient:
                self.metrics.write_stalls += 1
                yield replica.wait_for(lambda: not replica.transient)
            if self.tracer.enabled and self.sim.now > stall_start:
                self.tracer.emit(self.sim.now, "write_stall",
                                 node=self.node_id,
                                 dur=self.sim.now - stall_start, key=key)

        version = replica.next_version(self.node_id)
        if self.tracer.enabled:
            details = dict(key=key, version=version,
                           start=entry_ns if fwd_start is None else fwd_start,
                           stall_ns=self.sim.now - stall_start)
            if fwd_start is not None:
                details["fwd_net_ns"] = fwd_net
                details["fwd_wait_ns"] = max(entry_ns - fwd_start - fwd_net,
                                             0.0)
            self.tracer.emit(self.sim.now, "write_issue", node=self.node_id,
                             **details)
        if self.version_board is not None:
            self.version_board.note_write(key, version)
        if self.store is not None:
            self.store.put(key, value)

        yield from self._replicate(ctx, replica, version, value)

        if self.cpolicy.causal:
            ctx.observe(key, version)
        if self.ppolicy.scoped:
            ctx.record_scope_write(key, version)
        ctx.last_write_version = version
        if self.tracer.enabled:
            self.tracer.emit(self.sim.now, "write_complete",
                             node=self.node_id, key=key, version=version)

    def _replicate(self, ctx: ClientContext, replica: KeyReplica,
                   version: Version, value: Any) -> Generator:
        """Process: coordinate the write the way the consistency family
        does, up to the model's completion point."""
        if self.cpolicy.uses_inv:
            yield from self._write_invalidation(ctx, replica, version, value)
        else:
            yield from self._write_update(ctx, replica, version, value)

    # -- invalidation-based consistency (Linearizable / Read-Enf. / Txn) --

    def _write_invalidation(self, ctx: ClientContext, replica: KeyReplica,
                            version: Version, value: Any) -> Generator:
        op_id = self._next_op_id()
        txn = ctx.txn if self.cpolicy.transactional else None
        txn_id = txn.txn_id if txn is not None else None
        scope_id = ctx.current_scope_id if self.ppolicy.scoped else None

        targets = self.active_peers
        op = _WriteOp(op_id=op_id, key=replica.key, version=version,
                      value=value, ack_c=AckRound(self.sim, targets),
                      txn_id=txn_id, scope_id=scope_id)
        if self.ppolicy.dual_acks:
            op.ack_p = AckRound(self.sim, targets)
        self._outstanding_writes[op_id] = op

        replica.begin_inv(op_id)
        yield from self.memory.volatile_update(replica.key, VALUE_BYTES)
        if txn is not None:
            txn.writes.append((replica.key, version))
            self._apply_txn_write(replica, version, value)
        else:
            replica.apply(version, value)

        inv = Message(MsgType.INV, src=self.node_id, op_id=op_id,
                      key=replica.key, version=version, value=value,
                      scope_id=scope_id, txn_id=txn_id)
        self._launch_round(inv, targets, op.ack_c, op.ack_p)

        # The local persist overlaps the INV round trip (Figure 2(a)).
        placed = self._coordinator_places[txn_id is not None]
        self._place_persist(replica, version, value, placed)
        if self.cpolicy.write_waits_for_acks or placed == "strict":
            # Linearizable (always), or any consistency under Strict:
            # the write completes only after the full round.
            yield from self._complete_write(op, replica, placed)
        elif txn_id is None or op.ack_p is not None:
            # Read-Enforced / Transactional consistency: the client write
            # completes now; the round finishes in the background.
            self.sim.process(self._complete_write(op, replica, placed),
                             name=self._pname["bground"])
        # Else a transaction's write, whose round ENDX finishes: its
        # followers ACK once every write is applied (and persisted, under
        # Synchronous), and its VAL ends the INVs (_settle_txn).

    def _complete_write(self, op: _WriteOp, replica: KeyReplica,
                        placed: Optional[str]) -> Generator:
        """Process: the completion sequence of an invalidation round —
        every ACK in, then the local persist where the acknowledgment
        waits for it, then the VALidation that clears the transient
        state.  Under dual ACKs the (single) validation is VAL_p, sent
        once every replica has persisted."""
        yield op.ack_c.event
        if placed in ACK_AFTER_PERSIST:
            yield from self._ensure_persisted(replica, op.version, op.value,
                                              trigger=placed)
        if op.ack_p is None:
            val_type = (MsgType.VAL if self._ack_after_persist
                        else MsgType.VAL_C)
            self._broadcast(Message(val_type, src=self.node_id, op_id=op.op_id,
                                    key=op.key, version=op.version,
                                    scope_id=op.scope_id, txn_id=op.txn_id))
            replica.end_inv(op.op_id)
            # A combined VAL outside a transaction also announces
            # cluster-wide durability: every ACK behind it was sent after
            # that replica's persist.
            if self._ack_after_persist and op.txn_id is None:
                replica.mark_cluster_persisted(op.version)
            self._outstanding_writes.pop(op.op_id, None)
        elif self.cpolicy.write_waits_for_acks:
            # The client is waiting in this very sequence and is owed
            # ACK_c only: the VAL_p round goes on behind it.
            self.sim.process(self._await_cluster_persist(op, replica),
                             name=self._pname["valp"])
        else:
            yield from self._await_cluster_persist(op, replica)

    def _apply_txn_write(self, replica: KeyReplica, version: Version,
                         value: Any) -> None:
        """Install a transactional write with undo support: winners record
        their pre-image; losers of the last-writer-wins race are absorbed
        into the winner's pre-image so aborts restore the right state."""
        if version > replica.applied_version:
            # Commutes with concurrent writers: the pre-image snapshot is
            # guarded by the version race; losers are absorbed monotonically.
            replica.record_undo(version)
            replica.apply(version, value)
        else:
            replica.absorb_superseded(version, value)

    def _await_cluster_persist(self, op: _WriteOp, replica: KeyReplica) -> Generator:
        """Process: the VAL_p round of Read-Enforced persistency, for an
        INV (Figure 3(a)) or an UPD (Figure 3(c)): ACK_p from every
        follower, then the local persist, then VAL_p announces cluster
        durability and ends the write's invalidation, if it made one."""
        yield op.ack_p.event
        if self.cpolicy.uses_inv:
            yield from self._ensure_persisted(replica, op.version, op.value,
                                              trigger="eager")
        else:
            # Through the heap even when already durable, unlike
            # _ensure_persisted: the kernel counters pin that event.
            yield replica.wait_for(
                lambda: replica.persisted_version >= op.version)
        self._broadcast(Message(MsgType.VAL_P, src=self.node_id, op_id=op.op_id,
                                key=op.key, version=op.version,
                                txn_id=op.txn_id))
        replica.mark_cluster_persisted(op.version)
        replica.end_inv(op.op_id)
        self._outstanding_writes.pop(op.op_id, None)

    # -- update-based consistency (Causal / Eventual) ------------------------

    def _write_update(self, ctx: ClientContext, replica: KeyReplica,
                      version: Version, value: Any) -> Generator:
        op_id = self._next_op_id()
        cauhist: Tuple = ()
        if self.cpolicy.causal:
            cauhist = ctx.take_dependencies(replica.key, version)

        yield from self.memory.volatile_update(replica.key, VALUE_BYTES)
        replica.apply(version, value)

        placed = self._coordinator_places[False]
        scope_id = ctx.current_scope_id if self.ppolicy.scoped else None
        message = Message(MsgType.UPD, src=self.node_id, op_id=op_id,
                          key=replica.key, version=version, value=value,
                          cauhist=cauhist, scope_id=scope_id)

        if placed == "strict":
            # Strict persistency: the write completes only once durable
            # at every replica, so propagation cannot be lazy.
            yield from self._run_round(message, self._ensure_persisted(
                replica, version, value, trigger=placed))
            return

        if self.cpolicy.lazy_propagation:
            self._later(LAZY_PROPAGATION_DELAY_NS,
                        self._broadcast, message, True)
        else:
            self._broadcast(message)

        # Off the client's critical path (Figure 2(e)): under
        # Synchronous, reads return the persisted version instead.
        self._place_persist(replica, version, value, placed)
        if self.ppolicy.dual_acks:
            # Read-Enforced: followers ACK_p their eager persists, and a
            # VAL_p announces cluster durability to stalled readers.
            op = _WriteOp(op_id=op_id, key=replica.key, version=version,
                          value=value,
                          ack_p=AckRound(self.sim, self.active_peers))
            self._outstanding_writes[op_id] = op
            self._arm_round_watchdog(op.ack_p, message)
            self.sim.process(self._await_cluster_persist(op, replica),
                             name=self._pname["valp"])

    # ------------------------------------------------------------------
    # client API: transactions
    # ------------------------------------------------------------------

    def client_begin_txn(self, ctx: ClientContext) -> Generator:
        """Process: Init-Xaction round (Figure 4): INITX to all followers,
        who persist the event (under inline persistency) and ACK."""
        if not self.cpolicy.transactional:
            raise RuntimeError(f"{self.model} does not support transactions")
        yield self.request_workers
        try:
            yield REQ_PROC_NS
            txn = self.txn_table.begin(self.node_id, ctx.client_id)
            ctx.txn = txn
            if self.tracer.enabled:
                self.tracer.emit(self.sim.now, "txn_begin", node=self.node_id,
                                 txn_id=txn.txn_id, client=ctx.client_id)
            initx = Message(MsgType.INITX, src=self.node_id,
                            op_id=self._next_op_id(), txn_id=txn.txn_id)
            yield from self._run_round(initx,
                                       self._persist_txn_begin(txn.txn_id))
        finally:
            self.request_workers.release()

    def client_end_txn(self, ctx: ClientContext) -> Generator:
        """Process: End-Xaction round (Figure 4): ENDX to all followers,
        who complete the transaction's updates in LLC (and NVM under
        inline persistency) before ACKing; then VAL."""
        txn = ctx.txn
        if txn is None:
            raise RuntimeError("client_end_txn without an open transaction")
        yield self.request_workers
        try:
            yield REQ_PROC_NS
            self.txn_table.check_still_alive(txn)
            op_id = self._next_op_id()
            payload = tuple(txn.writes)
            endx = Message(MsgType.ENDX, src=self.node_id,
                           op_id=op_id, txn_id=txn.txn_id,
                           payload=payload)
            yield from self._run_round(endx, self._persist_at_endx(payload),
                                       self._txn_replicas(txn.txn_id))
            self.txn_table.commit(txn)
            self.metrics.txn_commits += 1
            if self.tracer.enabled:
                self.tracer.emit(self.sim.now, "txn_commit",
                                 node=self.node_id, txn_id=txn.txn_id,
                                 writes=len(payload))
            self._broadcast(Message(MsgType.VAL, src=self.node_id, op_id=op_id,
                                    txn_id=txn.txn_id, payload=payload))
            self._settle_txn(txn.txn_id, payload)
            ctx.txn = None
        finally:
            # On a conflict, ctx.txn stays set so the client's abort path
            # can broadcast the squash to the followers.
            self.request_workers.release()

    def _txn_replicas(self, txn_id: int) -> List[int]:
        """The live peers every INV of the transaction reached.  A peer
        that restarted mid-transaction holds none of its earlier INVs,
        so its ENDX would wait for updates that only reach it once the
        transaction is over."""
        targets = self.active_peers
        for op in self._outstanding_writes.values():
            if op.txn_id == txn_id:
                targets = [p for p in targets if p in op.ack_c.targets]
        return targets

    def client_abort_txn(self, ctx: ClientContext) -> Generator:
        """Process: squash the open transaction.  Followers learn via a
        VAL carrying the abort's txn id (clearing transient state); the
        conflict winner's retry will overwrite any applied values."""
        txn = ctx.txn
        if txn is None:
            return
        yield self.request_workers
        try:
            yield REQ_PROC_NS
            if not txn.aborted:
                self.txn_table.abort(txn)
            if self.tracer.enabled:
                self.tracer.emit(self.sim.now, "txn_abort", node=self.node_id,
                                 txn_id=txn.txn_id, writes=len(txn.writes))
            payload = tuple(txn.writes)
            op_id = self._next_op_id()
            self._broadcast(Message(MsgType.VAL, src=self.node_id, op_id=op_id,
                                    txn_id=txn.txn_id, payload=payload,
                                    abort=True))
            self._settle_txn(txn.txn_id, payload, abort=True)
            if self.ppolicy.scoped:
                # Squashed writes must not be waited on at scope persist.
                reverted = set(payload)
                ctx.scope_writes = [w for w in ctx.scope_writes
                                    if w not in reverted]
        finally:
            ctx.txn = None
            self.request_workers.release()

    def _settle_txn(self, txn_id: int, payload, abort: bool = False) -> None:
        """Commit or squash a transaction's writes here (the coordinator
        sends, a follower receives, the VAL after ENDX or the abort) and
        end this node's invalidations for them: a follower's recorded
        INVs, the coordinator's write rounds — but a VAL_p round, which
        still needs the followers' ACK_p, ends its own."""
        for key, version in payload:
            replica = self.replicas.get(key)
            if abort:
                # Commutes: revert is a no-op unless applied_version
                # == version (the txn's own write).
                replica.revert(version)
                if self.store is not None:
                    self.store.put(key, replica.applied_value)
            else:
                replica.commit_undo(version)
        for key, op_id in self._txn_invs.pop(txn_id, []):
            self.replicas.get(key).end_inv(op_id)
        for op_id, op in list(self._outstanding_writes.items()):
            if op.txn_id == txn_id and op.ack_p is None:
                self.replicas.get(op.key).end_inv(op_id)
                self._outstanding_writes.pop(op_id, None)
                # Nobody awaits its INV's ACKs any more: stop the watchdog.
                op.ack_c.open = False

    def _persist_txn_begin(self, txn_id: int) -> Generator:
        """Process: Strict / Synchronous persist the transaction-begin
        event (Figure 4(b)), at the coordinator and at each follower."""
        if self._ack_after_persist:
            yield from self.memory.persist(txn_id)
            self.metrics.persists += 1

    def _persist_at_endx(self, pairs: Tuple[Tuple[int, Version], ...]) -> Generator:
        """Process: what ENDX owes the transaction's writes, at the
        coordinator and at each follower — Strict / Synchronous persist
        them and wait for all of them (Figure 4(b)); Read-Enforced asks
        again in the background."""
        if self._ack_after_persist:
            yield from self._persist_each(
                pairs, lambda replica, version: self._ensure_persisted(
                    replica, version, replica.applied_value, trigger="endx"))
        elif self._coordinator_places[0] == "eager":
            for key, version in pairs:
                replica = self.replicas.get(key)
                self._request_persist(replica, version,
                                      replica.applied_value, "endx")

    def _persist_each(self, payload: Tuple[Tuple[int, Version], ...],
                      persist_one: Callable[..., Generator],
                      *args: Any) -> Generator:
        """Process: ``persist_one(replica, version, *args)`` for every
        write of ``payload``, one process each, until all are done."""
        procs = []
        for key, version in payload:
            procs.append(self.sim.process(
                persist_one(self.replicas.get(key), version, *args),
                name=self._pname["persist"]))
        if procs:
            yield self.sim.all_of(procs)

    # ------------------------------------------------------------------
    # client API: scopes
    # ------------------------------------------------------------------

    def client_persist_scope(self, ctx: ClientContext) -> Generator:
        """Process: the Persist call for the client's current scope
        (Figure 5): PERSIST to all followers, who persist every write of
        the scope and ACK_p; then VAL_p and completion."""
        if not self.ppolicy.scoped:
            raise RuntimeError(f"{self.model} does not use scopes")
        scope_id, writes = ctx.close_scope()
        if not writes:
            return
        yield self.request_workers
        try:
            scope_start = self.sim.now
            yield REQ_PROC_NS
            op_id = self._next_op_id()
            payload = tuple(writes)
            persist_msg = Message(MsgType.PERSIST, src=self.node_id,
                                  op_id=op_id, scope_id=scope_id,
                                  payload=payload)
            yield from self._run_round(
                persist_msg, self._persist_scope_local(scope_id, payload))
            self._broadcast(Message(MsgType.VAL_P, src=self.node_id,
                                    op_id=op_id, scope_id=scope_id,
                                    payload=payload))
            for key, version in payload:
                self.replicas.get(key).mark_cluster_persisted(version)
            if self.tracer.enabled:
                self.tracer.emit(self.sim.now, "scope_persist",
                                 node=self.node_id,
                                 dur=self.sim.now - scope_start,
                                 scope_id=scope_id, writes=len(payload))
        finally:
            self.request_workers.release()

    def _persist_scope_local(self, scope_id: int, payload) -> Generator:
        """Process: persist the scope here, then its commit marker, unless
        a crash came meanwhile; returns whether it wrote the marker."""
        incarnation = self.nic.incarnation
        yield from self._persist_each(payload, self._scope_persist_one,
                                      scope_id, incarnation)
        if incarnation is not self.nic.incarnation:
            return False
        if self.nvm_log is not None:
            self.nvm_log.commit_scope(self.node_id, scope_id)
        return True

    def _scope_persist_one(self, replica: KeyReplica, version: Version,
                           scope_id: int, incarnation: object) -> Generator:
        # The update must have been applied locally before it can persist.
        yield replica.wait_for(lambda: replica.applied_version >= version)
        value = replica.applied_value
        # Scope-tagged persists bypass write combining so that the durable
        # log attributes each entry to the scope that persisted it.
        if replica.persisted_version >= version:
            return
        if replica.persist_requested < version:
            if incarnation is not self.nic.incarnation:
                return
            if self.tracer.enabled:
                self.tracer.emit(self.sim.now, "persist_issue",
                                 node=self.node_id, key=replica.key,
                                 version=version, trigger="scope")
            replica.persist_requested = version
            yield from self.memory.persist(replica.key)
            self._mark_durable(replica, version, value, scope_id)
            return
        yield replica.wait_for(lambda: replica.persisted_version >= version)

    # ------------------------------------------------------------------
    # follower message handlers
    # ------------------------------------------------------------------

    def _on_arrival(self, message: Message) -> None:
        """NIC sink: a message landed.  Its handler starts once a
        protocol worker has spent ``MSG_PROC_NS`` on it."""
        if self.tracer.enabled:
            self.tracer.emit(self.sim.now, "msg_recv", node=self.node_id,
                             msg=message.msg_type.label, src=message.src,
                             op_id=message.op_id, key=message.key,
                             version=message.version)
        cpu_done = self.protocol_workers.admit(MSG_PROC_NS) + MSG_PROC_NS
        self.sim.call_at(cpu_done, self._handle_now, self.nic.incarnation,
                         False, self._handlers[message.msg_type.label],
                         message, self.sim.now)

    def _handle_waiting(self, steps: Generator, message: Message,
                        arrived_ns: float) -> Generator:
        """Process: run ``steps`` — what is left of a handler that
        reached a loop over waits — to the end of the handler."""
        instrument = self.sim.instrument
        if instrument is not None:
            # Transparent shim: yields the same events in the same order,
            # so the run stays byte-identical (see Instrument.drive_handler).
            steps = instrument.drive_handler(message.msg_type.label, steps)
        yield from steps
        if self.tracer.enabled:
            self._emit_msg_handle(message, arrived_ns)

    def _handle_now(self, incarnation: object, resumed: bool,
                    segment: Callable[..., Any], message: Message,
                    arrived_ns: float, *args: Any) -> None:
        """Run one segment of a callback handler: the handler itself or
        (``resumed``) a continuation — unless ``incarnation``, the one
        the message landed at, has ended: a crash loses it.

        A segment is ``fn(message, arrived_ns, *args)``.  It returns
        ``None`` when the handler is done; ``_PARKED`` when it has handed
        ``_handle_now`` with the next segment to whatever it waits for
        (the same heap entry or event a ``yield`` would have parked on);
        or a generator when what remains loops over waits (a handler
        that does so from its first line simply is a generator function)
        — that runs as a process started in place, so it too adds no
        hop.  From outside the segments are one handler: one count and
        every segment's time under the message type, one ``msg_handle``
        span from arrival to the end of the last segment.
        """
        if incarnation is not self.nic.incarnation:
            return
        instrument = self.sim.instrument
        if instrument is None:
            rest = segment(message, arrived_ns, *args)
        else:
            rest = instrument.call_handler(
                message.msg_type.label, segment, message, arrived_ns, *args,
                resumed=resumed)
        if rest is None:
            if self.tracer.enabled:
                self._emit_msg_handle(message, arrived_ns)
        elif rest is not _PARKED:
            self.sim.process(
                self._handle_waiting(rest, message, arrived_ns),
                name=self._pname["msg"], inline=True)

    def _emit_msg_handle(self, message: Message, arrived_ns: float) -> None:
        # Both callers check tracer.enabled.
        self.tracer.emit(self.sim.now, "msg_handle", node=self.node_id,
                         dur=self.sim.now - arrived_ns,
                         msg=message.msg_type.label, src=message.src,
                         op_id=message.op_id)

    # -- invalidation path ------------------------------------------------------

    def _on_inv(self, message: Message, arrived_ns: float) -> Any:
        replica = self.replicas.get(message.key)
        replica.begin_inv(message.op_id)
        if message.txn_id is not None:
            entries = self._txn_invs.setdefault(message.txn_id, [])
            # Resent INVs (round retries, duplication faults) must not
            # double-register: the post-ENDX VAL ends each inv once.
            if (message.key, message.op_id) not in entries:
                # Order unused: membership-guarded, and the post-ENDX
                # VAL consumes the list wholesale.
                entries.append((message.key, message.op_id))
        self.memory.volatile_update_then(
            message.key, VALUE_BYTES, self._handle_now,
            self.nic.incarnation, True, self._deposited, message, arrived_ns,
            replica)
        return _PARKED

    def _on_val(self, message: Message, _arrived_ns: float) -> None:
        if message.txn_id is not None and message.key is None:
            # Post-ENDX (or abort) VAL.
            self._settle_txn(message.txn_id, message.payload, message.abort)
            return
        replica = self.replicas.get(message.key)
        # A combined VAL outside a transaction: see _complete_write.
        if (self._ack_after_persist and message.txn_id is None
                and message.version is not None):
            replica.mark_cluster_persisted(message.version)
        replica.end_inv(message.op_id)

    def _on_val_p(self, message: Message, _arrived_ns: float) -> None:
        for key, version in message.payload:
            self.replicas.get(key).mark_cluster_persisted(version)
        if message.key is not None:
            replica = self.replicas.get(message.key)
            replica.mark_cluster_persisted(message.version)
            replica.end_inv(message.op_id)

    def _on_ack(self, message: Message, _arrived_ns: float) -> None:
        """An ACK, ACK_c or ACK_p, counted in the round it answers: a
        write's ACK_p round for an ACK_p and its ACK_c round otherwise,
        or the op's INITX / ENDX / PERSIST or Strict UPD round."""
        op = self._outstanding_writes.get(message.op_id)
        if op is None:
            round_ = self._outstanding_rounds.get(message.op_id)
        elif message.msg_type is MsgType.ACK_P:
            round_ = op.ack_p
        else:
            round_ = op.ack_c
        if round_ is not None:
            round_.ack(message.src)

    # -- update path (Causal / Eventual) ----------------------------------------

    def _on_upd(self, message: Message, arrived_ns: float) -> Any:
        # The key joins the table on arrival, but an update buffered for
        # its causal history builds no replica until it is installed.
        replica = self.replicas.peek(message.key)
        if self.ppolicy.write_waits_for_persist_everywhere:
            # Strict: durability is immediate and independent of
            # visibility ordering (the update may persist before the
            # volatile replica is updated).
            replica = self.replicas.get(message.key)
            self.sim.process(
                self._persist_then_ack_p(replica, message, "strict"),
                name=self._pname["strictp"])
        if self.cpolicy.causal:
            unmet = self._first_unmet_dep(message.cauhist)
            if unmet is not None:
                self._buffer_causal(unmet, message)
                return None
        if replica is NEVER_WRITTEN:
            replica = self.replicas.get(message.key)
        self.memory.volatile_update_then(
            message.key, VALUE_BYTES, self._handle_now,
            self.nic.incarnation, True, self._deposited, message, arrived_ns,
            replica)
        return _PARKED

    def _first_unmet_dep(self, cauhist) -> Optional[int]:
        """The key of one not-yet-visible dependency, or None if all are
        satisfied.  Under Synchronous persistency a dependency is only
        satisfied once persisted (Figure 2(f))."""
        for dep_key, dep_version in cauhist:
            replica = self.replicas.peek(dep_key)
            if replica.applied_version < dep_version:
                return dep_key
            if (self.ppolicy.deps_require_persist
                    and replica.persisted_version < dep_version):
                return dep_key
        return None

    def _buffer_causal(self, unmet_key: int, message: Message) -> None:
        # Buffer order cannot leak: releases re-check deps and applies
        # are version-guarded LWW.
        self._causal_waiting.setdefault(unmet_key, []).append(message)
        self._causal_waiting_count += 1
        self.metrics.note_causal_buffer(self._causal_waiting_count)
        if self.tracer.enabled:
            self.tracer.emit(self.sim.now, "causal_buffered",
                             node=self.node_id, key=message.key,
                             version=message.version, waiting_on=unmet_key,
                             depth=self._causal_waiting_count)

    def _recheck_causal_waiters(self, key: int) -> Generator:
        """A version of ``key`` advanced: re-check the updates waiting on
        it; apply the now-satisfiable ones, chasing unlock chains."""
        work = [key]
        while work:
            advanced_key = work.pop()
            waiters = self._causal_waiting.pop(advanced_key, None)
            if not waiters:
                continue
            self._causal_waiting_count -= len(waiters)
            for message in waiters:
                unmet = self._first_unmet_dep(message.cauhist)
                if unmet is not None:
                    self._buffer_causal(unmet, message)
                    continue
                if self.tracer.enabled:
                    self.tracer.emit(self.sim.now, "causal_released",
                                     node=self.node_id, key=message.key,
                                     version=message.version,
                                     unblocked_by=advanced_key)
                # What _on_upd does to an update whose dependencies are
                # met, one released update after the other.
                replica = self.replicas.get(message.key)
                yield from self.memory.volatile_update(
                    message.key, VALUE_BYTES, via_ddio=True)
                durable = self._install(message, replica)
                if durable is not None:
                    yield replica.wait_for(durable)
                work.append(message.key)

    # -- an INV's or UPD's payload, once in the LLC --------------------------

    def _deposited(self, message: Message, arrived_ns: float,
                   replica: KeyReplica) -> Any:
        """Segment: install the payload, then go on once a persist placed
        first is done (``_install`` ACKs an INV that waits for none)."""
        durable = self._install(message, replica)
        if durable is not None:
            replica.call_when(durable, self._handle_now, self.nic.incarnation,
                              True, self._installed, message, arrived_ns)
            return _PARKED
        if message.msg_type is MsgType.UPD:
            return self._installed(message, arrived_ns)
        return None

    def _installed(self, message: Message,
                   _arrived_ns: Optional[float] = None) -> Optional[Generator]:
        """Installed, and durable where the persist goes first: ACK an
        INV; release the updates buffered on an UPD's key."""
        if message.msg_type is MsgType.INV:
            self._send(message.src, Message(MsgType.ACK, src=self.node_id,
                                            op_id=message.op_id,
                                            key=message.key,
                                            version=message.version))
        elif self.cpolicy.causal and message.key in self._causal_waiting:
            # Buffered updates were waiting on this key: releasing them
            # loops over waits, so the handler goes on as a process.
            return self._recheck_causal_waiters(message.key)
        return None

    def _install(self, message: Message,
                 replica: KeyReplica) -> Optional[Callable]:
        """An INV's or UPD's payload has reached the LLC: apply it under
        last-writer-wins (with undo inside a transaction), free its DDIO
        space, put the winner in the store and carry out the follower's
        placement.  Where that puts the persist first — before an INV's
        ACK (Figure 2(b)), at an UPD's visibility point (Figure 2(f)) —
        and it is not done yet, returns the predicate to wait for (see
        :meth:`_persist_wait`); otherwise an INV has been acknowledged
        here."""
        in_txn = message.txn_id is not None
        self._take(replica, message.version, message.value, in_txn)
        self.memory.consume_ddio(VALUE_BYTES)

        placed = self._follower_places[in_txn]
        is_inv = message.msg_type is MsgType.INV
        if placed in ACK_AFTER_PERSIST:
            durable = self._persist_wait(
                replica, message.version, message.value, placed)
            if durable is None and is_inv:
                self._installed(message)
            return durable
        if is_inv:
            self._send(message.src, Message(MsgType.ACK_C, src=self.node_id,
                                            op_id=message.op_id,
                                            key=message.key,
                                            version=message.version))
        if self.ppolicy.dual_acks:
            # The (eager) persist is acknowledged on its own, by ACK_p.
            self.sim.process(
                self._persist_then_ack_p(replica, message, placed),
                name=self._pname["ackp"])
        else:
            self._place_persist(replica, message.version, message.value,
                                placed)
        return None

    def _take(self, replica: KeyReplica, version: Version, value: Any,
              in_txn: bool = False) -> None:
        """Apply another replica's write under last-writer-wins (with
        undo inside a transaction) and keep the store on the winner."""
        if in_txn:
            self._apply_txn_write(replica, version, value)
        elif not replica.apply(version, value):
            replica.absorb_superseded(version, value)
        if self.store is not None:
            # The store must hold the LWW winner, not this write: a
            # superseded INV or UPD arriving late would otherwise
            # clobber newer content.
            self.store.put(replica.key, replica.applied_value)

    def _persist_then_ack_p(self, replica: KeyReplica, message: Message,
                            trigger: str) -> Generator:
        yield from self._ensure_persisted(replica, message.version,
                                          message.value, trigger=trigger)
        self._send(message.src, Message(MsgType.ACK_P, src=self.node_id,
                                        op_id=message.op_id, key=message.key,
                                        version=message.version))

    # -- transaction rounds -------------------------------------------------------

    def _on_initx(self, message: Message, _arrived_ns: float) -> Generator:
        yield from self._persist_txn_begin(message.txn_id)
        self._send(message.src, Message(MsgType.ACK, src=self.node_id,
                                        op_id=message.op_id,
                                        txn_id=message.txn_id))

    def _on_endx(self, message: Message, _arrived_ns: float) -> Generator:
        # All the transaction's updates must be applied locally...
        waits = []
        for key, version in message.payload:
            replica = self.replicas.get(key)
            waits.append(replica.wait_for(_applied_at_least(replica, version)))
        if waits:
            yield self.sim.all_of(waits)
        # ... and durable, where ENDX owes that.
        yield from self._persist_at_endx(message.payload)
        self._send(message.src, Message(MsgType.ACK, src=self.node_id,
                                        op_id=message.op_id,
                                        txn_id=message.txn_id))

    # -- scope rounds -----------------------------------------------------------------

    def _on_persist(self, message: Message,
                    _arrived_ns: float) -> Generator:
        if (yield from self._persist_scope_local(message.scope_id,
                                                 message.payload)):
            self._send(message.src, Message(MsgType.ACK_P, src=self.node_id,
                                            op_id=message.op_id,
                                            scope_id=message.scope_id))

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def causal_buffer_len(self) -> int:
        return self._causal_waiting_count

    @property
    def outstanding_write_count(self) -> int:
        return len(self._outstanding_writes)

    @property
    def inflight_round_count(self) -> int:
        """Outstanding INITX / ENDX / PERSIST and Strict UPD rounds."""
        return len(self._outstanding_rounds)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ProtocolNode(node={self.node_id}, model={self.model}, "
                f"keys={len(self.replicas)})")


def _applied_at_least(replica: KeyReplica, version: Version):
    """Predicate factory (avoids late-binding bugs in loops)."""
    return lambda: replica.applied_version >= version
