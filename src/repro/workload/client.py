"""Closed-loop client processes.

Each client is pinned to one server (its coordinator for every request)
and issues requests back-to-back: the next request starts when the
previous one completes, as in the paper's testbed where client threads
block on their outstanding request.

Under Transactional consistency the client groups every
``txn_length`` requests into a transaction and retries the whole
transaction (with backoff) when it is squashed by a conflict.  Under
Scope persistency the client issues a Persist call after every
``scope_length`` requests.

Latency accounting: each logical request is recorded once, when its
*successful* attempt completes, with the start time of its *first*
attempt — so transaction squashes show up as long write/read latencies,
matching the paper ("a request will not be satisfied until the
transaction restarts and completes").
"""

from __future__ import annotations

from typing import Generator, List, Optional

from repro.analysis.metrics import Metrics
from repro.core.context import ClientContext
from repro.core.engine import ProtocolNode
from repro.sim.engine import Interrupt, Simulator
from repro.txn.manager import TxnConflict
from repro.workload.ycsb import RequestStream

__all__ = ["Client"]

#: Client backoff after a squashed transaction before retrying, times
#: the attempt number up to ``_MAX_BACKOFF_MULTIPLIER``.
TXN_RETRY_BACKOFF_NS = 6_000.0
_MAX_BACKOFF_MULTIPLIER = 8


class Client:
    """One closed-loop client thread."""

    def __init__(self, sim: Simulator, client_id: int, node: ProtocolNode,
                 stream: RequestStream, metrics: Metrics,
                 record_ops: bool = False,
                 history=None):
        self.sim = sim
        self.client_id = client_id
        self.node = node
        self.stream = stream
        self.metrics = metrics
        self.ctx = ClientContext(client_id, node.node_id)
        self.completed_requests = 0
        self.process = None
        self._stop = False
        # Optional request budget: the client stops issuing once it has
        # completed this many requests (None = run until stopped).  A
        # cluster whose clients all carry a budget drains to quiescence,
        # which is what fixed-work experiments (e.g. the tie-batch
        # sanitizer's byte-identity sweeps) need: the same operation
        # multiset regardless of how the schedule interleaves.
        self.max_requests: Optional[int] = None
        # Optional repro.obs.history.HistoryRecorder: the black-box
        # audit's view of this client (pure observation; never touches
        # the simulation).
        self.history = history
        # The logical operation currently in flight, as (op, key) —
        # cleared on completion.  Lets the fault injector count
        # crash-severed operations even without a recorder attached.
        self.in_flight = None
        # ``record_ops`` logs (key, version) read observations, for
        # validating session guarantees (monotonic reads, Table 4), and
        # completed writes, committed transaction writes and completed
        # scopes, for the durability contracts checked by
        # repro.faults.validate after faulty runs.
        self.record_ops = record_ops
        self.read_observations: List[tuple] = []
        self.completed_writes: List[tuple] = []
        self.scope_log: dict = {}
        # Read sessions closed by a crash-restart of the client's node:
        # session guarantees (monotonic reads) hold within a session,
        # and a restart starts a fresh one.
        self._closed_read_sessions: List[List[tuple]] = []

    def start(self) -> None:
        self.process = self.sim.process(self._run(),
                                        name=f"client{self.client_id}")

    def request_stop(self) -> None:
        """Stop issuing new requests after the current one completes.

        Unlike interrupting the process, this never abandons a protocol
        round mid-flight, so the cluster drains to a clean state.
        """
        self._stop = True

    def restart(self) -> None:
        """Reconnect once the client's node restarted and caught up.

        The old process was interrupted at the crash (abandoning any
        in-flight operation, like a real client losing its server); this
        opens a fresh session: new context (causal dependencies, the open
        scope, and transactions do not survive the server's volatile
        state) and a new read-session segment.  Durable-contract logs
        (``completed_writes``, ``scope_log``) span sessions — completed
        work stays completed across a crash.
        """
        if self.read_observations:
            self._closed_read_sessions.append(self.read_observations)
            self.read_observations = []
        if self.history is not None:
            self.history.restart_session(self.client_id)
        # Scope ids stay unique per client across sessions: the new
        # context starts past the scope the crash left open, so no id
        # names two scopes in ``scope_log`` or in a node's NVM staging.
        scope_counter = self.ctx.scope_counter + 1
        self.ctx = ClientContext(self.client_id, self.node.node_id)
        self.ctx.scope_counter = scope_counter
        self._stop = False
        self.start()

    def read_sessions(self) -> List[List[tuple]]:
        """All read-session segments, oldest first (see ``restart``)."""
        sessions = list(self._closed_read_sessions)
        if self.read_observations:
            sessions.append(self.read_observations)
        return sessions

    # ------------------------------------------------------------------

    def _run(self) -> Generator:
        node, sim, client_id = self.node, self.sim, self.client_id
        transactional = node.cpolicy.transactional
        scoped = node.ppolicy.scoped
        scope_length = node.config.scope_length
        requests_since_persist = 0
        try:
            while not self._stop and (self.max_requests is None
                                      or self.completed_requests
                                      < self.max_requests):
                if transactional:
                    count = yield from self._run_transaction()
                else:
                    # A plain request, run here rather than one generator
                    # deeper: most operations are these.
                    op, key, value = self.stream.next_request()
                    start = sim.now
                    ctx, history = self.ctx, self.history
                    self.in_flight = (op, key)
                    if history is not None:
                        history.invoke(
                            client_id, node.node_id, op, key,
                            value=None if op == "read" else value,
                            scope_id=(ctx.current_scope_id
                                      if scoped and op == "write" else None))
                    if op == "read":
                        result = yield from node.client_read(ctx, key)
                        if history is not None:
                            history.complete(client_id,
                                             version=ctx.last_read_version,
                                             value=result)
                        if self.record_ops:
                            self.read_observations.append(
                                (key, ctx.last_read_version))
                    else:
                        yield from node.client_write(ctx, key, value)
                        if history is not None:
                            history.complete(client_id,
                                             version=ctx.last_write_version)
                        if self.record_ops:
                            self.completed_writes.append(
                                (key, ctx.last_write_version))
                    self.in_flight = None
                    self.metrics.record(op, node.node_id, client_id, key,
                                        start, sim.now)
                    count = 1
                self.completed_requests += count
                if scoped:
                    requests_since_persist += count
                    if requests_since_persist >= scope_length:
                        yield from self._run_scope_persist()
                        requests_since_persist = 0
        except Interrupt:
            # Graceful shutdown (used by tests and crash experiments); an
            # in-flight operation is abandoned mid-protocol, like a real
            # client disconnecting.  The abandoned operation may or may
            # not have taken effect: the history keeps it as pending.
            if self.history is not None:
                self.history.sever(self.client_id)
            self.in_flight = None
            return

    def _record(self, op_type: str, key: Optional[int], start_ns: float) -> None:
        self.metrics.record(op_type, self.node.node_id, self.client_id, key,
                            start_ns, self.sim.now)

    def _run_scope_persist(self) -> Generator:
        start = self.sim.now
        scope_id = self.ctx.current_scope_id
        scope_writes = list(self.ctx.scope_writes)
        self.in_flight = ("persist", None)
        if self.history is not None:
            self.history.invoke(self.client_id, self.node.node_id,
                                "persist", None, scope_id=scope_id)
        yield from self.node.client_persist_scope(self.ctx)
        if self.history is not None:
            self.history.complete(self.client_id, committed=True)
        self.in_flight = None
        if self.record_ops and scope_writes:
            # Recorded only on completion: an interrupted Persist leaves
            # the scope uncommitted, which makes no durability promise.
            self.scope_log[scope_id] = scope_writes
        self._record("persist", None, start)

    # -- transactions ------------------------------------------------------------------

    def _run_transaction(self) -> Generator:
        txn_length = self.node.config.txn_length
        requests = [self.stream.next_request() for _ in range(txn_length)]
        first_start: List[Optional[float]] = [None] * txn_length
        scoped = self.node.ppolicy.scoped
        attempt = 0
        while True:
            attempt += 1
            begin_start = self.sim.now
            txn = None
            try:
                yield from self.node.client_begin_txn(self.ctx)
                txn = self.ctx.txn
                completions: List[float] = []
                for index, (op, key, value) in enumerate(requests):
                    if first_start[index] is None:
                        first_start[index] = self.sim.now
                    self.in_flight = (op, key)
                    if self.history is not None:
                        self.history.invoke(
                            self.client_id, self.node.node_id, op, key,
                            value=None if op == "read" else value,
                            txn_id=txn.txn_id if txn is not None else None,
                            scope_id=(self.ctx.current_scope_id
                                      if scoped and op == "write" else None))
                    if op == "read":
                        result = yield from self.node.client_read(self.ctx,
                                                                  key)
                        if self.history is not None:
                            self.history.complete(
                                self.client_id,
                                version=self.ctx.last_read_version,
                                value=result)
                    else:
                        yield from self.node.client_write(self.ctx, key, value)
                        if self.history is not None:
                            self.history.complete(
                                self.client_id,
                                version=self.ctx.last_write_version)
                    self.in_flight = None
                    completions.append(self.sim.now)
                yield from self.node.client_end_txn(self.ctx)
                if self.history is not None and txn is not None:
                    self.history.set_txn_outcome(txn.txn_id, True)
            except TxnConflict:
                # The squashed access itself neither took effect nor
                # observed anything; the attempt's earlier operations
                # are stamped aborted (their writes were reverted).
                if self.history is not None:
                    self.history.fail(self.client_id)
                self.in_flight = None
                yield from self.node.client_abort_txn(self.ctx)
                if self.history is not None and txn is not None:
                    self.history.set_txn_outcome(txn.txn_id, False)
                backoff = (TXN_RETRY_BACKOFF_NS
                           * min(attempt, _MAX_BACKOFF_MULTIPLIER))
                yield backoff
                continue
            if self.record_ops and txn is not None:
                # A committed transaction's writes are the durable unit
                # (individual writes inside an uncommitted transaction
                # promise nothing).
                self.completed_writes.extend(txn.writes)
            # Success: record every request of the transaction.  Reads and
            # writes inside a committed transaction are not final until
            # ENDX, but the paper measures their individual completions.
            for index, (op, key, _value) in enumerate(requests):
                self.metrics.record(op, self.node.node_id, self.client_id,
                                    key, first_start[index],
                                    completions[index])
            self._record("txn", None, begin_start)
            return txn_length
