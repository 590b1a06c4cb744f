"""Cluster assembly and the simulation harness.

:class:`Cluster` wires together the simulator, network, nodes,
transaction table, durable log, and closed-loop clients for one
DDP model.  :func:`run_simulation` is the one-call experiment runner
used by tests, examples, and every benchmark: build a cluster, warm it
up, measure for a simulated duration, and return the
:class:`~repro.analysis.metrics.Summary`.
"""

from __future__ import annotations

from typing import List, Optional

from repro.analysis.metrics import Metrics, Summary
from repro.cluster.config import ClusterConfig
from repro.cluster.node import Node
from repro.core.engine import ProtocolNode
from repro.core.membership import Membership
from repro.core.model import DdpModel
from repro.net.network import Network
from repro.recovery.log import NvmLog
from repro.recovery.recovery import recover_latest
from repro.sim.engine import Interrupt, Simulator
from repro.sim.rng import SeededStream
from repro.txn.manager import TxnTable
from repro.workload.client import Client
from repro.workload.ycsb import RequestStream, WorkloadSpec

__all__ = ["Cluster", "run_simulation"]


class Cluster:
    """A full modeled deployment of one DDP model.

    The only code that assembles and runs a deployment.  A variant
    (:class:`repro.variants.leader.LeaderCluster`,
    :class:`repro.hybrid.cluster.HybridCluster`) subclasses it and overrides two
    hooks: the engine a node runs (:meth:`engine_for`) and the topology
    (:meth:`peers_of`, :attr:`one_way_ns`).  Everything else — observers,
    membership, clients, ``run``, failure injection — is inherited.
    """

    #: Label of the seed stream; a variant names its own.
    rng_label = "cluster"
    #: Per-pair propagation delay ``(src, dst) -> ns``; ``None`` is the
    #: uniform fabric of ``config.network``.
    one_way_ns = None

    def peers_of(self, node_id: int) -> List[int]:
        """The replicas a node's protocol rounds span (default: all)."""
        return [n for n in range(self.config.servers) if n != node_id]

    def engine_for(self, node_id: int):
        """The node's protocol engine: ``(class, extra kwargs)``."""
        return ProtocolNode, {}

    def __init__(self, model: DdpModel, config: Optional[ClusterConfig] = None,
                 workload: Optional[WorkloadSpec] = None, tracer=None,
                 version_board=None, metrics: Optional[Metrics] = None,
                 profile=None, monitor=None, faults=None, history=None):
        self.model = model
        self.config = config or ClusterConfig()
        self.workload = workload
        self.tracer = tracer
        self.version_board = version_board
        self.sim = Simulator()
        self.profile = profile
        if profile is not None:
            profile.attach(self.sim)
        self.rng = SeededStream(self.config.seed, self.rng_label)
        self.metrics = metrics if metrics is not None else Metrics()
        self.network = Network(self.sim, self.config.network,
                               one_way_fn=self.one_way_ns, tracer=tracer)
        self.txn_table = TxnTable()
        self.nvm_log = NvmLog(range(self.config.servers))
        # Membership exists only for fault-injected runs: without it the
        # engines arm no round watchdogs and keep exact seed behavior.
        self.membership = (Membership(range(self.config.servers))
                           if faults is not None else None)
        self.nodes: List[Node] = []
        for node_id in range(self.config.servers):
            engine_class, engine_kwargs = self.engine_for(node_id)
            self.nodes.append(Node(
                self.sim, node_id, self.config, model, self.network,
                self.metrics, self.txn_table, self.rng,
                self.peers_of(node_id), engine_class,
                nvm_log=self.nvm_log, tracer=tracer,
                version_board=version_board, membership=self.membership,
                **engine_kwargs))
        # Optional repro.obs.history.HistoryRecorder for the black-box
        # audit: attached to every client, pure observation.
        self.history = history
        if history is not None:
            history.sim = self.sim
        self.clients: List[Client] = []
        if workload is not None:
            self._build_clients(workload)
        self.monitor = monitor
        if monitor is not None:
            # Attached last so the monitor sees the fully-built cluster;
            # it samples on the simulation clock from here on.
            monitor.attach(self)
        self.faults = faults
        if faults is not None:
            # After the monitor, so fault events land on an otherwise
            # fully-assembled cluster.
            faults.attach(self)

    def _build_clients(self, workload: WorkloadSpec) -> None:
        client_id = 0
        record_ops = self.membership is not None
        for node in self.nodes:
            for _ in range(self.config.clients_per_server):
                stream = RequestStream(
                    workload, self.rng.fork(f"client{client_id}"))
                self.clients.append(
                    Client(self.sim, client_id, node.engine, stream,
                           self.metrics, record_ops=record_ops,
                           history=self.history))
                client_id += 1

    # -- running --------------------------------------------------------------------

    def start(self) -> None:
        """Attach the engines to their NICs and launch the client loops."""
        for node in self.nodes:
            node.engine.start()
        for client in self.clients:
            client.start()

    def run(self, duration_ns: float, warmup_ns: float = 0.0) -> Summary:
        """Start everything, run for ``duration_ns`` of simulated time,
        and summarize the measured interval (after ``warmup_ns``)."""
        self.start()
        if warmup_ns > 0:
            self.sim.run(until=warmup_ns)
        self.metrics.warmup_end_ns = self.sim.now
        self.sim.run(until=duration_ns)
        self.metrics.txn_conflicts = self.txn_table.conflicts
        if self.profile is not None:
            self.profile.stop(self.sim.now)
        if self.monitor is not None:
            # Stop re-arming the sampling tick; anything the caller runs
            # on this simulator afterwards (e.g. recovery) is unsampled.
            self.monitor.stop(self.sim.now)
        if self.history is not None:
            # Operations still in flight at the end of the run stay
            # pending: the recorder never learned their outcome.
            self.history.finalize()
        return self.metrics.summarize(self.sim.now)

    # -- failure injection --------------------------------------------------------------

    def crash_all(self) -> None:
        """Whole-cluster volatile failure (the paper's worst case): every
        node crashes and every client is cut off (see :meth:`fail_node`)."""
        for node in self.nodes:
            self.fail_node(node.node_id)

    def fail_node(self, node_id: int) -> int:
        """Crash a node, the one way to: end its incarnation
        (:meth:`~repro.recovery.lifecycle.NodeLifecycle.crash`), a
        recovery it is running, and its clients' sessions (each client
        process is interrupted, its in-flight operation abandoned).
        Detection is the fault injector's.  Returns the number of
        operations severed mid-flight, for the injector to account."""
        node = self.nodes[node_id]
        node.engine.crash()
        if node.recovery is not None and node.recovery.is_alive:
            node.recovery.interrupt("node crashed")
        severed = 0
        for client in self.clients:
            if (client.node.node_id == node_id
                    and client.process is not None
                    and client.process.is_alive):
                if client.in_flight is not None:
                    severed += 1
                client.process.interrupt("node crashed")
        return severed

    def restart_node(self, node_id: int):
        """Recover a crashed node (paper Section 9) in simulated time:
        rebuild it from its own durable image, have its peers settle
        what it left open there, let it catch up from the live ones
        (:mod:`repro.recovery.lifecycle`), then reconnect its clients
        (fresh sessions).  Returns the recovery process."""
        node = self.nodes[node_id]
        engine = node.engine
        image = recover_latest(self.nvm_log, [node_id]).entries
        # What its banks admitted before the crash lands after it, durable.
        for key, landing in engine.in_banks.items():
            if key not in image or image[key][0] < landing[0]:
                image[key] = landing
        engine.restart(image)
        peers = [self.nodes[peer].engine for peer in self.peers_of(node_id)]
        for peer in peers:
            peer.peer_restarted(node_id)
        # Its open transactions died with it, detected or not.
        self.txn_table.abandon_node(node_id)
        node.recovery = self.sim.process(
            self._serve_after(engine, image, peers), name=f"recover{node_id}")
        return node.recovery

    def _serve_after(self, engine, image, peers):
        try:
            yield from engine.catch_up(image, peers)
        except Interrupt:
            return  # crashed again: its next restart recovers it
        for client in self.clients:
            if client.node is engine:
                client.restart()

    @property
    def engines(self):
        return [node.engine for node in self.nodes]


def run_simulation(model: DdpModel, workload: WorkloadSpec,
                   config: Optional[ClusterConfig] = None,
                   duration_ns: float = 300_000.0,
                   warmup_ns: float = 30_000.0) -> Summary:
    """Build, run, and summarize one experiment.

    The defaults (300 us measured window after 30 us warmup) keep single
    runs fast while giving each of the 100 default clients on the order
    of a hundred completed requests under the fastest models.  To watch
    a run through observability sinks (see :mod:`repro.obs`), build the
    :class:`Cluster` with them, or call :func:`repro.obs.observed_run`.
    """
    cluster = Cluster(model, config=config, workload=workload)
    return cluster.run(duration_ns, warmup_ns)
