"""A node's lifecycle, inherited by :class:`~repro.core.engine.ProtocolNode`:
what a crash ends, the restart and catch-up (paper Section 9), and what
the peers settle of what a lost node left open at them."""

from __future__ import annotations

import functools
from typing import Any, Dict, Generator, List, NamedTuple, Tuple

from repro.core.messages import CAUHIST_ENTRY_BYTES, VALUE_BYTES
from repro.core.replica import ZERO_VERSION, KeyReplica, ReplicaTable, Version

__all__ = ["NodeLifecycle", "TimeToServe"]


class TimeToServe(NamedTuple):
    """What a restart cost before the node served again (simulated ns):
    the scan of its NVM image, the catch-up, and the keys fetched."""

    scan_ns: float
    catch_up_ns: float
    fetched: int


class NodeLifecycle:
    """Crash, restart, catch-up and the peers' side of a lost node."""

    def crash(self) -> None:
        """Volatile-state failure: the incarnation's token,
        ``nic.incarnation``, goes.  The node sends and takes nothing, and
        what the incarnation scheduled (a landed message, a timer, a
        persist drain) carries the token and does nothing, also after a
        restart; a persist a bank admitted completes (ADR)."""
        self.nic.incarnation = None

    @property
    def alive(self) -> bool:
        """False between ``crash()`` and ``restart()``."""
        return self.nic.incarnation is not None

    def restart(self, recovered_entries: Dict[int, Tuple[Version, Any]]) -> None:
        """Begin a new incarnation, a shadow replica seeded from the
        node's durable image.

        ``recovered_entries`` is ``RecoveredState.entries`` from
        :func:`repro.recovery.recovery.recover_latest` over this node's
        NVM log, with the drain persists its banks still hold
        (``in_banks``): each surviving key is re-applied and marked
        persisted, here and cluster-wide (recovery finds it again after
        any crash), and the store, volatile too, is rebuilt from those
        keys alone, inserted in key order into an empty one.  All other volatile
        state — rounds, causal buffers, transient markers, txn
        bookkeeping — is discarded; the peers settle what it tracked
        (:meth:`peer_restarted`).  From here on the node takes and ACKs
        INV/UPD traffic; what it missed, :meth:`catch_up` fetches before
        it serves clients again.  Worker admissions abandoned by
        interrupted clients are reaped as grants reach them
        (:meth:`~repro.sim.sync.Resource.release`).
        """
        # Waits nobody will resume — stalls of interrupted clients,
        # handler continuations — go with the table, so that reference
        # counting frees it: each closes over its replica, a cycle.
        for replica in self.replicas:
            waiters = replica.waiters
            if waiters:
                waiters[:] = [(predicate, waiter) for predicate, waiter
                              in waiters if waiter.__class__ is not tuple
                              and waiter.callbacks]
        observer = self._replica_event if self.tracer.enabled else None
        self.replicas = ReplicaTable(self.sim, self.node_id,
                                     observer=observer)
        if self.store is not None:
            self.store.clear()
        self._outstanding_writes.clear()
        self._outstanding_rounds.clear()
        self._causal_waiting.clear()
        self._causal_waiting_count = 0
        self._txn_invs.clear()
        for key in sorted(recovered_entries):
            version, value = recovered_entries[key]
            replica = self.replicas.get(key)
            replica.apply(version, value)
            replica.mark_persisted(version, value)
            # Recoverable, so no reader need wait on its durability.
            replica.mark_cluster_persisted(version)
            replica.persist_requested = version
            if self.store is not None:
                self.store.put(key, value)
        self.nic.incarnation = object()

    def catch_up(self, image: Dict[int, Tuple[Version, Any]],
                 peers: List["NodeLifecycle"]) -> Generator:
        """Process: the recovery a restarted node runs before it serves
        again (paper Section 9), in simulated time, from its ``image``.

        1. *Scan*: one NVM read per durable key, all issued at once, so
           the reads queue per bank.
        2. *Digest exchange* with the live ``peers``, which answer for a
           key once it is not transient there (every version shipped is
           validated); the values where they differ cross.
        3. *Install* (:meth:`_adopt`): a peer's newer version goes
           through last-writer-wins, the store and the follower's
           persist placement, as an INV's or UPD's payload would; a
           version only this node's NVM kept goes to the peers likewise.

        Records :attr:`time_to_serve`; a crash meanwhile interrupts it.
        """
        sim, net, replicas = self.sim, self.network.config, self.replicas
        start = sim.now
        name = f"n{self.node_id}.scan"
        scans = [sim.process(self.memory.nvm_read(key), name=name)
                 for key in image]
        if scans:
            yield sim.all_of(scans)
        scanned = sim.now
        if self.tracer.enabled:
            self.tracer.emit(scanned, "recovery_scan", node=self.node_id,
                             dur=scanned - start, keys=len(image))
        yield (net.one_way_ns
               + len(image) * CAUHIST_ENTRY_BYTES / net.bandwidth_bytes_per_ns)
        answers: Dict[int, Tuple[Version, Any, Version]] = {}
        waits = []
        for peer in peers:
            if peer.alive:
                for theirs in peer.replicas:
                    answer = functools.partial(_answer, theirs, answers)
                    if not answer():
                        waits.append(theirs.wait_for(answer))
        if waits:
            yield sim.all_of(waits)
        differ = []
        fetched = 0
        for key in sorted(answers.keys() | image.keys()):
            mine = replicas.peek(key)
            version, _value, durable = answers.get(key, _NO_ANSWER)
            fetched += version > mine.applied_version
            if (version != mine.applied_version
                    or durable > mine.cluster_persisted_version):
                differ.append(key)
        yield (net.one_way_ns
               + len(differ) * VALUE_BYTES / net.bandwidth_bytes_per_ns)
        for key in differ:
            version, value, durable = answers.get(key, _NO_ANSWER)
            kept = image.get(key)
            if kept is not None and kept[0] > version:
                for peer in peers:
                    if peer.alive:
                        peer._adopt(key, *kept, kept[0])
            else:
                self._adopt(key, version, value, durable)
        self.time_to_serve = TimeToServe(scanned - start, sim.now - scanned,
                                         fetched)
        if self.tracer.enabled:
            self.tracer.emit(sim.now, "recovery_catch_up", node=self.node_id,
                             dur=sim.now - scanned, fetched=fetched)

    def peer_restarted(self, node_id: int) -> None:
        """A peer came back without its volatile state — also one whose
        crash no failure detector saw, so what its old incarnation left
        open here is still open: rounds waiting for its ACK to an INV it
        lost, invalidations it will never validate.  They are settled as
        a detected crash settles them, unless detection already did (the
        membership has not re-admitted the peer yet); rounds launched
        from now on include the peer again."""
        if self.alive and (self.membership is None
                            or node_id in self.membership.live):
            self._settle_lost_peer(
                node_id, [peer for peer in self.peer_ids if peer != node_id])

    def _settle_lost_peer(self, node_id: int, live) -> None:
        """Re-issue every outstanding round against the ``live`` replica
        set, counting the open ones that shrank, and release transient
        state left behind by ``node_id`` as a coordinator."""
        for op_id in sorted(self._outstanding_writes):
            op = self._outstanding_writes[op_id]
            for round_ in (op.ack_c, op.ack_p):
                if round_ is not None:
                    self.rounds_retargeted += round_.retarget(live)
        for op_id in sorted(self._outstanding_rounds):
            self.rounds_retargeted += (
                self._outstanding_rounds[op_id].retarget(live))
        self._abandon_remote_coordinator(node_id)

    def _abandon_remote_coordinator(self, crashed: int) -> None:
        """Follower-side cleanup when a coordinator dies: release every
        transient invalidation it left (its origin is the op id's low
        bits), so nobody waits for VALs that will never come.  The
        applied value stays (all live replicas took the INV).  Under
        dual ACKs the VAL_p will not come either, so the follower
        persists the value and settles cluster durability itself.  The
        dead node's transactions leave this node's bookkeeping; the
        injector cleans the shared table up once."""
        for key in sorted(self.replicas.keys()):
            replica = self.replicas.peek(key)
            if not replica.transient:
                continue
            orphaned = [op_id for op_id in sorted(replica.inflight_invs)
                        if op_id % 1024 == crashed]
            for op_id in orphaned:
                replica.abandon_inv(op_id)
            if orphaned and self.ppolicy.dual_acks:
                self.orphans_absorbed += 1
                self.sim.process(self._absorb_orphan(replica),
                                 name=self._pname["orphan"])
        for txn_id in sorted(self._txn_invs):
            entries = self._txn_invs[txn_id]
            if any(op_id % 1024 == crashed for _key, op_id in entries):
                del self._txn_invs[txn_id]

    def _absorb_orphan(self, replica: KeyReplica) -> Generator:
        """Persist an orphaned applied value and settle its durability
        signal locally (the dead coordinator's VAL_p never arrives)."""
        version, value = replica.applied_version, replica.applied_value
        yield from self._ensure_persisted(replica, version, value,
                                          trigger="eager")
        replica.mark_cluster_persisted(version)

    def _adopt(self, key: int, version: Version, value: Any,
               durable: Version = ZERO_VERSION) -> None:
        """Install a version another replica holds, outside any round
        (see :meth:`catch_up`), as :meth:`_install` installs an INV's or
        UPD's payload, with ``durable`` the newest version known durable
        everywhere."""
        replica = self.replicas.get(key)
        replica.mark_cluster_persisted(durable)
        took = version > replica.applied_version
        self._take(replica, version, value)
        if took:
            # Where a Strict UPD's follower persists on receipt, before
            # the deposit its placement is asked at, the install
            # persists as the coordinator does.
            self._place_persist(replica, version, value,
                                self._follower_places[False]
                                or self._coordinator_places[0])
            if self.cpolicy.causal and key in self._causal_waiting:
                self.sim.process(self._recheck_causal_waiters(key),
                                 name=self._pname["crecheck"])


def _answer(theirs: KeyReplica,
            answers: Dict[int, Tuple[Version, Any, Version]]) -> bool:
    """A peer's digest answer for one key (see ``catch_up``): once the
    key is not transient there, fold its state into ``answers`` and
    return True.  A predicate, so the catch-up waits on it."""
    if theirs.transient:
        return False
    version, value, durable = answers.get(theirs.key, _NO_ANSWER)
    if theirs.applied_version > version:
        version, value = theirs.applied_version, theirs.applied_value
    answers[theirs.key] = (version, value,
                           max(durable, theirs.cluster_persisted_version))
    return True


_NO_ANSWER = (ZERO_VERSION, None, ZERO_VERSION)
