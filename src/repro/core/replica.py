"""Per-key replica state kept by every node.

Every node holds a replica of every key (full replication, as in Hermes
and the paper).  For each key a node tracks:

* the *visible* version/value (what a read may return, subject to the
  DDP model's stall rules),
* the *persisted* version (highest version durable in local NVM),
* in-flight invalidations (INV received but VAL not yet seen), which
  make the key *transient* under invalidation-based consistency models,
* buffered causal updates waiting for their happens-before history,
* the pre-images of its in-flight transactional writes, and the stalls
  waiting for any of the above to change.

A key pays only for what its run uses.  A key this node has only read
has no :class:`KeyReplica` at all: the table maps it to one shared,
inert stand-in that reads as never written (:data:`NEVER_WRITTEN`), and
the first mutation — an apply, an INV, a persist request, an undo or a
wait — builds the real replica in its place.  Within a replica the wait
queue (a :class:`~repro.sim.sync.Condition`) is built when something
first waits on the key, the invalidation set at the key's first INV
(and dropped again when its last INV ends) and the undo log at its first
transactional write.  Until then the replica reads as idle — not
transient, nothing to undo, nobody to wake — which is exactly what the
empty containers would say.

Versions are Lamport-style ``(seq, node_id)`` tuples: ``seq`` is one
more than the highest sequence the coordinator has seen for the key, and
``node_id`` breaks ties, giving all nodes the same total order over
concurrent writes to a key (as in Hermes' logical timestamps).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.sim.engine import Simulator
from repro.sim.sync import Condition

__all__ = ["Version", "ZERO_VERSION", "KeyReplica", "NEVER_WRITTEN",
           "ReplicaTable"]

Version = Tuple[int, int]
ZERO_VERSION: Version = (0, -1)


class KeyReplica:
    """State of one key at one node.

    The three containers a key may never need are private slots, built
    on first use: ``condition`` by the first wait, ``inflight_invs`` by
    the first :meth:`begin_inv`, ``txn_undo`` by the first
    :meth:`record_undo`.  Reading one of the public names builds it if
    needed and returns the live object; the state transitions read the
    slots, so a key that is only read and written builds none of them.
    """

    __slots__ = (
        "sim", "key", "persisted_version", "persisted_value",
        "cluster_persisted_version", "applied_version", "applied_value",
        "_invs", "_condition", "persist_requested",
        "persist_target", "persist_active", "_undo", "observer",
    )

    def __init__(self, sim: Simulator, key: int, observer=None):
        self.sim = sim
        self.key = key
        # Optional callback ``observer(kind, key, version)`` fired on
        # "apply" and "persist" advances — the hook the VP/DP measurement
        # (repro.obs.journey) attaches to.
        self.observer = observer
        # Highest version applied to the local volatile hierarchy — "the
        # latest version in the volatile memory hierarchy" reads return
        # (subject to the DDP model's stall and value-selection rules).
        self.applied_version: Version = ZERO_VERSION
        self.applied_value: Any = None
        # Highest version durable in *local* NVM, and its value (reads
        # under <Causal/Eventual, Synchronous> return this).
        self.persisted_version: Version = ZERO_VERSION
        self.persisted_value: Any = None
        # Highest version known durable at *all* replicas (learned from
        # VAL_p under Read-Enforced persistency).
        self.cluster_persisted_version: Version = ZERO_VERSION
        # op_ids of INVs applied but not yet VALidated (key is transient).
        self._invs: Optional[Set[int]] = None
        # Wakes read/write stalls when any of the above changes.
        self._condition: Optional[Condition] = None
        # Persist write-combining state: the highest version ever asked to
        # persist, the latest not-yet-started (version, value) target (the
        # memory controller's write-pending slot for this key), and
        # whether a persist loop is currently draining this key.
        self.persist_requested: Version = ZERO_VERSION
        self.persist_target: Optional[Tuple[Version, Any]] = None
        self.persist_active = False
        # Pre-images of in-flight transactional writes, keyed by the
        # writing version, so a squashed transaction can be undone
        # ("if the Xaction fails, none of the updates are performed").
        self._undo: Optional[Dict[Version, Tuple[Version, Any]]] = None

    # -- lazily built containers -----------------------------------------------

    @property
    def condition(self) -> Condition:
        """The key's wait queue; waiting on it is what builds it."""
        if self._condition is None:
            self._condition = Condition(self.sim)
        return self._condition

    @property
    def inflight_invs(self) -> Set[int]:
        if self._invs is None:
            self._invs = set()
        return self._invs

    @property
    def txn_undo(self) -> Dict[Version, Tuple[Version, Any]]:
        if self._undo is None:
            self._undo = {}
        return self._undo

    @property
    def waiters(self) -> List[tuple]:
        """The parked ``(predicate, waiter)`` pairs, without building a
        wait queue for a key nobody has waited on."""
        condition = self._condition
        return condition.waiters if condition is not None else []

    # -- state transitions -----------------------------------------------------

    def next_version(self, node_id: int) -> Version:
        """Allocate the version for a new local write of this key."""
        return (self.applied_version[0] + 1, node_id)

    def apply(self, version: Version, value: Any) -> bool:
        """Install an update into the volatile hierarchy.

        Returns True if the update advanced the applied version (older
        updates arriving late are ignored, last-writer-wins).
        """
        if version <= self.applied_version:
            return False
        self.applied_version = version
        self.applied_value = value
        condition = self._condition
        if condition is not None and condition.waiters:
            condition.notify()
        if self.observer is not None:
            self.observer("apply", self.key, version)
        return True

    def mark_persisted(self, version: Version, value: Any) -> bool:
        """Record that ``version`` is durable in local NVM."""
        if version <= self.persisted_version:
            return False
        self.persisted_version = version
        self.persisted_value = value
        condition = self._condition
        if condition is not None and condition.waiters:
            condition.notify()
        if self.observer is not None:
            self.observer("persist", self.key, version)
        return True

    def mark_cluster_persisted(self, version: Version) -> bool:
        """Record that ``version`` is durable at every replica node."""
        if version <= self.cluster_persisted_version:
            return False
        self.cluster_persisted_version = version
        condition = self._condition
        if condition is not None and condition.waiters:
            condition.notify()
        return True

    def record_undo(self, version: Version) -> None:
        """Snapshot the pre-image before a transactional write applies."""
        pre_image = (self.applied_version, self.applied_value)
        if self._undo is None:
            self._undo = {version: pre_image}
        else:
            self._undo[version] = pre_image

    def commit_undo(self, version: Version) -> None:
        """The write's transaction committed; the pre-image is obsolete."""
        if self._undo is not None:
            self._undo.pop(version, None)

    def absorb_superseded(self, version: Version, value: Any) -> None:
        """A write lost the last-writer-wins race against a pending
        transactional write: fold it into that write's pre-image, so a
        later abort restores the *newest* superseded state instead of
        resurrecting an older one."""
        undo = self._undo
        if not undo:
            return
        pre_image = undo.get(self.applied_version)
        if pre_image is not None and pre_image[0] < version:
            undo[self.applied_version] = (version, value)

    def revert(self, version: Version) -> bool:
        """Undo a squashed transactional write, if still in effect."""
        undo = self._undo
        pre_image = undo.pop(version, None) if undo else None
        if pre_image is None or self.applied_version != version:
            return False
        self.applied_version, self.applied_value = pre_image
        condition = self._condition
        if condition is not None and condition.waiters:
            condition.notify()
        return True

    def begin_inv(self, op_id: int) -> None:
        if self._invs is None:
            self._invs = {op_id}
        else:
            self._invs.add(op_id)

    def end_inv(self, op_id: int) -> None:
        """The INV ``op_id`` is validated; the key's last outstanding
        INV takes the invalidation set with it."""
        invs = self._invs
        if invs is not None:
            invs.discard(op_id)
            if not invs:
                self._invs = None
        condition = self._condition
        if condition is not None and condition.waiters:
            condition.notify()

    def abandon_inv(self, op_id: int) -> None:
        """End an outstanding INV whose coordinator crashed.  Unlike
        :meth:`end_inv` it leaves the emptied set in place: the crash
        paths change no key's containers."""
        self._invs.discard(op_id)
        condition = self._condition
        if condition is not None and condition.waiters:
            condition.notify()

    @property
    def transient(self) -> bool:
        """True while any invalidation is outstanding on this key."""
        return bool(self._invs)

    def __repr__(self) -> str:
        return (f"KeyReplica(key={self.key}, "
                f"applied={self.applied_version}, "
                f"persisted={self.persisted_version}, "
                f"cluster_persisted={self.cluster_persisted_version}, "
                f"transient={self.transient})")


class _NeverWritten:
    """The state of a key this node has only read: every version zero,
    no value, idle.  One instance, :data:`NEVER_WRITTEN`, stands in for
    all such keys; it reads like a fresh :class:`KeyReplica` and refuses
    every mutation, which must go through :meth:`ReplicaTable.get`."""

    __slots__ = ()

    # What the read-only lookups read (a read, a causal dependency
    # check, the crash orphan scan, the sanitizer's digest).
    applied_version = persisted_version = ZERO_VERSION
    cluster_persisted_version = ZERO_VERSION
    applied_value = persisted_value = None
    transient = False

    def _refuse(self, *_args: Any) -> Any:
        raise TypeError("a never-written key's stand-in holds no state: "
                        "mutate the replica ReplicaTable.get builds")

    apply = mark_persisted = mark_cluster_persisted = _refuse
    record_undo = commit_undo = absorb_superseded = revert = _refuse
    begin_inv = end_inv = abandon_inv = next_version = _refuse
    condition = inflight_invs = txn_undo = property(_refuse)

    def __repr__(self) -> str:
        return "NEVER_WRITTEN"


#: The stand-in for every key a node has read but never changed.
NEVER_WRITTEN = _NeverWritten()


class ReplicaTable:
    """All keys one node has seen, by key: a key that holds state maps
    to its :class:`KeyReplica`, a key that was only read to
    :data:`NEVER_WRITTEN`."""

    def __init__(self, sim: Simulator, node_id: int, observer=None):
        self.sim = sim
        self.node_id = node_id
        self.observer = observer
        self._replicas: Dict[int, Any] = {}

    def get(self, key: int) -> KeyReplica:
        """The key's replica, built if the key holds no state yet: what
        every mutation asks for."""
        replica = self._replicas.get(key, NEVER_WRITTEN)
        if replica is NEVER_WRITTEN:
            replica = KeyReplica(self.sim, key, observer=self.observer)
            self._replicas[key] = replica
        return replica

    def peek(self, key: int) -> KeyReplica:
        """The key's replica, or :data:`NEVER_WRITTEN` if it holds no
        state: what a read-only lookup asks for.  An unseen key joins
        the table, as it would by ``get``, so the table's keys do not
        depend on which of the two a node used.  The stand-in does not
        follow later writes: to watch a key change, hold what ``get``
        returns."""
        return self._replicas.setdefault(key, NEVER_WRITTEN)

    def __contains__(self, key: int) -> bool:
        return key in self._replicas

    def __iter__(self):
        """The replicas of the keys that hold state (never the
        stand-in)."""
        return (replica for replica in self._replicas.values()
                if replica is not NEVER_WRITTEN)

    def __len__(self) -> int:
        return len(self._replicas)

    def keys(self) -> List[int]:
        return list(self._replicas)
