"""The durable NVM image of each node.

:class:`NvmLog` is the recovery system's view of what each node's NVM
contains: the latest persisted (key, version, value) per key, plus scope
commit markers.  The protocol engine records into it at each persist
completion; :mod:`repro.recovery.recovery` reads it back after a crash.

Scope persistency semantics (paper Section 2.2): on a volatile-storage
failure "the state of all the completed scopes is recovered, and that of
those partially executed is discarded" — so entries tagged with a scope
id are recoverable only if that scope's commit marker was written.
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple, Optional, Set

from repro.core.replica import Version, ZERO_VERSION

__all__ = ["DurableEntry", "NvmLog"]


class DurableEntry(NamedTuple):
    """One persisted update in a node's NVM.  A tuple, because every
    persist records one: immutable, built without a Python-level
    ``__init__`` and its four frozen-field ``__setattr__`` calls."""

    key: int
    version: Version
    value: Any
    scope_id: Optional[int] = None


class NvmLog:
    """Durable state of the whole cluster, one image per node.

    Scope-tagged persists follow redo-log semantics: the entry lands in a
    per-scope staging area and only becomes part of the recoverable image
    once the scope's commit marker is written.  A crash between the data
    persists and the commit therefore discards the partial scope without
    damaging earlier committed state, as the paper requires.
    """

    def __init__(self, node_ids):
        self._images: Dict[int, Dict[int, DurableEntry]] = {
            node_id: {} for node_id in node_ids}
        self._pending_scopes: Dict[int, Dict[int, Dict[int, DurableEntry]]] = {
            node_id: {} for node_id in node_ids}
        self._committed_scopes: Dict[int, Set[int]] = {
            node_id: set() for node_id in node_ids}
        self.total_records = 0

    # -- written by the protocol engine ------------------------------------------

    def record(self, node_id: int, key: int, version: Version, value: Any,
               scope_id: Optional[int] = None) -> None:
        """Persist completion at ``node_id`` for (key, version)."""
        self.total_records += 1
        entry = DurableEntry(key, version, value, scope_id)
        if scope_id is not None:
            self._pending_scopes[node_id].setdefault(scope_id, {})[key] = entry
            return
        self._install(node_id, entry)

    def _install(self, node_id: int, entry: DurableEntry) -> None:
        image = self._images[node_id]
        current = image.get(entry.key)
        if current is None or entry.version > current.version:
            image[entry.key] = entry

    def commit_scope(self, node_id: int, scope_id: int) -> None:
        """All of a scope's writes are durable at ``node_id``: write the
        commit marker and fold the staged entries into the image."""
        self._committed_scopes[node_id].add(scope_id)
        staged = self._pending_scopes[node_id].pop(scope_id, {})
        for entry in staged.values():
            self._install(node_id, entry)

    # -- read by the recovery system -----------------------------------------------

    def durable_entry(self, node_id: int, key: int) -> Optional[DurableEntry]:
        """The recoverable entry for ``key`` at ``node_id`` (staged entries
        of uncommitted scopes are invisible)."""
        return self._images[node_id].get(key)

    def durable_keys(self, node_id: int) -> List[int]:
        return list(self._images[node_id])

    def durable_version(self, node_id: int, key: int) -> Version:
        entry = self.durable_entry(node_id, key)
        return entry.version if entry is not None else ZERO_VERSION

    def is_scope_committed(self, node_id: int, scope_id: int) -> bool:
        return scope_id in self._committed_scopes[node_id]

    def all_keys(self) -> Set[int]:
        keys: Set[int] = set()
        for image in self._images.values():
            keys.update(image)
        return keys
