"""Crash recovery from the durable NVM images.

After a volatile-storage failure, each node's recoverable state is its
NVM image (scope-uncommitted entries excluded).  :func:`recover_latest`
takes the highest durable version of each key across the given nodes:
every model persists only versions that were really written, so the
newest one is the recovered one.  Over one node's log it is the image a
restart rebuilds that node from, over all of them the state the
persistency contracts are judged against.  How a restarted node then
catches up from its peers is :meth:`repro.recovery.lifecycle.
NodeLifecycle.catch_up`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.core.replica import Version, ZERO_VERSION
from repro.recovery.log import NvmLog

__all__ = ["RecoveredState", "recover_latest"]


@dataclass(frozen=True)
class RecoveredState:
    """Cluster state after recovery: key -> (version, value)."""

    entries: Dict[int, Tuple[Version, Any]]

    def version_of(self, key: int) -> Version:
        entry = self.entries.get(key)
        return entry[0] if entry is not None else ZERO_VERSION

    def value_of(self, key: int) -> Any:
        entry = self.entries.get(key)
        return entry[1] if entry is not None else None

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, key: int) -> bool:
        return key in self.entries


def recover_latest(log: NvmLog, node_ids) -> RecoveredState:
    """Highest durable version of every key across all nodes."""
    entries: Dict[int, Tuple[Version, Any]] = {}
    for key in log.all_keys():
        best: Optional[Tuple[Version, Any]] = None
        for node_id in node_ids:
            entry = log.durable_entry(node_id, key)
            if entry is None:
                continue
            if best is None or entry.version > best[0]:
                best = (entry.version, entry.value)
        if best is not None:
            entries[key] = best
    return RecoveredState(entries)
