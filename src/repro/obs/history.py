"""Client-observed operation histories (the ``repro.history/1`` artifact).

The black-box contract auditor (:mod:`repro.audit`) judges a run purely
from what its clients observed: every operation recorded as
``(client session, key, op, args, invoke_us, respond_us, result)``.
:class:`HistoryRecorder` is the bounded, deterministic recorder attached
at the workload/client boundary that captures exactly that.

Design rules (the same attachment discipline as every other sink in
:mod:`repro.obs`):

* **pure observation** — the recorder never touches the simulator: no
  events, no timeouts, no RNG draws.  A run with a recorder attached is
  byte-identical to a run without one (asserted by
  ``tests/obs/test_tracing_equivalence.py``).
* **invoke/complete bracketing** — clients register an operation when
  they issue it and complete it when the protocol acknowledges it.  An
  operation that is never completed — the client was severed by a node
  crash, or the run ended first — stays *pending* (``respond_us=None``):
  it may or may not have taken effect, and the audit checkers treat it
  exactly that way.
* **sessions** — a crash-restart of the client's node opens a fresh
  session (matching :meth:`repro.workload.client.Client.restart`).  The
  node caught up from its peers before the session began, so every
  session is judged alike.
* **bounded** — at most :data:`MAX_OPS` operations are kept; beyond that
  the recorder counts drops and the history is *truncated* (the audit
  engine refuses to produce verdicts from a truncated history).

Serialization is JSONL: a header line with the schema, run metadata and
the post-run recovered durable state, then one line per operation.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional

from repro.core.replica import Version, ZERO_VERSION
from repro.obs.schemas import HISTORY_SCHEMA

__all__ = ["HISTORY_SCHEMA", "HistoryOpRecord", "History",
           "HistoryRecorder", "recovered_from_cluster", "write_history",
           "load_history"]

MAX_OPS = 1_000_000
"""Operations a recorder keeps; later ones are counted in ``dropped``."""


@dataclass
class HistoryOpRecord:
    """One client-observed operation.

    ``version`` is the operation's value *token*: the Lamport-style
    ``(seq, node_id)`` version the read observed or the write was
    assigned.  Client payload values are not unique (each client counts
    its own writes), so the checkers key on versions instead, Jepsen's
    unique-write-value trick done with data the protocol already has.

    ``respond_us=None`` marks a pending operation; ``severed`` tells a
    crash-severed pending op apart from one merely cut off by the end of
    the run.  ``ok=False`` marks an operation that failed cleanly (its
    transaction was squashed mid-access): it neither took effect nor
    observed anything.  ``committed`` carries a transaction attempt's or
    scope-persist's outcome: True/False, or None while unknown (severed
    mid-commit).
    """

    index: int
    client: int
    session: int
    node: int
    op: str                      # "read" | "write" | "persist"
    key: Optional[int]
    value: Any                   # written payload, or the value a read returned
    invoke_us: float
    respond_us: Optional[float] = None
    version: Optional[Version] = None
    txn_id: Optional[int] = None
    committed: Optional[bool] = None
    scope_id: Optional[int] = None
    severed: bool = False
    ok: bool = True

    @property
    def pending(self) -> bool:
        return self.respond_us is None and self.ok


@dataclass
class History:
    """A recorded (or loaded) history plus everything the audit needs."""

    meta: Dict[str, Any]
    ops: List[HistoryOpRecord]
    recovered: Dict[str, Any]
    """``{"merged": {key: {"version": [s, n], "value": v}},
    "per_node": {node: {key: ...}}}`` — durable state recovered after
    the run (empty when recovery was not captured)."""
    dropped: int = 0

    @property
    def truncated(self) -> bool:
        return self.dropped > 0

    def recovered_versions(self) -> Dict[int, Version]:
        """Merged recovered state as ``{key: version}`` tuples."""
        merged = self.recovered.get("merged", {}) if self.recovered else {}
        out: Dict[int, Version] = {}
        for key, entry in merged.items():
            version = entry.get("version") if isinstance(entry, dict) else None
            if version is not None:
                out[int(key)] = (int(version[0]), int(version[1]))
        return out


class HistoryRecorder:
    """Bounded deterministic recorder of client-observed operations.

    One instance per run; clients call :meth:`invoke` / :meth:`complete`
    / :meth:`fail` around each operation (a closed-loop client has at
    most one operation in flight, so the open op is keyed by client id).
    """

    def __init__(self):
        # Bound by the Cluster the recorder is passed to.
        self.sim = None
        self.ops: List[HistoryOpRecord] = []
        self.dropped = 0
        self.meta: Dict[str, Any] = {}
        self.recovered: Dict[str, Any] = {}
        self._open: Dict[int, HistoryOpRecord] = {}
        self._sessions: Dict[int, int] = {}
        self._txn_ops: Dict[int, List[HistoryOpRecord]] = {}
        self.severed_ops = 0

    def __len__(self) -> int:
        return len(self.ops)

    @property
    def truncated(self) -> bool:
        return self.dropped > 0

    # -- recording ----------------------------------------------------------

    def invoke(self, client: int, node: int, op: str, key: Optional[int],
               value: Any = None, txn_id: Optional[int] = None,
               scope_id: Optional[int] = None) -> None:
        """Register an operation at issue time."""
        if len(self.ops) >= MAX_OPS:
            self.dropped += 1
            self._open.pop(client, None)
            return
        record = HistoryOpRecord(
            index=len(self.ops), client=client,
            session=self._sessions.get(client, 0), node=node, op=op,
            key=key, value=value, invoke_us=self.sim.now / 1000.0,
            txn_id=txn_id, scope_id=scope_id)
        self.ops.append(record)
        self._open[client] = record
        if txn_id is not None:
            self._txn_ops.setdefault(txn_id, []).append(record)

    def complete(self, client: int, version: Optional[Version] = None,
                 value: Any = None,
                 committed: Optional[bool] = None) -> None:
        """Acknowledge the client's open operation."""
        record = self._open.pop(client, None)
        if record is None:
            return
        record.respond_us = self.sim.now / 1000.0
        if version is not None:
            record.version = version
        if value is not None:
            record.value = value
        if committed is not None:
            record.committed = committed

    def fail(self, client: int) -> None:
        """The open operation failed cleanly (transaction squash): it
        neither took effect nor observed anything."""
        record = self._open.pop(client, None)
        if record is None:
            return
        record.respond_us = self.sim.now / 1000.0
        record.ok = False

    def sever(self, client: int) -> None:
        """The client was cut off mid-operation by a node crash; its
        open operation stays pending, flagged as crash-severed."""
        record = self._open.pop(client, None)
        if record is None:
            return
        record.severed = True
        self.severed_ops += 1

    def set_txn_outcome(self, txn_id: int, committed: bool) -> None:
        """Stamp every recorded op of a transaction attempt with its
        outcome (ops completed before the attempt's fate was known)."""
        for record in self._txn_ops.pop(txn_id, []):
            record.committed = committed

    def restart_session(self, client: int) -> None:
        """The client reconnected after its node crash-restarted: new
        session."""
        self._sessions[client] = self._sessions.get(client, 0) + 1

    # -- finishing ----------------------------------------------------------

    def finalize(self) -> None:
        """Close recording: any still-open operation stays pending
        (the run ended around it)."""
        self._open.clear()

    def history(self) -> History:
        return History(meta=dict(self.meta), ops=list(self.ops),
                       recovered=dict(self.recovered), dropped=self.dropped)


def recovered_from_cluster(cluster) -> Dict[str, Any]:
    """Capture the post-run durable state the persistency contracts are
    judged against: what NVM recovery would yield, per node and merged.

    Runs after the simulation has stopped and only *reads* the durable
    log, so it cannot perturb the run it observes.
    """
    from repro.recovery.recovery import recover_latest

    node_ids = list(range(cluster.config.servers))

    def entries_json(entries) -> Dict[str, Any]:
        return {str(key): {"version": list(version), "value": value}
                for key, (version, value) in sorted(entries.items())}

    per_node = {
        str(node_id): entries_json(
            recover_latest(cluster.nvm_log, [node_id]).entries)
        for node_id in node_ids
    }
    merged = entries_json(recover_latest(cluster.nvm_log, node_ids).entries)
    return {"merged": merged, "per_node": per_node}


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def write_history(path: str, history: History) -> None:
    """Serialize to JSONL: one header line, then one line per op."""
    header = {
        "schema": HISTORY_SCHEMA,
        "meta": history.meta,
        "ops": len(history.ops),
        "dropped": history.dropped,
        "truncated": history.truncated,
        "initial_version": list(ZERO_VERSION),
        "recovered": history.recovered,
    }
    with open(path, "w") as fh:
        json.dump(header, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
        for op in history.ops:
            doc = asdict(op)
            if doc["version"] is not None:
                doc["version"] = list(doc["version"])
            json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
            fh.write("\n")


def load_history(path: str) -> History:
    """Load a ``repro.history/1`` JSONL artifact.

    Raises :class:`ValueError` on anything that is not one.
    """
    with open(path) as fh:
        first = fh.readline()
        if not first.strip():
            raise ValueError(f"{path}: empty file")
        try:
            header = json.loads(first)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not JSONL ({exc})") from exc
        if not isinstance(header, dict) \
                or header.get("schema") != HISTORY_SCHEMA:
            raise ValueError(f"{path}: not a {HISTORY_SCHEMA} artifact")
        ops: List[HistoryOpRecord] = []
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            try:
                doc = json.loads(line)
                version = doc.get("version")
                ops.append(HistoryOpRecord(
                    index=int(doc["index"]), client=int(doc["client"]),
                    session=int(doc.get("session", 0)),
                    node=int(doc["node"]), op=str(doc["op"]),
                    key=None if doc.get("key") is None else int(doc["key"]),
                    value=doc.get("value"),
                    invoke_us=float(doc["invoke_us"]),
                    respond_us=(None if doc.get("respond_us") is None
                                else float(doc["respond_us"])),
                    version=(None if version is None
                             else (int(version[0]), int(version[1]))),
                    txn_id=doc.get("txn_id"),
                    committed=doc.get("committed"),
                    scope_id=doc.get("scope_id"),
                    severed=bool(doc.get("severed", False)),
                    ok=bool(doc.get("ok", True))))
            except (ValueError, TypeError, LookupError, AttributeError) as exc:
                raise ValueError(
                    f"{path}:{lineno}: bad op line ({exc!r})") from exc
    declared = header.get("ops")
    if isinstance(declared, int) and declared != len(ops):
        raise ValueError(f"{path}: header declares {declared} ops but "
                         f"{len(ops)} lines follow")
    return History(meta=dict(header.get("meta", {})), ops=ops,
                   recovered=dict(header.get("recovered", {}) or {}),
                   dropped=int(header.get("dropped", 0)))
