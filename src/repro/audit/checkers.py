"""Black-box consistency checkers over recorded client histories.

Each checker judges one consistency model purely from what the clients
observed (:class:`repro.obs.history.History`) — no access to protocol
internals.  The common currency is the *version token*: the Lamport
``(seq, node_id)`` version a write was assigned and a read observed.
Client payload values are not unique, so tokens play the role of
Jepsen's unique write values.

Checker soundness contract
--------------------------

Every checker is an *under-approximation*: it never reports a violation
a correct implementation of its model could produce.  Observations it
cannot attribute unambiguously — reads of versions minted by a pending
(crash-severed) write, of versions with several candidate writers
(post-crash counter rewind), or of versions written by aborted
transaction attempts — are excluded from the strong constraints and
counted in the checker's stats instead of guessed at.

A session a client opens after its node restarted is judged like any
other: the node caught up from its peers before the client reconnected
(:mod:`repro.recovery.lifecycle`).

The linearizability checker
---------------------------

Wing & Gong search (:mod:`repro.analysis.linearizability`) is
exponential in concurrency width; measured on this simulator a
200-op/16-client history already costs tens of seconds.  Because tokens
are unique per key (duplicates are detected and handled by exclusion),
the audit uses a polynomial formulation instead:

* Group each write ``w`` with the completed reads that observed its
  token into a *cluster*; add a virtual initial-state cluster for reads
  of ``ZERO_VERSION``.
* Per cluster compute ``lo`` = the earliest respond time of any member
  and ``hi`` = the latest invoke time of any member.
* The history is linearizable iff the constraint relation
  ``c1 -> c2  whenever  lo(c1) < hi(c2)`` (plus "initial state first")
  is acyclic.  Each such edge is a real obligation: some member of
  ``c1`` completed before some member of ``c2`` was invoked, which
  forces ``write(c1)`` before ``write(c2)`` in any linearization; and
  conversely a topological order of the clusters yields a legal
  linearization.  The quadratic edge set is encoded in near-linear size
  with a milestone chain over clusters sorted by ``lo``.

On a cycle the involved clusters' operations form the violation
witness; small witnesses are additionally shrunk through the exact
Wing & Gong checker.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

from repro.core.contracts import CheckResult
from repro.core.replica import Version, ZERO_VERSION
from repro.obs.history import History, HistoryOpRecord

__all__ = ["CheckResult", "PreparedHistory", "check_no_phantom",
           "check_linearizable", "check_read_enforced",
           "check_transactional", "check_causal", "check_eventual",
           "CONSISTENCY_CHECKERS"]

#: Cycle witnesses at most this large are shrunk via Wing & Gong.
_SHRINK_CAP_OPS = 40
_NEG_INF = float("-inf")


class PreparedHistory:
    """Shared per-history indexes the checkers work from."""

    def __init__(self, history: History):
        self.history = history
        self.ops = history.ops
        # Transaction attempt outcomes as stamped by the recorder:
        # True committed, False squashed, None unknown (severed).
        self.txn_outcome: Dict[int, Optional[bool]] = {}
        self.completed_reads: List[HistoryOpRecord] = []
        self.completed_writes: List[HistoryOpRecord] = []
        self.pending_ops = 0
        # token (key, version) -> every effective write that carries it.
        self.writes_by_token: Dict[Tuple[Optional[int], Version],
                                   List[HistoryOpRecord]] = {}
        # Keys with a pending write whose version was never learned: a
        # read of an unmatched token on such a key may have observed
        # that write, so unmatched tokens there are not phantoms.
        self.unknown_token_keys: set = set()
        self.committed_scopes: set = set()
        for op in self.ops:
            if not op.ok:
                continue
            if op.txn_id is not None:
                if op.committed is not None:
                    self.txn_outcome[op.txn_id] = op.committed
                else:
                    self.txn_outcome.setdefault(op.txn_id, None)
            if op.respond_us is None:
                self.pending_ops += 1
            if op.op == "write":
                if op.version is None:
                    self.unknown_token_keys.add(op.key)
                else:
                    self.writes_by_token.setdefault(
                        (op.key, tuple(op.version)), []).append(op)
                if op.respond_us is not None:
                    self.completed_writes.append(op)
            elif op.op == "read":
                if op.respond_us is not None:
                    self.completed_reads.append(op)
            elif (op.op == "persist" and op.respond_us is not None
                    and op.committed):
                # A client's scope ids are unique across its sessions,
                # but histories recorded before that held could reuse a
                # completed pre-crash id after a restart; qualify by
                # session so such a history's stale verdict cannot leak.
                self.committed_scopes.add((op.client, op.session,
                                           op.scope_id))
        self.recovered = history.recovered_versions()
        self.recovered_captured = bool(history.recovered)

    def write_effect(self, op: HistoryOpRecord) -> Optional[bool]:
        """Did this write take effect?  True / False / None (unknown)."""
        if op.txn_id is not None:
            return self.txn_outcome.get(op.txn_id)
        return True if op.respond_us is not None else None

    def version_effect(self, key: Optional[int],
                       version: Version) -> Optional[bool]:
        """Effect status of a token: True iff every writer of it took
        effect, False iff every writer was squashed, else None
        (unmatched, pending, or ambiguous)."""
        writers = self.writes_by_token.get((key, version))
        if not writers:
            return None
        effects = [self.write_effect(w) for w in writers]
        if all(e is True for e in effects):
            return True
        if all(e is False for e in effects):
            return False
        return None

    def observation_effect(self, op: HistoryOpRecord) -> Optional[bool]:
        """Effect status of the version a completed read observed
        (reads of the initial state count as committed)."""
        version = tuple(op.version)
        if version == ZERO_VERSION:
            return True
        return self.version_effect(op.key, version)


# ---------------------------------------------------------------------------
# shared: phantom reads
# ---------------------------------------------------------------------------

def check_no_phantom(prep: PreparedHistory) -> CheckResult:
    """Every observed version was produced by some recorded write, and
    not before that write was invoked.  Applies to all 25 models."""
    res = CheckResult("no_phantom")
    skipped = 0
    for op in prep.completed_reads:
        if op.version is None:
            continue
        version = tuple(op.version)
        if version == ZERO_VERSION:
            continue
        res.checked += 1
        writers = prep.writes_by_token.get((op.key, version))
        if not writers:
            if op.key in prep.unknown_token_keys:
                skipped += 1
                continue
            res.violate(
                "phantom-read",
                f"read of key {op.key} observed version {version} that "
                f"no write produced", (op,))
            continue
        if all(w.invoke_us > op.respond_us for w in writers):
            if op.key in prep.unknown_token_keys:
                # A version-unknown pending write on this key may have
                # produced the token before a counter rewind re-issued
                # it; the read is unattributable, not from the future.
                skipped += 1
                continue
            res.violate(
                "future-read",
                f"read of key {op.key} observed version {version} before "
                f"any write of it was invoked", (op, writers[0]))
    res.stats["unattributable_reads"] = skipped
    return res


# ---------------------------------------------------------------------------
# linearizable
# ---------------------------------------------------------------------------

def _cluster_cycle(clusters: List[Tuple[Optional[HistoryOpRecord],
                                        List[HistoryOpRecord]]],
                   ) -> Optional[List[int]]:
    """Cycle-check the cluster constraint graph for one key.

    ``clusters[0]`` is the virtual initial-state cluster (write None).
    Returns the cluster indices on a constraint cycle, or None if the
    graph is acyclic (the sub-history is linearizable).
    """
    count = len(clusters)
    lo: List[float] = []
    hi: List[float] = []
    for index, (write, reads) in enumerate(clusters):
        responds = [r.respond_us for r in reads]
        invokes = [r.invoke_us for r in reads]
        if write is not None:
            responds.append(write.respond_us)
            invokes.append(write.invoke_us)
        # The initial state "completes" before everything.
        lo.append(min(responds) if index else _NEG_INF)
        hi.append(max(invokes, default=_NEG_INF))
    order = sorted(range(count), key=lambda c: (lo[c], c))
    position = [0] * count
    for pos, cluster in enumerate(order):
        position[cluster] = pos
    sorted_lo = [lo[c] for c in order]
    # Nodes: clusters 0..count-1, then milestones count..2*count-1;
    # milestone node count+j-1 covers the first j clusters in lo order.
    total = 2 * count
    adjacency: List[List[int]] = [[] for _ in range(total)]
    predecessors: List[List[int]] = [[] for _ in range(total)]
    indegree = [0] * total

    def edge(src: int, dst: int) -> None:
        adjacency[src].append(dst)
        predecessors[dst].append(src)
        indegree[dst] += 1

    for j in range(1, count + 1):
        edge(order[j - 1], count + j - 1)
        if j > 1:
            edge(count + j - 2, count + j - 1)
    for cluster in range(1, count):
        edge(0, cluster)            # initial state precedes every write
    for cluster in range(count):
        prefix = bisect_left(sorted_lo, hi[cluster])
        if prefix <= 0:
            continue
        pos = position[cluster]
        if pos >= prefix:
            edge(count + prefix - 1, cluster)
        else:
            # The cluster sits inside its own prefix: cover the part
            # before it with a milestone and the (typically tiny)
            # remainder with direct edges.
            if pos > 0:
                edge(count + pos - 1, cluster)
            for j in range(pos + 1, prefix):
                edge(order[j], cluster)
    # Kahn's algorithm; survivors contain a cycle.
    queue = [node for node in range(total) if indegree[node] == 0]
    seen = 0
    while queue:
        node = queue.pop()
        seen += 1
        for nxt in adjacency[node]:
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                queue.append(nxt)
    if seen == total:
        return None
    remaining = {node for node in range(total) if indegree[node] > 0}
    # Every survivor keeps a surviving predecessor, so walking backward
    # must close a cycle.
    path: List[int] = []
    index_on_path: Dict[int, int] = {}
    node = min(remaining)
    while node not in index_on_path:
        index_on_path[node] = len(path)
        path.append(node)
        node = next(n for n in predecessors[node] if n in remaining)
    cycle = path[index_on_path[node]:]
    return [n for n in cycle if n < count]


def _shrink_cycle_witness(ops: List[HistoryOpRecord],
                          res: CheckResult) -> List[HistoryOpRecord]:
    """Minimize a small cycle witness with the exact Wing & Gong
    checker; fall back to the full cycle when the search is too big or
    (defensively) disagrees."""
    if len(ops) > _SHRINK_CAP_OPS:
        return ops
    from repro.analysis.linearizability import (HistoryOp,
                                                check_linearizable as _wg)
    max_states = 200_000
    sub = [HistoryOp(op_type=op.op,
                     value=tuple(op.version),
                     invoke=op.invoke_us,
                     respond=op.respond_us) for op in ops]
    result = _wg(sub, initial_value=ZERO_VERSION, max_states=max_states)
    res.stats["shrink_states"] = (res.stats.get("shrink_states", 0)
                                  + result.states_explored)
    if result.ok or result.states_explored >= max_states \
            or not result.witness_indices:
        return ops
    return [ops[i] for i in result.witness_indices]


def check_linearizable(prep: PreparedHistory) -> CheckResult:
    """Per-key (P-compositional) real-time linearizability of the
    healthy sub-history, via the unique-token cluster graph."""
    res = CheckResult("linearizable")
    writes_by_key: Dict[Optional[int], List[HistoryOpRecord]] = \
        defaultdict(list)
    reads_by_key: Dict[Optional[int], List[HistoryOpRecord]] = \
        defaultdict(list)
    excluded = 0
    for op in prep.completed_writes:
        if prep.write_effect(op) is not True:
            excluded += 1
            continue
        writes_by_key[op.key].append(op)
    for op in prep.completed_reads:
        if op.version is None:
            excluded += 1
            continue
        reads_by_key[op.key].append(op)
    keys = sorted(writes_by_key.keys() | reads_by_key.keys(),
                  key=lambda k: (k is None, k))
    for key in keys:
        writes = writes_by_key.get(key, [])
        reads = reads_by_key.get(key, [])
        res.checked += len(writes) + len(reads)
        clusters: List[Tuple[Optional[HistoryOpRecord],
                             List[HistoryOpRecord]]] = [(None, [])]
        cluster_of_token: Dict[Version, int] = {}
        duplicate_tokens: set = set()
        for write in writes:
            token = tuple(write.version)
            if token in cluster_of_token or token in duplicate_tokens:
                # Duplicate token among healthy writes (possible only
                # through a version-counter rewind): both writes stay as
                # unread clusters, their reads are unattributable.
                duplicate_tokens.add(token)
                cluster_of_token.pop(token, None)
            else:
                cluster_of_token[token] = len(clusters)
            clusters.append((write, []))
        for read in reads:
            token = tuple(read.version)
            if token == ZERO_VERSION:
                clusters[0][1].append(read)
                continue
            if token in duplicate_tokens \
                    or len(prep.writes_by_token.get((key, token), ())) > 1:
                excluded += 1        # ambiguous writer
                continue
            slot = cluster_of_token.get(token)
            if slot is None:
                # No healthy-graph writer carries this token: it came
                # from a pending write (version unknown) or a squashed
                # attempt.
                # Truly unwritten versions are check_no_phantom's job
                # (it runs for every cell); here the read is just
                # unattributable.
                excluded += 1
                continue
            write = clusters[slot][0]
            if read.respond_us < write.invoke_us:
                res.violate(
                    "future-read",
                    f"read of key {key} returned version {token} before "
                    f"its write was invoked", (read, write))
                continue
            if write.value is not None and read.value != write.value:
                res.violate(
                    "value-mismatch",
                    f"read of key {key} version {token} returned "
                    f"{read.value!r} but the write stored "
                    f"{write.value!r}", (read, write))
            clusters[slot][1].append(read)
        cycle = _cluster_cycle(clusters)
        if cycle is None:
            continue
        witness: List[HistoryOpRecord] = []
        for cluster in cycle:
            write, rds = clusters[cluster]
            if write is not None:
                witness.append(write)
            witness.extend(rds)
        witness.sort(key=lambda op: op.index)
        witness = _shrink_cycle_witness(witness, res)
        res.violate(
            "not-linearizable",
            f"key {key}: no linearization of {len(clusters)} write "
            f"clusters satisfies the real-time order; "
            f"{len(cycle)}-cluster constraint cycle", tuple(witness))
    res.stats["excluded_observations"] = excluded
    return res


# ---------------------------------------------------------------------------
# read-enforced
# ---------------------------------------------------------------------------

def check_read_enforced(prep: PreparedHistory) -> CheckResult:
    """Reads are *enforced* at the serving node: two non-overlapping
    reads answered by the same node never step back in version order
    (the node stalls reads on pending invalidations, and its applied
    state only advances), plus read-your-writes inside each session.

    Deliberately weaker than linearizability: enforcement is local to
    the node, so a read served elsewhere before the invalidation lands
    may still be stale — such a cross-node stale read passes here but
    fails the linearizable checker, the cross-model witness separating
    the two rows.
    """
    res = CheckResult("read_enforced")
    by_node_key: Dict[Tuple[int, Optional[int]],
                      List[HistoryOpRecord]] = defaultdict(list)
    excluded = 0
    for op in prep.completed_reads:
        if op.version is None:
            excluded += 1
            continue
        if prep.observation_effect(op) is not True:
            excluded += 1
            continue
        by_node_key[(op.node, op.key)].append(op)
    for node, key in sorted(by_node_key,
                            key=lambda nk: (nk[0], nk[1] is None, nk[1])):
        reads = by_node_key[(node, key)]
        res.checked += len(reads)
        by_invoke = sorted(reads, key=lambda op: (op.invoke_us, op.index))
        by_respond = sorted(reads, key=lambda op: (op.respond_us, op.index))
        best: Optional[Tuple[Version, HistoryOpRecord]] = None
        done = 0
        for read in by_invoke:
            while done < len(by_respond) \
                    and by_respond[done].respond_us < read.invoke_us:
                prior = by_respond[done]
                version = tuple(prior.version)
                if best is None or version > best[0]:
                    best = (version, prior)
                done += 1
            if best is not None and tuple(read.version) < best[0]:
                res.violate(
                    "stale-read",
                    f"node {node} key {key}: read observed "
                    f"{tuple(read.version)} after an earlier read at the "
                    f"same node returned {best[0]}",
                    (best[1], read))
    # Read-your-writes within each session (a local, single-node
    # guarantee).
    thresholds: Dict[Tuple[int, int], Dict[Optional[int],
                                           Tuple[Version,
                                                 HistoryOpRecord]]] = \
        defaultdict(dict)
    for op in prep.ops:
        if not op.ok or op.respond_us is None:
            continue
        session = thresholds[(op.client, op.session)]
        if op.op == "write":
            if op.version is None or prep.write_effect(op) is not True:
                continue
            version = tuple(op.version)
            current = session.get(op.key)
            if current is None or version > current[0]:
                session[op.key] = (version, op)
        elif op.op == "read":
            if op.version is None \
                    or prep.observation_effect(op) is not True:
                continue
            res.checked += 1
            current = session.get(op.key)
            if current is not None and tuple(op.version) < current[0]:
                res.violate(
                    "read-your-writes",
                    f"key {op.key}: client {op.client} read "
                    f"{tuple(op.version)} after its own write "
                    f"{current[0]}", (current[1], op))
    res.stats["excluded_observations"] = excluded
    return res


# ---------------------------------------------------------------------------
# transactional
# ---------------------------------------------------------------------------

def check_transactional(prep: PreparedHistory) -> CheckResult:
    """Conflict-squashed optimistic transactions, observationally: a
    committed attempt always reads its own earlier writes (a conflicting
    writer would have squashed one of the two), and each session's
    committed observations never move backwards.  Reads of versions
    written by squashed attempts are legal mid-attempt (the simulator
    applies eagerly and reverts on squash) and are excluded, as are
    repeatable-read demands: a transaction that committed *between* two
    reads of the same key is visible to the second one by design."""
    res = CheckResult("transactional")
    attempts: Dict[int, List[HistoryOpRecord]] = defaultdict(list)
    for op in prep.ops:
        if op.ok and op.txn_id is not None and op.respond_us is not None:
            attempts[op.txn_id].append(op)
    for txn_id in sorted(attempts):
        if prep.txn_outcome.get(txn_id) is not True:
            continue
        own: Dict[Optional[int], Version] = {}
        for op in attempts[txn_id]:
            if op.op == "write":
                if op.version is not None:
                    own[op.key] = tuple(op.version)
                continue
            if op.op != "read" or op.version is None:
                continue
            res.checked += 1
            version = tuple(op.version)
            if op.key in own and version != own[op.key]:
                res.violate(
                    "own-write-lost",
                    f"txn {txn_id}: read of key {op.key} returned "
                    f"{version} instead of the attempt's own write "
                    f"{own[op.key]}", (op,))
    # Session-monotonic committed observations.
    excluded = 0
    thresholds: Dict[Tuple[int, int], Dict[Optional[int],
                                           Tuple[Version,
                                                 HistoryOpRecord]]] = \
        defaultdict(dict)
    for op in prep.completed_reads:
        if op.version is None:
            continue
        if prep.observation_effect(op) is not True:
            excluded += 1
            continue
        res.checked += 1
        version = tuple(op.version)
        session = thresholds[(op.client, op.session)]
        current = session.get(op.key)
        if current is not None and version < current[0]:
            res.violate(
                "monotonic-reads",
                f"key {op.key}: client {op.client} session {op.session} "
                f"read {version} after {current[0]}", (current[1], op))
        if current is None or version > current[0]:
            session[op.key] = (version, op)
    res.stats["excluded_observations"] = excluded
    return res


# ---------------------------------------------------------------------------
# causal
# ---------------------------------------------------------------------------

def check_causal(prep: PreparedHistory) -> CheckResult:
    """Session guarantees plus writes-follow-reads, from observation.

    Pass 1 reconstructs every effective write's *nearest-dependency*
    set from its session's recorded timeline, mirroring the client
    context exactly: the session's previous write plus the per-key
    maximum of versions it read since.  Pass 2 replays each session;
    reading a foreign write obliges the reader to that write's
    nearest dependencies — one hop only.  The obligation deliberately
    does NOT close transitively through the writer's own earlier
    writes: dependency checks are satisfied by per-key version
    *dominance*, so a concurrent last-writer-wins overwrite of an
    intermediate write satisfies the dependency without ever carrying
    the intermediate write's own causal history (the COPS
    nearest-dependency design).  A transitive obligation would flag
    those legitimate severed chains; one hop is what the protocol
    actually guarantees at the reader's node, and is a sound
    under-approximation of causal memory (a returned version merely
    *concurrent* with a deeper ancestor is legal).

    Monotonicity obligations come from *reads* only: under synchronous
    persistency the causal models serve reads from the persisted
    version, which legitimately lags the session's own just-applied
    writes — observation-level read-your-writes is not part of this
    contract."""
    res = CheckResult("causal")
    sessions: Dict[Tuple[int, int], List[HistoryOpRecord]] = \
        defaultdict(list)
    excluded = 0
    for op in prep.ops:
        if not op.ok or op.respond_us is None or op.op == "persist":
            continue
        sessions[(op.client, op.session)].append(op)
    session_ids = sorted(sessions)
    # Pass 1: nearest-dependency sets, mirroring ClientContext.observe /
    # take_dependencies — every completed read folds into the per-key
    # running maximum, every completed write captures the accumulated
    # set and resets it to just itself (effective or not: the client
    # context reset either way).
    deps: Dict[Tuple[Optional[int], Version],
               Tuple[Tuple[int, int], int]] = {}
    nearest: Dict[Tuple[Tuple[int, int], int],
                  Dict[Optional[int],
                       Tuple[Version, HistoryOpRecord]]] = {}
    for sid in session_ids:
        running: Dict[Optional[int],
                      Tuple[Version, HistoryOpRecord]] = {}
        writes = 0
        for op in sessions[sid]:
            if op.version is None:
                continue
            version = tuple(op.version)
            if op.op == "write":
                if prep.write_effect(op) is True:
                    deps.setdefault((op.key, version), (sid, writes))
                    nearest[(sid, writes)] = dict(running)
                running = {op.key: (version, op)}
                writes += 1
            elif version > running.get(op.key, (ZERO_VERSION,))[0]:
                running[op.key] = (version, op)
    # Pass 2: replay each session against its accumulated obligations.
    for sid in session_ids:
        owed: Dict[Optional[int], Tuple[Version, HistoryOpRecord]] = {}
        own: Dict[Optional[int], Tuple[Version, HistoryOpRecord]] = {}
        for op in sessions[sid]:
            if op.version is None or op.op != "read":
                continue
            version = tuple(op.version)
            if prep.observation_effect(op) is not True:
                excluded += 1
                continue
            res.checked += 1
            current = own.get(op.key)
            if current is not None and version < current[0]:
                res.violate(
                    "monotonic-reads",
                    f"key {op.key}: session {sid} observed {version} "
                    f"after {current[0]}", (current[1], op))
            else:
                entry = owed.get(op.key)
                if entry is not None and version < entry[0]:
                    if entry[0][1] == op.node:
                        # The expected dependency was coordinated by the
                        # read's own node, where local writes apply
                        # without a dependency check: under a persisted-
                        # frontier read (synchronous persistency) the
                        # per-key persist queues can expose a dependent
                        # write before its dependency.  Unattributable
                        # from observation alone, so excluded.
                        excluded += 1
                    else:
                        res.violate(
                            "writes-follow-reads",
                            f"key {op.key}: session {sid} observed "
                            f"{version}, older than {entry[0]} which "
                            f"a write it already read depends on",
                            (entry[1], op))
            if current is None or version > current[0]:
                own[op.key] = (version, op)
            dep = deps.get((op.key, version))
            if dep is not None and dep[0] != sid:
                for key, (dep_version, dep_op) in nearest[dep].items():
                    if dep_version > owed.get(key, (ZERO_VERSION,))[0]:
                        owed[key] = (dep_version, dep_op)
    res.stats["excluded_observations"] = excluded
    return res


# ---------------------------------------------------------------------------
# eventual
# ---------------------------------------------------------------------------

def check_eventual(prep: PreparedHistory) -> CheckResult:
    """Eventual consistency makes no real-time promise a finite
    bounded history can falsify beyond phantom freedom (which
    :func:`check_no_phantom` covers for every cell); convergence is
    judged against the recovered durable state by the persistency
    predicates."""
    return CheckResult("eventual")


CONSISTENCY_CHECKERS = {
    "linearizable": check_linearizable,
    "read_enforced": check_read_enforced,
    "transactional": check_transactional,
    "causal": check_causal,
    "eventual": check_eventual,
}
