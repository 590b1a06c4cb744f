"""A linearizability checker (Wing & Gong search, Lowe-style memoized).

Histories of timed read/write operations on a register are checked for
the existence of a legal linearization — a total order consistent with
the real-time order (an operation that responded before another was
invoked must precede it) in which every read returns the most recent
preceding write.

The search is exponential in the worst case (linearizability checking
is NP-hard), but two standard upgrades make real histories tractable:

* **memoized visited states** (Lowe's just-in-time linearizability):
  the search state is fully described by (set of linearized ops,
  current register value); a state proven a dead end once is never
  re-explored.  Reordering two independent ops reaches the same state,
  so this collapses the factorial blow-up on concurrent histories.
* **pending operations**: an op with ``respond=None`` was severed by a
  crash (or cut off at the end of the run) and *may or may not* have
  taken effect.  A pending write may be linearized anywhere after its
  invocation or discarded entirely; a pending read constrains nothing
  and is dropped up front.

Multi-key histories should be partitioned per key before calling (the
P-compositionality of linearizability: a history is linearizable iff
each per-key sub-history is — see :mod:`repro.audit.checkers`, which
does exactly that).

:func:`check_linearizable` returns a :class:`LinearizationResult`
carrying a *witness*: a minimal violating sub-history, shrunk from the
failing input, instead of a bare bool.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Tuple

__all__ = ["HistoryOp", "LinearizationResult", "is_linearizable",
           "check_linearizable"]


@dataclass(frozen=True)
class HistoryOp:
    """One operation in a history.

    ``respond=None`` marks a *pending* operation — invoked but never
    acknowledged (the client was severed by a crash, or the run ended
    first).  A pending write may or may not have taken effect; a
    pending read is unconstrained.
    """

    op_type: str        # "read" | "write"
    value: Any          # written value, or value returned by the read
    invoke: float
    respond: Optional[float]

    def __post_init__(self):
        if self.op_type not in ("read", "write"):
            raise ValueError(f"bad op_type {self.op_type!r}")
        if self.respond is not None and self.respond < self.invoke:
            raise ValueError("response before invocation")

    @property
    def pending(self) -> bool:
        return self.respond is None


@dataclass
class LinearizationResult:
    """Outcome of a linearizability check.

    ``witness`` is only populated on failure: a minimal sub-history of
    the input that is itself non-linearizable (every op in it matters —
    removing any one would make the rest linearizable, up to the shrink
    budget).  ``witness_indices`` are positions in the *original*
    history.  ``order`` is a legal linearization (indices of the placed
    ops, discarded pending writes omitted) on success.
    """

    ok: bool
    order: Optional[List[int]] = None
    witness: List[HistoryOp] = field(default_factory=list)
    witness_indices: List[int] = field(default_factory=list)
    states_explored: int = 0
    memo_hits: int = 0

    def __bool__(self) -> bool:
        return self.ok


# Shrinking re-runs the search once per candidate op; past this many ops
# the witness is reported unshrunk (still a true violation, just not
# minimal).
_SHRINK_CAP = 128


def is_linearizable(history: Sequence[HistoryOp],
                    initial_value: Any = None) -> bool:
    """Check one register history (:func:`check_linearizable` gives the
    violating minimal sub-history and the search statistics)."""
    return check_linearizable(history, initial_value).ok


def check_linearizable(history: Sequence[HistoryOp],
                       initial_value: Any = None,
                       max_states: Optional[int] = None,
                       shrink: bool = True) -> LinearizationResult:
    """Full-result form of :func:`is_linearizable`.

    ``max_states`` bounds the number of search states explored (summed
    over the main search; the shrink phase reuses the same budget per
    re-check).  A blown budget counts as a violation — the checker
    refuses to claim linearizability it could not prove — with the
    unshrunk history as witness.
    """
    ops = list(history)
    keep = [i for i, op in enumerate(ops)
            if not (op.pending and op.op_type == "read")]
    result, stats = _search([ops[i] for i in keep], initial_value, max_states)
    states, hits = stats
    if result is not None:
        return LinearizationResult(ok=True,
                                   order=[keep[i] for i in result],
                                   states_explored=states, memo_hits=hits)
    witness_local = list(range(len(keep)))
    if shrink and len(keep) <= _SHRINK_CAP:
        witness_local = _shrink([ops[i] for i in keep], initial_value,
                                max_states)
    witness_indices = [keep[i] for i in witness_local]
    return LinearizationResult(
        ok=False,
        witness=[ops[i] for i in witness_indices],
        witness_indices=witness_indices,
        states_explored=states, memo_hits=hits)


# ---------------------------------------------------------------------------
# the memoized search
# ---------------------------------------------------------------------------

def _search(ops: List[HistoryOp], initial_value: Any,
            max_states: Optional[int]):
    """Find a linearization of ``ops`` (pending reads already removed).

    Returns ``(order, (states, memo_hits))`` where ``order`` is a list
    of local indices of the *placed* ops (discarded pending writes
    excluded) or None when no linearization exists (or the state budget
    blew — the conservative answer).
    """
    n = len(ops)
    if n == 0:
        return [], (0, 0)

    # precedes[i] = ops that must be linearized before i (real-time
    # order).  Pending ops never precede anything.
    precedes: List[List[int]] = [[] for _ in range(n)]
    for i, earlier in enumerate(ops):
        if earlier.respond is None:
            continue
        for j, later in enumerate(ops):
            if i != j and earlier.respond < later.invoke:
                precedes[j].append(i)

    full_mask = (1 << n) - 1
    bit = [1 << i for i in range(n)]
    pred_mask = [0] * n
    for j in range(n):
        for i in precedes[j]:
            pred_mask[j] |= bit[i]

    # Candidate ordering: completed ops before pending ones, then by
    # response/invocation time.  On clean histories this walks straight
    # down the real schedule, so the search is near-linear.
    rank = sorted(range(n), key=lambda i: (
        ops[i].respond is None,
        ops[i].respond if ops[i].respond is not None else ops[i].invoke,
        ops[i].invoke))

    visited = set()
    states = 0
    hits = 0

    # Iterative DFS; each frame is (done_mask, value, chosen, move_iter)
    # where chosen is the action list to rebuild the order on success.
    def moves(done_mask: int, value: Any):
        for i in rank:
            b = bit[i]
            if done_mask & b or (pred_mask[i] & ~done_mask):
                continue
            op = ops[i]
            if op.op_type == "read":
                if op.value == value:
                    yield (i, "place", value)
            else:
                yield (i, "place", op.value)
                if op.pending:
                    # A severed write may never have taken effect.
                    yield (i, "discard", value)

    stack = [(0, initial_value, moves(0, initial_value))]
    path: List[Tuple[int, str]] = []
    while stack:
        done_mask, value, it = stack[-1]
        if done_mask == full_mask:
            order = [i for i, action in path if action == "place"]
            return order, (states, hits)
        advanced = False
        for i, action, new_value in it:
            new_mask = done_mask | bit[i]
            key = (new_mask, new_value)
            if key in visited:
                hits += 1
                continue
            states += 1
            if max_states is not None and states > max_states:
                return None, (states, hits)
            visited.add(key)
            path.append((i, action))
            stack.append((new_mask, new_value, moves(new_mask, new_value)))
            advanced = True
            break
        if not advanced:
            stack.pop()
            if path:
                path.pop()
    return None, (states, hits)


def _shrink(ops: List[HistoryOp], initial_value: Any,
            max_states: Optional[int]) -> List[int]:
    """Greedy minimization: drop every op whose removal keeps the
    history non-linearizable.  Returns surviving local indices.

    The shrunk history is kept *well-formed* — a write is never removed
    while a read of its value survives — so the witness shows the
    actual anomaly (e.g. the stale read next to the write it missed)
    rather than degenerating into a phantom read.
    """
    def well_formed(indices: List[int]) -> bool:
        written = {ops[i].value for i in indices
                   if ops[i].op_type == "write"}
        return all(ops[i].value == initial_value or ops[i].value in written
                   for i in indices if ops[i].op_type == "read")

    alive = list(range(len(ops)))
    changed = True
    while changed:
        changed = False
        for candidate in list(alive):
            trial = [i for i in alive if i != candidate]
            if not well_formed(trial):
                continue
            found, _stats = _search([ops[i] for i in trial], initial_value,
                                    max_states)
            if found is None:
                alive = trial
                changed = True
    return alive
