"""Adversarial histories for the black-box checkers.

Each test hand-builds a small client-observed history containing exactly
one class of contract violation and asserts that the matching checker
rejects it while the others stay silent — the checkers must separate
failure classes, not merely detect "something is wrong".  A second set
of hypothesis properties generates correct histories and asserts no
checker ever produces a false positive on them (the soundness
contract), and cross-validates the polynomial linearizability checker
against the exact Wing & Gong search.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audit.checkers import (CONSISTENCY_CHECKERS, PreparedHistory,
                                  check_causal, check_linearizable,
                                  check_no_phantom, check_read_enforced,
                                  check_transactional)
from repro.audit.durability import (check_completed_writes_durable,
                                    check_read_values_durable,
                                    check_recovered_no_phantom,
                                    check_scope_writes_durable)
from repro.obs.history import History, HistoryOpRecord


def _op(index, client, op, key, version, invoke, respond, node=0,
        session=0, **kw):
    return HistoryOpRecord(index=index, client=client, session=session,
                           node=node, op=op, key=key, value=kw.pop(
                               "value", None),
                           invoke_us=invoke, respond_us=respond,
                           version=version, **kw)


def _history(specs, recovered=None):
    """Build a History from (client, op, key, version, invoke, respond,
    {extras}) tuples."""
    ops = []
    for spec in specs:
        extras = spec[6] if len(spec) > 6 else {}
        ops.append(_op(len(ops), *spec[:6], **extras))
    rec = {}
    if recovered is not None:
        rec = {"merged": {str(k): {"version": list(v), "value": None}
                          for k, v in recovered.items()}}
    return History(meta={}, ops=ops, recovered=rec)


def _prep(specs, recovered=None):
    return PreparedHistory(_history(specs, recovered))


class TestPhantom:
    def test_unwritten_token_is_phantom(self):
        prep = _prep([
            (1, "write", 5, (1, 0), 0.0, 1.0),
            (2, "read", 5, (9, 3), 2.0, 3.0),
        ])
        res = check_no_phantom(prep)
        assert not res.ok
        assert res.details[0]["rule"] == "phantom-read"

    def test_future_read_detected(self):
        prep = _prep([
            (2, "read", 5, (1, 0), 0.0, 1.0),
            (1, "write", 5, (1, 0), 2.0, 3.0),
        ])
        res = check_no_phantom(prep)
        assert not res.ok
        assert res.details[0]["rule"] == "future-read"

    def test_unknown_token_key_excluded(self):
        # A crash-severed write with no recorded version may have minted
        # the token: unattributable, not a phantom.
        prep = _prep([
            (1, "write", 5, None, 0.0, None),
            (2, "read", 5, (9, 3), 2.0, 3.0),
        ])
        res = check_no_phantom(prep)
        assert res.ok
        assert res.stats["unattributable_reads"] == 1


class TestLinearizable:
    def test_stale_read_after_write_completes(self):
        prep = _prep([
            (1, "write", 5, (1, 0), 0.0, 1.0),
            (1, "write", 5, (2, 0), 2.0, 3.0),
            (2, "read", 5, (1, 0), 4.0, 5.0),
        ])
        res = check_linearizable(prep)
        assert not res.ok
        assert res.details[0]["rule"] == "not-linearizable"
        # The same history is legal for every weaker model.
        assert check_read_enforced(_prep([
            (1, "write", 5, (1, 0), 0.0, 1.0),
            (1, "write", 5, (2, 0), 2.0, 3.0),
            (2, "read", 5, (1, 0), 4.0, 5.0, {"node": 1}),
        ])).ok
        assert check_causal(prep).ok

    def test_concurrent_read_may_see_either(self):
        prep = _prep([
            (1, "write", 5, (1, 0), 0.0, 1.0),
            (1, "write", 5, (2, 0), 2.0, 5.0),
            (2, "read", 5, (1, 0), 3.0, 4.0),
        ])
        assert check_linearizable(prep).ok

    def test_reads_cannot_swap_write_order(self):
        prep = _prep([
            (1, "write", 5, (1, 0), 0.0, 1.0),
            (1, "write", 5, (2, 0), 2.0, 3.0),
            (2, "read", 5, (2, 0), 4.0, 5.0),
            (3, "read", 5, (1, 0), 6.0, 7.0),
        ])
        res = check_linearizable(prep)
        assert not res.ok

    def test_unmatched_token_excluded_not_violated(self):
        prep = _prep([
            (1, "write", 5, (1, 0), 0.0, 1.0),
            (2, "read", 5, (9, 3), 2.0, 3.0),
        ])
        res = check_linearizable(prep)
        assert res.ok
        assert res.stats["excluded_observations"] == 1


class TestReadEnforced:
    def test_same_node_step_back(self):
        prep = _prep([
            (1, "write", 5, (1, 0), 0.0, 0.5),
            (1, "write", 5, (2, 0), 0.6, 1.0),
            (2, "read", 5, (2, 0), 2.0, 3.0, {"node": 1}),
            (3, "read", 5, (1, 0), 4.0, 5.0, {"node": 1}),
        ])
        res = check_read_enforced(prep)
        assert not res.ok
        assert res.details[0]["rule"] == "stale-read"

    def test_cross_node_staleness_is_legal(self):
        # Enforcement is local to the serving node; node 2's lagging
        # replica passes here (and fails the linearizable checker —
        # the cross-model witness separating the rows).
        specs = [
            (1, "write", 5, (1, 0), 0.0, 1.0),
            (1, "write", 5, (2, 0), 2.0, 3.0),
            (2, "read", 5, (1, 0), 4.0, 5.0, {"node": 2}),
        ]
        assert check_read_enforced(_prep(specs)).ok
        assert not check_linearizable(_prep(specs)).ok

    def test_read_your_writes(self):
        prep = _prep([
            (1, "write", 5, (3, 0), 0.0, 1.0),
            (1, "read", 5, (2, 0), 2.0, 3.0),
            (2, "write", 5, (2, 0), 0.0, 0.5),
        ])
        res = check_read_enforced(prep)
        assert not res.ok
        assert res.details[0]["rule"] == "read-your-writes"


class TestTransactional:
    def test_committed_attempt_keeps_own_writes(self):
        prep = _prep([
            (1, "write", 5, (4, 0), 0.0, 1.0,
             {"txn_id": 7, "committed": True}),
            (1, "read", 5, (2, 0), 2.0, 3.0,
             {"txn_id": 7, "committed": True}),
            (2, "write", 5, (2, 0), 0.0, 0.5),
        ])
        res = check_transactional(prep)
        assert not res.ok
        assert res.details[0]["rule"] == "own-write-lost"

    def test_squashed_attempt_reads_excluded(self):
        prep = _prep([
            (1, "write", 5, (4, 0), 0.0, 1.0,
             {"txn_id": 7, "committed": False}),
            (2, "read", 5, (4, 0), 2.0, 3.0),
        ])
        assert check_transactional(prep).ok
        assert check_linearizable(prep).ok


class TestCausal:
    def test_monotonic_reads_violation(self):
        prep = _prep([
            (1, "write", 5, (1, 0), 0.0, 1.0),
            (1, "write", 5, (2, 0), 2.0, 3.0),
            (2, "read", 5, (2, 0), 4.0, 5.0),
            (2, "read", 5, (1, 0), 6.0, 7.0),
        ])
        res = check_causal(prep)
        assert not res.ok
        assert res.details[0]["rule"] == "monotonic-reads"

    def test_writes_follow_reads_one_hop(self):
        # Writer session 1 reads key 2 = (5,1) then writes key 1, so the
        # write's nearest dependencies carry key 2 at (5,1).  Session 3
        # reads that write, then sees key 2 at an older version.
        prep = _prep([
            (9, "write", 2, (5, 1), 0.0, 0.5, {"node": 1}),
            (9, "write", 2, (3, 2), 0.0, 0.4, {"node": 1}),
            (1, "read", 2, (5, 1), 1.0, 2.0, {"node": 1}),
            (1, "write", 1, (7, 0), 3.0, 4.0, {"node": 1}),
            (3, "read", 1, (7, 0), 5.0, 6.0, {"node": 0}),
            (3, "read", 2, (3, 2), 7.0, 8.0, {"node": 0}),
        ])
        res = check_causal(prep)
        assert not res.ok
        assert res.details[0]["rule"] == "writes-follow-reads"

    def test_transitive_chain_not_owed(self):
        # The dependency chain reaches (9,1) on key 1 only through the
        # writer's *earlier* write: per-key version dominance under
        # last-writer-wins legitimately severs such chains (a concurrent
        # overwrite satisfies the dependency check without carrying the
        # intermediate write's history), so one hop is all the protocol
        # guarantees and the checker must not flag deeper ancestors.
        prep = _prep([
            (9, "write", 1, (9, 1), 0.0, 0.5, {"node": 1}),
            (9, "write", 1, (2, 0), 0.0, 0.4, {"node": 1}),
            (1, "read", 1, (9, 1), 1.0, 2.0, {"node": 1}),
            (1, "write", 2, (4, 2), 3.0, 4.0, {"node": 1}),
            (1, "write", 3, (6, 2), 5.0, 6.0, {"node": 1}),
            (3, "read", 3, (6, 2), 7.0, 8.0, {"node": 0}),
            (3, "read", 1, (2, 0), 9.0, 10.0, {"node": 0}),
        ])
        assert check_causal(prep).ok

    def test_origin_node_dependency_excluded(self):
        # The expected dependency was coordinated at the reader's own
        # node, where local writes apply without a dependency check:
        # under persisted-frontier reads the per-key persist queues can
        # expose the dependent write first.  Excluded, not violated.
        prep = _prep([
            (9, "write", 2, (5, 1), 0.0, 0.5, {"node": 1}),
            (9, "write", 2, (3, 2), 0.0, 0.4, {"node": 1}),
            (1, "read", 2, (5, 1), 1.0, 2.0, {"node": 1}),
            (1, "write", 1, (7, 0), 3.0, 4.0, {"node": 1}),
            (3, "read", 1, (7, 0), 5.0, 6.0, {"node": 1}),
            (3, "read", 2, (3, 2), 7.0, 8.0, {"node": 1}),
        ])
        res = check_causal(prep)
        assert res.ok
        assert res.stats["excluded_observations"] == 1

    def test_restarted_sessions_are_judged(self):
        """A session opened by a crash-restart is held to the same
        rules: its node caught up before it began."""
        prep = _prep([
            (1, "write", 5, (1, 0), 0.0, 1.0),
            (1, "write", 5, (2, 0), 2.0, 3.0),
            (2, "read", 5, (2, 0), 4.0, 5.0, {"session": 1}),
            (2, "read", 5, (1, 0), 6.0, 7.0, {"session": 1}),
        ])
        res = check_causal(prep)
        assert not res.ok
        assert res.stats["excluded_observations"] == 0


class TestDurability:
    def test_lost_durable_write(self):
        prep = _prep([
            (1, "write", 5, (2, 0), 0.0, 1.0),
        ], recovered={5: (1, 0)})
        res = check_completed_writes_durable(prep)
        assert not res.ok
        assert res.details[0]["rule"] == "lost-durable-write"

    def test_lost_read_value(self):
        prep = _prep([
            (1, "write", 5, (2, 0), 0.0, 1.0),
            (2, "read", 5, (2, 0), 2.0, 3.0),
        ], recovered={5: (1, 0)})
        res = check_read_values_durable(prep)
        assert not res.ok
        assert res.details[0]["rule"] == "lost-read-value"

    def test_torn_scope(self):
        prep = _prep([
            (1, "write", 5, (2, 0), 0.0, 1.0, {"scope_id": 1_000_000}),
            (1, "persist", None, None, 2.0, 3.0,
             {"scope_id": 1_000_000, "committed": True}),
        ], recovered={5: (1, 0)})
        res = check_scope_writes_durable(prep)
        assert not res.ok
        assert res.details[0]["rule"] == "torn-scope"

    def test_uncommitted_scope_not_owed(self):
        prep = _prep([
            (1, "write", 5, (2, 0), 0.0, 1.0, {"scope_id": 1_000_000}),
        ], recovered={5: (1, 0)})
        assert check_scope_writes_durable(prep).ok

    def test_scope_id_reuse_across_sessions_not_conflated(self):
        # A post-restart session reuses a client-local scope id; the
        # pre-crash session's committed Persist must not vouch for the
        # new session's writes.
        prep = _prep([
            (1, "write", 5, (2, 0), 0.0, 1.0, {"scope_id": 1_000_000}),
            (1, "persist", None, None, 2.0, 3.0,
             {"scope_id": 1_000_000, "committed": True}),
            (1, "write", 5, (9, 0), 4.0, 5.0,
             {"scope_id": 1_000_000, "session": 1}),
        ], recovered={5: (2, 0)})
        assert check_scope_writes_durable(prep).ok

    def test_recovered_phantom(self):
        prep = _prep([
            (1, "write", 5, (2, 0), 0.0, 1.0),
        ], recovered={5: (7, 3)})
        res = check_recovered_no_phantom(prep)
        assert not res.ok
        assert res.details[0]["rule"] == "recovered-phantom"

    def test_severed_write_key_skipped(self):
        prep = _prep([
            (1, "write", 5, None, 0.0, None, {"severed": True}),
        ], recovered={5: (7, 3)})
        res = check_recovered_no_phantom(prep)
        assert res.ok
        assert res.stats["skipped_keys"] == 1


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

@st.composite
def sequential_history(draw):
    """A correct single-copy history: per key, writes happen strictly in
    sequence and every read returns the latest completed write."""
    keys = draw(st.integers(min_value=1, max_value=3))
    steps = draw(st.integers(min_value=1, max_value=25))
    specs = []
    latest = {}
    clock = 0.0
    for _ in range(steps):
        key = draw(st.integers(min_value=0, max_value=keys - 1))
        client = draw(st.integers(min_value=1, max_value=4))
        node = client % 2
        dur = draw(st.floats(min_value=0.1, max_value=2.0,
                             allow_nan=False))
        if draw(st.booleans()) or key not in latest:
            version = (latest.get(key, (0, -1))[0] + 1, node)
            specs.append((client, "write", key, version, clock,
                          clock + dur, {"node": node}))
            latest[key] = version
        else:
            specs.append((client, "read", key, latest[key], clock,
                          clock + dur, {"node": node}))
        clock += dur + 0.01
    return specs


@given(sequential_history())
@settings(max_examples=60, deadline=None)
def test_no_false_positives_on_sequential_histories(specs):
    prep = _prep(specs)
    for name, checker in CONSISTENCY_CHECKERS.items():
        assert checker(prep).ok, name
    assert check_no_phantom(prep).ok


@st.composite
def concurrent_single_key_history(draw):
    """Small random single-key histories with unique tokens and
    arbitrary overlap, for cross-checking against Wing & Gong."""
    writes = draw(st.integers(min_value=1, max_value=4))
    reads = draw(st.integers(min_value=0, max_value=4))
    specs = []
    for i in range(writes):
        invoke = draw(st.floats(min_value=0.0, max_value=10.0,
                                allow_nan=False))
        dur = draw(st.floats(min_value=0.1, max_value=5.0,
                             allow_nan=False))
        specs.append((i + 1, "write", 0, (i + 1, 0), invoke,
                      invoke + dur))
    for j in range(reads):
        invoke = draw(st.floats(min_value=0.0, max_value=10.0,
                                allow_nan=False))
        dur = draw(st.floats(min_value=0.1, max_value=5.0,
                             allow_nan=False))
        token = draw(st.integers(min_value=0, max_value=writes))
        version = (token, 0) if token else (0, -1)
        specs.append((writes + j + 1, "read", 0, version, invoke,
                      invoke + dur))
    return specs


@given(concurrent_single_key_history())
@settings(max_examples=150, deadline=None)
def test_cluster_graph_matches_wing_gong(specs):
    from repro.analysis.linearizability import (HistoryOp,
                                                check_linearizable as _wg)
    prep = _prep(specs)
    fast = check_linearizable(prep)
    exact = _wg([HistoryOp(op_type=s[1], value=tuple(s[3]),
                           invoke=s[4], respond=s[5]) for s in specs],
                initial_value=(0, -1), max_states=500_000)
    assert fast.ok == exact.ok, specs
