"""Property-based tests of causal delivery (happens-before safety).

A follower receiving UPD messages in *arbitrary* order must only apply
an update after every update in its causal history is visible (and,
under Synchronous persistency, durable).  Hypothesis generates random
dependency chains/DAGs and random delivery permutations; a replica
observer records the actual apply/persist order for checking.
"""

# Hypothesis draws the seed; the local Random is derived deterministically from it.
import random as stdlib_random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.messages import Message, MsgType
from repro.core.model import Consistency as C, DdpModel, Persistency as P
from tests.harness import idle


class OrderRecorder:
    """Tracer capturing apply/persist order at every node."""

    enabled = True

    def __init__(self):
        self.events = []  # (time, kind, node, key, version)

    def emit(self, time, category, node=None, **details):
        if category in ("apply", "persist"):
            self.events.append((time, category, node,
                                details["key"], details["version"]))

    def time_of(self, kind, node, key, version):
        for time, k, n, ky, v in self.events:
            if k == kind and n == node and ky == key and v == version:
                return time
        return None


def build_updates(num_writes, num_keys, extra_dep_seed):
    """A chain of writes (each depending on its predecessor) plus random
    extra dependencies on earlier writes."""
    rng = stdlib_random.Random(extra_dep_seed)
    updates = []
    versions = {}
    for i in range(num_writes):
        key = i % num_keys
        versions[key] = versions.get(key, 0) + 1
        version = (versions[key], 0)
        deps = []
        if updates:
            prev = updates[-1]
            deps.append((prev.key, prev.version))
            if len(updates) > 1 and rng.random() < 0.4:
                other = rng.choice(updates[:-1])
                if other.key != key:
                    deps.append((other.key, other.version))
        updates.append(Message(MsgType.UPD, src=0, op_id=100 + i, key=key,
                               version=version, value=f"w{i}",
                               cauhist=tuple(deps)))
    return updates


def deliver_and_check(persistency, num_writes, num_keys, perm_seed,
                      extra_dep_seed):
    recorder = OrderRecorder()
    cluster = idle(DdpModel(C.CAUSAL, persistency), tracer=recorder)
    follower = cluster.engines[1]
    updates = build_updates(num_writes, num_keys, extra_dep_seed)
    order = list(updates)
    stdlib_random.Random(perm_seed).shuffle(order)
    for message in order:
        follower.nic.sink(message)
        cluster.sim.run(until=cluster.sim.now + 200)
    cluster.sim.run(until=cluster.sim.now + 1_000_000)

    # Everything applied, nothing left buffered.
    assert follower.causal_buffer_len == 0
    for message in updates:
        applied_at = recorder.time_of("apply", 1, message.key,
                                      message.version)
        assert applied_at is not None, f"{message} never applied"
        for dep_key, dep_version in message.cauhist:
            dep_applied = recorder.time_of("apply", 1, dep_key, dep_version)
            assert dep_applied is not None
            assert dep_applied <= applied_at, (
                f"{message} applied before dependency "
                f"({dep_key}, {dep_version})")
            if persistency is P.SYNCHRONOUS:
                dep_persisted = recorder.time_of("persist", 1, dep_key,
                                                 dep_version)
                assert dep_persisted is not None
                assert dep_persisted <= applied_at, (
                    f"{message} applied before dependency persisted")


@given(num_writes=st.integers(min_value=1, max_value=12),
       num_keys=st.integers(min_value=1, max_value=4),
       perm_seed=st.integers(min_value=0, max_value=10_000),
       extra_dep_seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_causal_eventual_respects_happens_before(num_writes, num_keys,
                                                 perm_seed, extra_dep_seed):
    deliver_and_check(P.EVENTUAL, num_writes, num_keys, perm_seed,
                      extra_dep_seed)


@given(num_writes=st.integers(min_value=1, max_value=10),
       num_keys=st.integers(min_value=1, max_value=3),
       perm_seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=15, deadline=None)
def test_causal_synchronous_deps_persist_first(num_writes, num_keys,
                                               perm_seed):
    deliver_and_check(P.SYNCHRONOUS, num_writes, num_keys, perm_seed,
                      extra_dep_seed=0)


def test_reverse_delivery_of_long_chain():
    """Worst case: the whole chain arrives in exactly reverse order."""
    recorder = OrderRecorder()
    cluster = idle(DdpModel(C.CAUSAL, P.SYNCHRONOUS), tracer=recorder)
    follower = cluster.engines[1]
    updates = build_updates(num_writes=15, num_keys=3, extra_dep_seed=0)
    peak = 0
    for message in reversed(updates):
        follower.nic.sink(message)
        cluster.sim.run(until=cluster.sim.now + 200)
        peak = max(peak, follower.causal_buffer_len)
    cluster.sim.run(until=cluster.sim.now + 1_000_000)
    assert peak >= 10          # nearly the whole chain had to buffer
    assert follower.causal_buffer_len == 0
    last = updates[-1]
    assert follower.replicas.get(last.key).applied_value == last.value
