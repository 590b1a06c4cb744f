"""Tests that the behavioral policies encode the paper's protocols."""

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.config import ClusterConfig
from repro.core.contracts import contract_for
from repro.core.model import (Consistency as C, DdpModel, Persistency as P,
                              all_ddp_models)
from repro.core.policies import (
    ACK_AFTER_PERSIST,
    CONSISTENCY_POLICIES,
    PERSISTENCY_POLICIES,
    placement,
    policy_for,
)


class TestConsistencyPolicies:
    def test_only_linearizable_blocks_writes_on_acks(self):
        for c, policy in CONSISTENCY_POLICIES.items():
            assert policy.write_waits_for_acks == (c is C.LINEARIZABLE)

    def test_invalidation_models(self):
        for c, policy in CONSISTENCY_POLICIES.items():
            assert policy.uses_inv == (c in (C.LINEARIZABLE, C.READ_ENFORCED,
                                             C.TRANSACTIONAL))

    def test_read_stall_models(self):
        """Linearizable and Read-Enforced reads stall until validation."""
        stalling = {c for c, p in CONSISTENCY_POLICIES.items()
                    if p.read_stalls_on_transient}
        assert stalling == {C.LINEARIZABLE, C.READ_ENFORCED}

    def test_flags_exclusive(self):
        causal = CONSISTENCY_POLICIES[C.CAUSAL]
        assert causal.causal and not causal.transactional
        txn = CONSISTENCY_POLICIES[C.TRANSACTIONAL]
        assert txn.transactional and not txn.causal
        eventual = CONSISTENCY_POLICIES[C.EVENTUAL]
        assert eventual.lazy_propagation


class TestPersistencyPolicies:
    def test_persist_modes(self):
        """When a replica persists is a plain write's placement: before
        the acknowledgment (Strict / Synchronous), eagerly behind it,
        lazily, or not with the write at all (Scope)."""
        modes = {P.STRICT: "strict", P.SYNCHRONOUS: "inline",
                 P.READ_ENFORCED: "eager", P.SCOPE: None, P.EVENTUAL: "lazy"}
        for model in all_ddp_models():
            assert placement(model) == modes[model.persistency]
        for p, policy in PERSISTENCY_POLICIES.items():
            assert policy.scoped == (p is P.SCOPE)

    def test_only_strict_blocks_writes_on_durability(self):
        for p, policy in PERSISTENCY_POLICIES.items():
            assert (policy.write_waits_for_persist_everywhere
                    == (p is P.STRICT))

    def test_only_read_enforced_stalls_reads_on_persist(self):
        for p, policy in PERSISTENCY_POLICIES.items():
            assert (policy.read_requires_applied_persisted
                    == (p is P.READ_ENFORCED))

    def test_dual_acks_only_read_enforced(self):
        for p, policy in PERSISTENCY_POLICIES.items():
            assert policy.dual_acks == (p is P.READ_ENFORCED)

    def test_sync_reads_return_persisted(self):
        assert PERSISTENCY_POLICIES[P.SYNCHRONOUS].read_returns_persisted
        assert not PERSISTENCY_POLICIES[P.EVENTUAL].read_returns_persisted

    def test_deps_require_persist(self):
        """Figure 2(f): under Synchronous persistency a causal update's
        dependencies must be durable before it applies."""
        assert PERSISTENCY_POLICIES[P.SYNCHRONOUS].deps_require_persist
        assert PERSISTENCY_POLICIES[P.STRICT].deps_require_persist
        assert not PERSISTENCY_POLICIES[P.EVENTUAL].deps_require_persist


def test_policy_for_returns_pair():
    cpolicy, ppolicy = policy_for(DdpModel(C.CAUSAL, P.SCOPE))
    assert cpolicy.model is C.CAUSAL
    assert ppolicy.model is P.SCOPE


#: persistency -> what places a write's local persist at
#: (coordinator, follower), each as (plain, inside a transaction).
PLACEMENT = {
    P.STRICT: (("strict", "strict"), ("strict", "strict")),
    P.SYNCHRONOUS: (("inline", None), ("inline", None)),
    P.READ_ENFORCED: (("eager", "eager"), ("eager", "eager")),
    P.SCOPE: ((None, None), (None, None)),
    P.EVENTUAL: (("lazy", "lazy"), ("lazy", "lazy")),
}


class TestPlacement:
    @pytest.mark.parametrize("model", all_ddp_models(), ids=str)
    def test_the_table(self, model):
        cpolicy, _ = policy_for(model)
        for follower in (False, True):
            expected = PLACEMENT[model.persistency][follower]
            if follower and not cpolicy.uses_inv and model.persistency is P.STRICT:
                # Persisted (and ACK_p'd) on receipt, ahead of the deposit.
                expected = (None, None)
            assert (placement(model, False, follower),
                    placement(model, True, follower)) == expected
        # ... and the engine asks once, at construction.
        engine = Cluster(model, config=ClusterConfig(
            servers=2, clients_per_server=0, store_type=None)).engines[0]
        assert engine._coordinator_places == (placement(model),
                                              placement(model, True))
        assert engine._follower_places == (
            placement(model, follower=True), placement(model, True, True))

    @pytest.mark.parametrize("model", all_ddp_models(), ids=str)
    def test_what_the_contract_owes_is_placed_in_time(self, model):
        cpolicy, ppolicy = policy_for(model)
        owed = contract_for(model).durability
        in_txn = cpolicy.transactional
        coordinator = placement(model, in_txn)
        follower = placement(model, in_txn, follower=True)
        if "completed_writes" in owed:
            # The persist comes before the acknowledgment that completes
            # the write, at both ends of the round ...
            if in_txn and coordinator is None:
                # ... which for a transaction's write is the ENDX round's.
                assert follower is None
                assert placement(model) in ACK_AFTER_PERSIST
            else:
                assert coordinator in ACK_AFTER_PERSIST
                assert follower in ACK_AFTER_PERSIST or (
                    not cpolicy.uses_inv
                    and ppolicy.write_waits_for_persist_everywhere)
        if "read_values" in owed:
            # The persist is asked for with the write, and reads are held
            # to it: they stall on it or return the persisted version.
            for placed in (coordinator, follower):
                assert placed in ("inline", "eager")
            assert (ppolicy.read_requires_applied_persisted
                    or ppolicy.read_returns_persisted)
