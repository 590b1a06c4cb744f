"""Tests for DDP model definitions (paper Table 2 semantics)."""

import pytest

from repro.core.model import Consistency, DdpModel, Persistency, all_ddp_models
from repro.core.policies import (ACK_AFTER_PERSIST, CONSISTENCY_POLICIES,
                                 placement)


class TestConsistency:
    def test_five_models(self):
        assert len(list(Consistency)) == 5

    def test_strictness_order_matches_table2(self):
        order = sorted(Consistency, key=lambda c: c.strictness_rank)
        assert order == [
            Consistency.LINEARIZABLE,
            Consistency.READ_ENFORCED,
            Consistency.TRANSACTIONAL,
            Consistency.CAUSAL,
            Consistency.EVENTUAL,
        ]

    def test_visibility_points_verbatim(self):
        assert ("when the update takes place"
                in Consistency.LINEARIZABLE.visibility_point)
        assert ("before the update is read"
                in Consistency.READ_ENFORCED.visibility_point)
        assert ("transaction end"
                in Consistency.TRANSACTIONAL.visibility_point)
        assert ("happens-before" in Consistency.CAUSAL.visibility_point)
        assert ("future" in Consistency.EVENTUAL.visibility_point)

    def test_invalidation_based_models(self):
        """INV/ACK/VAL rounds vs. lazy UPDs (paper Section 5.1), stated
        once, as ``ConsistencyPolicy.uses_inv``."""
        assert [c for c in Consistency
                if CONSISTENCY_POLICIES[c].uses_inv] == [
            Consistency.LINEARIZABLE, Consistency.READ_ENFORCED,
            Consistency.TRANSACTIONAL]


class TestPersistency:
    def test_five_models(self):
        assert len(list(Persistency)) == 5

    def test_strictness_order_matches_table2(self):
        order = sorted(Persistency, key=lambda p: p.strictness_rank)
        assert order == [
            Persistency.STRICT,
            Persistency.SYNCHRONOUS,
            Persistency.READ_ENFORCED,
            Persistency.SCOPE,
            Persistency.EVENTUAL,
        ]

    def test_durability_points_verbatim(self):
        assert Persistency.STRICT.durability_point == \
            "when the update takes place"
        assert Persistency.SYNCHRONOUS.durability_point == \
            "at the visibility point of the update"
        assert Persistency.READ_ENFORCED.durability_point == \
            "before the update is read"
        assert Persistency.SCOPE.durability_point == \
            "before or at the scope end"
        assert Persistency.EVENTUAL.durability_point == \
            "sometime in the future"

    def test_inline_persistency_models(self):
        """Persists on the write's critical path at the replica, stated
        once, as a plain write's placement."""
        assert [p for p in Persistency
                if placement(DdpModel(Consistency.LINEARIZABLE, p))
                in ACK_AFTER_PERSIST] == [
            Persistency.STRICT, Persistency.SYNCHRONOUS]


class TestDdpModel:
    def test_all_25_combinations(self):
        models = all_ddp_models()
        assert len(models) == 25
        assert len(set(models)) == 25

    def test_str_format(self):
        model = DdpModel(Consistency.CAUSAL, Persistency.SYNCHRONOUS)
        assert str(model) == "<Causal, Synchronous>"

    def test_baseline_detection(self):
        baseline = DdpModel(Consistency.LINEARIZABLE, Persistency.SYNCHRONOUS)
        assert baseline.is_baseline
        other = DdpModel(Consistency.CAUSAL, Persistency.SYNCHRONOUS)
        assert not other.is_baseline

    def test_hashable_and_usable_as_key(self):
        d = {m: i for i, m in enumerate(all_ddp_models())}
        assert len(d) == 25

    def test_key_property(self):
        model = DdpModel(Consistency.EVENTUAL, Persistency.SCOPE)
        assert model.key == ("eventual", "scope")
