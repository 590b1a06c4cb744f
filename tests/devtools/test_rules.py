"""Per-rule fixture tests: one failing + one passing fixture per rule.

A rule whose failing fixture stops firing is dead code — these tests
are the acceptance criterion that every rule actually bites.
"""

import pytest


def rules_hit(result):
    return sorted({f.rule for f in result.unwaived})


class TestRngDiscipline:
    def test_fires_on_bad_fixture(self, lint_fixture):
        result = lint_fixture("rng_bad.py", rules=["rng-discipline"])
        findings = result.unwaived
        assert len(findings) == 4  # random, uuid, secrets, os.urandom
        assert all(f.rule == "rng-discipline" for f in findings)
        assert any("os.urandom" in f.message for f in findings)
        assert any("SeededStream" in f.message for f in findings)

    def test_clean_fixture_passes(self, lint_fixture):
        assert lint_fixture("rng_good.py",
                            rules=["rng-discipline"]).clean

    def test_sim_rng_is_the_allowed_seam(self, lint_fixture):
        result = lint_fixture("rng_bad.py", rules=["rng-discipline"],
                              virtual_path="src/repro/sim/rng.py")
        assert result.clean

    def test_applies_outside_src_too(self, lint_fixture):
        result = lint_fixture("rng_bad.py", rules=["rng-discipline"],
                              virtual_path="tests/test_whatever.py")
        assert not result.clean


class TestWallClockBan:
    def test_fires_on_bad_fixture(self, lint_fixture):
        result = lint_fixture("wallclock_bad.py", rules=["wall-clock-ban"])
        messages = [f.message for f in result.unwaived]
        assert len(messages) == 3  # time.time, datetime.now, hash
        assert any("time.time" in m for m in messages)
        assert any("datetime.now" in m for m in messages)
        assert any("hash()" in m for m in messages)

    def test_clean_fixture_passes(self, lint_fixture):
        assert lint_fixture("wallclock_good.py",
                            rules=["wall-clock-ban"]).clean

    def test_scoped_to_src(self, lint_fixture):
        result = lint_fixture("wallclock_bad.py", rules=["wall-clock-ban"],
                              virtual_path="benchmarks/test_speed.py")
        assert result.clean  # benchmarks may time themselves


class TestTracerGuard:
    def test_fires_on_bad_fixture(self, lint_fixture):
        result = lint_fixture("tracer_bad.py",
                              rules=["tracer-guard", "tracer-truthiness"])
        assert rules_hit(result) == ["tracer-guard", "tracer-truthiness"]
        guard = [f for f in result.unwaived if f.rule == "tracer-guard"]
        truthy = [f for f in result.unwaived
                  if f.rule == "tracer-truthiness"]
        assert len(guard) == 1  # the unguarded emit
        assert len(truthy) == 2  # `tracer or None` and `if tracer:`

    def test_all_guard_patterns_accepted(self, lint_fixture):
        result = lint_fixture("tracer_good.py",
                              rules=["tracer-guard", "tracer-truthiness"])
        assert result.clean


class TestUnorderedIteration:
    def test_fires_on_bad_fixture(self, lint_fixture):
        result = lint_fixture("iteration_bad.py",
                              rules=["unordered-iteration"])
        findings = result.unwaived
        # set(...)-typed attribute, dict.keys()/.items()/.values(),
        # *_set attribute, and the two effectful comprehensions.
        assert len(findings) == 7
        assert all("sorted" in f.message for f in findings)
        comps = [f for f in findings if "comprehension" in f.message]
        assert len(comps) == 2

    def test_sorted_iteration_passes(self, lint_fixture):
        assert lint_fixture("iteration_good.py",
                            rules=["unordered-iteration"]).clean


class TestHygiene:
    def test_fires_on_bad_fixture(self, lint_fixture):
        result = lint_fixture("hygiene_bad.py",
                              rules=["mutable-default", "bare-except"])
        mutable = [f for f in result.unwaived
                   if f.rule == "mutable-default"]
        bare = [f for f in result.unwaived if f.rule == "bare-except"]
        assert len(mutable) == 3  # [], {}, set()
        assert len(bare) == 1

    def test_clean_fixture_passes(self, lint_fixture):
        assert lint_fixture("hygiene_good.py",
                            rules=["mutable-default", "bare-except"]).clean


class TestRuleCatalog:
    def test_every_rule_documents_its_invariant(self):
        from repro.devtools import all_rules
        rules = all_rules()
        assert len(rules) >= 8
        for rule in rules:
            assert rule.summary, rule.id
            assert rule.guards, rule.id

    def test_expected_ids_present(self):
        from repro.devtools import all_rules
        ids = {rule.id for rule in all_rules()}
        assert {"rng-discipline", "wall-clock-ban", "tracer-guard",
                "tracer-truthiness", "unordered-iteration",
                "dispatch-completeness", "mutable-default",
                "bare-except"} == ids

    def test_unknown_rule_id_is_usage_error(self, lint_fixture):
        from repro.devtools import UsageError
        with pytest.raises(UsageError):
            lint_fixture("rng_good.py", rules=["no-such-rule"])
