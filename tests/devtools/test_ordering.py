"""The static half of the determinism certificate.

Covers the interprocedural effect analysis (callgraph + effects), the
three ordering rules through the lint machinery, the golden effect-set
pins for every dispatch handler, and the static side of the injected
non-commuting mutation (the ``ordering_bad`` fixture engine — its
dynamic twin lives in test_sanitizer.py).
"""

import json
from pathlib import Path

from repro.devtools.cli import (ORDER_RULES, effects_document,
                                flagged_message_pairs)
from repro.devtools.effects import analyze_engines, conflicts
from repro.devtools.engine import FileContext, run_lint

from .conftest import FIXTURES, REPO_ROOT

GOLDEN = Path(__file__).resolve().parent / "golden_effects.json"

ENGINE_SOURCES = ["src/repro/core/engine.py", "src/repro/variants/leader.py",
                  "src/repro/hybrid/engine.py"]


def _contexts_from(name):
    source = (FIXTURES / name).read_text(encoding="utf-8")
    return [FileContext.from_source("src/repro/fx.py", source)]


def _src_reports():
    return analyze_engines([
        FileContext.from_file(str(REPO_ROOT / "src" / p))
        for p in ("repro/core/engine.py", "repro/core/replica.py",
                  "repro/variants/leader.py", "repro/hybrid/engine.py")])


class TestEffectAnalysis:
    def test_raw_conflict_detected(self):
        reports = analyze_engines(_contexts_from("ordering_bad.py"))
        found = conflicts(reports["RacyEngine"])
        locations = {c.location for c in found}
        assert "store.slot" in locations
        pairs = {c.pair for c in found}
        # the raw writer conflicts with itself and with the reader
        assert ("_on_inv", "_on_inv") in pairs
        assert ("_on_ack", "_on_inv") in pairs

    def test_referenced_callback_charges_the_handler_that_scheduled_it(self):
        """``sim.call_at(now, self._later, message)`` calls nothing, yet
        ``_later`` runs for the handler: a bare bound-method reference
        carries the method's effects, exactly as calling it would."""
        reports = analyze_engines(_contexts_from("ordering_bad.py"))
        by_handler = {r.handler: r for r in reports["RacyEngine"]}
        assert by_handler["_on_upd"].effects.summary() == [
            "w store.slot", "wm sched"]
        pairs = {c.pair for c in conflicts(reports["RacyEngine"])}
        assert ("_on_upd", "_on_upd") in pairs
        assert ("_on_inv", "_on_upd") in pairs

    def test_commuting_engine_is_clean(self):
        reports = analyze_engines(_contexts_from("ordering_good.py"))
        assert conflicts(reports["CommutingEngine"]) == []
        # and nothing escaped the model
        for report in reports["CommutingEngine"]:
            assert not report.effects.unresolved

    def test_guarded_send_recorded(self):
        reports = analyze_engines(_contexts_from("ordering_bad.py"))
        by_handler = {r.handler: r for r in reports["RacyEngine"]}
        sends = by_handler["_on_ack"].effects.guarded_sends
        assert sends
        guards = set().union(*(g for _, g in sends))
        assert "store.slot" in guards

    def test_unresolved_call_surfaces(self):
        reports = analyze_engines(_contexts_from("ordering_bad.py"))
        by_handler = {r.handler: r for r in reports["RacyEngine"]}
        assert any("refresh" in call
                   for call in by_handler["_on_val"].effects.unresolved)

    def test_dispatch_inheritance_reaches_all_engines(self):
        reports = _src_reports()
        assert set(reports) == {"ProtocolNode", "LeaderProtocolNode",
                                "HybridProtocolNode"}
        for engine, handler_reports in reports.items():
            assert handler_reports, engine

    def test_src_handlers_fully_modeled(self):
        # Zero unresolved calls anywhere: the certificate has no holes.
        for engine, handler_reports in _src_reports().items():
            for report in handler_reports:
                assert not report.effects.unresolved, (
                    engine, report.handler, report.effects.unresolved)


class TestOrderingRules:
    def test_all_three_rules_fire_on_bad_fixture(self, lint_fixture):
        result = lint_fixture("ordering_bad.py", rules=ORDER_RULES)
        assert {f.rule for f in result.unwaived} == set(ORDER_RULES)

    def test_good_fixture_is_clean(self, lint_fixture):
        assert lint_fixture("ordering_good.py", rules=ORDER_RULES).clean

    def test_conflict_witness_is_the_raw_write_site(self, lint_fixture):
        result = lint_fixture("ordering_bad.py", rules=["effect-conflict"])
        direct, deferred = sorted(result.unwaived, key=lambda f: f.line)
        for finding in (direct, deferred):
            assert ".put()" in finding.message
            assert finding.extra["location"] == "store.slot"
        # the second put is only reachable through ``self._later``,
        # referenced (never called) by ``_on_upd``
        assert ["_on_upd", "_on_upd"] in deferred.extra["pairs"]
        assert ["_on_upd", "_on_upd"] not in direct.extra["pairs"]

    def test_src_is_certified(self):
        # The acceptance gate: repro order src/repro exits 0 — every
        # conflict waived with a justification, nothing unresolved.
        result = run_lint([str(REPO_ROOT / "src" / "repro")],
                          rule_ids=ORDER_RULES)
        assert result.clean, [f.format() for f in result.unwaived]
        assert result.waived  # the justified waivers are visible

    def test_src_waivers_carry_reasons(self):
        result = run_lint([str(REPO_ROOT / "src" / "repro")],
                          rule_ids=ORDER_RULES)
        for finding in result.waived:
            assert finding.waive_reason.strip()


class TestGoldenEffects:
    def test_effect_sets_are_pinned(self):
        # Regenerate with:
        #   repro order src/repro --effects-out \
        #       tests/devtools/golden_effects.json
        # and review the diff like a lockfile change: every altered line
        # is a handler gaining or losing an effect.
        golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
        current = effects_document(_src_reports())
        assert current == golden, (
            "handler effect sets changed; review and regenerate the "
            "golden file (see comment above)")

    def test_every_dispatch_handler_pinned(self):
        golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
        assert golden["schema"] == "repro.effects/1"
        for engine in ("ProtocolNode", "LeaderProtocolNode",
                       "HybridProtocolNode"):
            handlers = golden["engines"][engine]
            assert handlers
            for info in handlers.values():
                assert info["msg_types"]
                assert info["effects"]
                assert info["unresolved"] == []


class TestFlaggedMessagePairs:
    def test_handler_conflicts_translate_to_msg_pairs(self):
        reports = analyze_engines(_contexts_from("ordering_bad.py"))
        pairs = flagged_message_pairs(reports)
        assert ("INV", "INV") in pairs  # _on_inv~_on_inv
        assert ("ACK", "INV") in pairs  # _on_ack~_on_inv

    def test_src_flags_are_nonempty_and_sorted(self):
        pairs = flagged_message_pairs(_src_reports())
        assert pairs == sorted(pairs)
        assert all(a <= b for a, b in pairs)
