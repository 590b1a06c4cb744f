"""`repro lint` / `repro order` CLI: exit codes, --json schema, rule
listing, SARIF export, effect dumps."""

import json

import pytest

from repro.cli import main

BAD_ENGINE = '''\
class RacyEngine:
    _DISPATCH = {MsgType.INV: "_on_inv"}

    def __init__(self, store):
        self.store = store

    def _on_inv(self, message):
        self.store.put(message.key, message.value)
'''


class TestExitCodes:
    def test_zero_on_clean_tree(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        assert main(["lint", str(tmp_path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_one_on_findings(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("import random\n")
        assert main(["lint", str(tmp_path)]) == 1
        assert "rng-discipline" in capsys.readouterr().out

    def test_zero_when_findings_waived(self, tmp_path):
        (tmp_path / "waived.py").write_text(
            "import random  # repro: lint-ok[rng-discipline] fixture\n")
        assert main(["lint", str(tmp_path)]) == 0

    def test_two_on_missing_path(self, capsys):
        assert main(["lint", "no/such/dir"]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_two_on_unknown_rule(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        assert main(["lint", str(tmp_path), "--rules", "bogus"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_two_on_bad_usage(self):
        with pytest.raises(SystemExit) as exc:
            main(["lint", "--no-such-flag"])
        assert exc.value.code == 2


class TestJsonOutput:
    def test_schema_on_findings(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("import random\n")
        assert main(["lint", str(tmp_path), "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro.lint_report/1"
        assert doc["clean"] is False
        assert doc["total"] == 1
        assert doc["counts"]["rng-discipline"] == 1
        finding = doc["findings"][0]
        assert set(finding) >= {"rule", "path", "line", "col",
                                "message", "waived"}

    def test_schema_on_clean(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        assert main(["lint", str(tmp_path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["clean"] is True and doc["findings"] == []

    def test_waived_findings_visible_in_json(self, tmp_path, capsys):
        (tmp_path / "waived.py").write_text(
            "import random  # repro: lint-ok[rng-discipline] fixture\n")
        assert main(["lint", str(tmp_path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["waived"] == 1
        assert doc["findings"][0]["waive_reason"] == "fixture"


class TestRuleSelection:
    def test_rules_subset(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("import random\ny = {}\n")
        assert main(["lint", str(tmp_path), "--rules",
                     "bare-except"]) == 0

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("rng-discipline", "wall-clock-ban",
                        "tracer-guard", "unordered-iteration",
                        "dispatch-completeness", "mutable-default",
                        "bare-except"):
            assert rule_id in out
        assert "guards:" in out

    def test_show_waived(self, tmp_path, capsys):
        (tmp_path / "waived.py").write_text(
            "import random  # repro: lint-ok[rng-discipline] fixture\n")
        assert main(["lint", str(tmp_path), "--show-waived"]) == 0
        assert "[waived: fixture]" in capsys.readouterr().out


class TestSarif:
    def test_lint_sarif_document(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("import random\n")
        assert main(["lint", str(tmp_path), "--sarif"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "reprolint"
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert {"rng-discipline", "effect-conflict",
                "unused-waiver"} <= rule_ids
        [result] = run["results"]
        assert result["ruleId"] == "rng-discipline"
        region = result["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] == 1
        assert "suppressions" not in result

    def test_waived_findings_become_suppressions(self, tmp_path, capsys):
        (tmp_path / "waived.py").write_text(
            "import random  # repro: lint-ok[rng-discipline] fixture\n")
        assert main(["lint", str(tmp_path), "--sarif"]) == 0
        doc = json.loads(capsys.readouterr().out)
        [result] = doc["runs"][0]["results"]
        [suppression] = result["suppressions"]
        assert suppression["kind"] == "inSource"
        assert suppression["justification"] == "fixture"

    def test_rule_descriptors_carry_rationale(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        assert main(["lint", str(tmp_path), "--sarif"]) == 0
        doc = json.loads(capsys.readouterr().out)
        by_id = {r["id"]: r for r in doc["runs"][0]["tool"]["driver"]["rules"]}
        conflict = by_id["effect-conflict"]
        assert conflict["shortDescription"]["text"]
        assert "Guards:" in conflict["fullDescription"]["text"]


class TestOrderCommand:
    @staticmethod
    def _engine_dir(tmp_path, source=BAD_ENGINE):
        # The ordering rules are scoped to src/repro paths; mirror that
        # layout so the engine under test is in scope.
        pkg = tmp_path / "src" / "repro"
        pkg.mkdir(parents=True)
        (pkg / "engine.py").write_text(source)
        return pkg

    def test_zero_on_clean_tree(self, tmp_path, capsys):
        pkg = self._engine_dir(tmp_path, source="x = 1\n")
        assert main(["order", str(pkg)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_one_on_racy_engine(self, tmp_path, capsys):
        pkg = self._engine_dir(tmp_path)
        assert main(["order", str(pkg)]) == 1
        assert "effect-conflict" in capsys.readouterr().out

    def test_only_ordering_rules_run(self, tmp_path):
        # rng-discipline violations are lint's business, not order's
        pkg = self._engine_dir(tmp_path, source="import random\n")
        assert main(["order", str(pkg)]) == 0

    def test_sarif_output(self, tmp_path, capsys):
        pkg = self._engine_dir(tmp_path)
        assert main(["order", str(pkg), "--sarif"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["runs"][0]["tool"]["driver"]["name"] == "repro-order"
        assert doc["runs"][0]["results"][0]["ruleId"] == "effect-conflict"

    def test_effects_dump(self, tmp_path, capsys):
        pkg = self._engine_dir(tmp_path)
        assert main(["order", str(pkg), "--effects", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro.effects/1"
        handler = doc["engines"]["RacyEngine"]["_on_inv"]
        assert handler["msg_types"] == ["INV"]
        assert "w store.slot" in handler["effects"]

    def test_effects_out_writes_file(self, tmp_path, capsys):
        pkg = self._engine_dir(tmp_path)
        out = tmp_path / "golden.json"
        assert main(["order", str(pkg), "--effects-out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == "repro.effects/1"
        assert "wrote" in capsys.readouterr().out

    def test_two_on_missing_path(self, capsys):
        assert main(["order", "no/such/dir"]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_two_on_unparseable_seeds(self, tmp_path, capsys):
        assert main(["order", str(tmp_path), "--sanitize",
                     "--seeds", "x"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("repro: --seeds: ")
        assert captured.err.count("\n") == 1

    def test_one_on_vacuous_sweep(self, tmp_path, capsys, monkeypatch):
        # A sweep whose permuter never reordered anything must not pass
        # as "all byte-identical": it never put the claim to the test.
        from repro.devtools import sanitizer

        cell = sanitizer.CellResult(
            model="<Causal, Eventual>", baseline_digest="d", batches=5,
            max_batch=3, seeds={1: "d", 2: "d"}, permuted={1: 0, 2: 0})
        monkeypatch.setattr(
            sanitizer, "sweep", lambda **_kwargs: sanitizer.SweepResult(
                cells=[cell], ops_per_client=30, seeds=[1, 2]))
        pkg = self._engine_dir(tmp_path, source="x = 1\n")
        out = tmp_path / "sweep.json"
        assert main(["order", str(pkg), "--sanitize", "--seeds", "1,2",
                     "--sweep-out", str(out)]) == 1
        assert "VACUOUS <Causal, Eventual>" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert doc["schema"] == "repro.order_sweep/1"
        assert doc["ok"] is False
        assert doc["cells"][0]["vacuous"] is True
        assert set(doc["coverage"]) == {"flagged", "exercised", "uncovered"}
