"""`repro order` CLI: the sanitizer sweep's verdict, exit codes and
artifact."""

import json

import pytest

from repro.cli import main
from repro.obs.schemas import validate_artifact


class TestOrderCommand:
    @staticmethod
    def _sweep_of(monkeypatch, permuted, digests=("d", "d")):
        """Stand in for the 25-model sweep with one hand-made cell."""
        from repro.devtools import sanitizer

        cell = sanitizer.CellResult(
            model="<Causal, Eventual>", baseline_digest="d", batches=5,
            max_batch=3, seeds=dict(zip((1, 2), digests)),
            permuted=dict(zip((1, 2), permuted)),
            observed_pairs=[("INV", "INV")])
        calls = []

        def sweep(**kwargs):
            calls.append(kwargs)
            return sanitizer.SweepResult(cells=[cell], ops_per_client=30,
                                         seeds=[1, 2])

        monkeypatch.setattr(sanitizer, "sweep", sweep)
        return calls

    def test_zero_on_byte_identical_sweep(self, capsys, monkeypatch):
        calls = self._sweep_of(monkeypatch, permuted=(3, 4))
        assert main(["order", "--seeds", "1", "2", "--ops", "12"]) == 0
        assert calls == [{"ops_per_client": 12, "seeds": [1, 2]}]
        assert capsys.readouterr().out == (
            "sanitizer: 1 model(s) x 2 seed(s), 7 batch permutation(s), "
            "all byte-identical\n")

    def test_one_on_diverged_sweep(self, capsys, monkeypatch):
        self._sweep_of(monkeypatch, permuted=(3, 4), digests=("d", "x"))
        assert main(["order"]) == 1
        out = capsys.readouterr().out
        assert "FAILED" in out
        assert "DIVERGED <Causal, Eventual>: seeds [2]" in out
        assert "('INV', 'INV')" in out

    def test_json_is_the_sweep_document(self, capsys, monkeypatch):
        self._sweep_of(monkeypatch, permuted=(3, 4))
        assert main(["order", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro.order_sweep/2"
        assert doc["ok"] is True and len(doc["cells"]) == 1
        validate_artifact(doc, family="repro.order_sweep")
        # /1, which also carried the static rules' `coverage`, still loads.
        validate_artifact(dict(doc, schema="repro.order_sweep/1"),
                          family="repro.order_sweep")

    def test_two_on_unparseable_seeds(self, capsys, monkeypatch):
        # The seeds are ``sweep --seeds``'s space-separated integers; a
        # comma list is no longer one.
        calls = self._sweep_of(monkeypatch, permuted=(3, 4))
        for seeds in (["x"], ["1,2"]):
            with pytest.raises(SystemExit) as exc:
                main(["order", "--seeds", *seeds])
            assert exc.value.code == 2, seeds
            captured = capsys.readouterr()
            assert captured.out == "", seeds
            assert captured.err.splitlines()[-1] == (
                f"repro order: error: argument --seeds: invalid int value: "
                f"'{seeds[0]}'"), seeds
        assert calls == []

    def test_one_on_vacuous_sweep(self, tmp_path, capsys, monkeypatch):
        # A sweep whose permuter never reordered anything must not pass
        # as "all byte-identical": it never put the claim to the test.
        self._sweep_of(monkeypatch, permuted=(0, 0))
        out = tmp_path / "sweep.json"
        assert main(["order", "--seeds", "1", "2",
                     "--sweep-out", str(out)]) == 1
        assert "VACUOUS <Causal, Eventual>" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert doc["schema"] == "repro.order_sweep/2"
        assert doc["ok"] is False
        assert doc["cells"][0]["vacuous"] is True
        assert "coverage" not in doc

    def test_two_on_an_empty_or_repeated_seed_list(self, capsys,
                                                     monkeypatch):
        # An empty list used to sweep no seed and pass; a repeated seed
        # ran twice and reported two seeds.
        calls = self._sweep_of(monkeypatch, permuted=(3, 4))
        with pytest.raises(SystemExit) as exc:
            main(["order", "--seeds"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "repro order: error: argument --seeds: expected at least one "
            "argument")
        assert main(["order", "--seeds", "1", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("repro: --seeds: 1 1 repeats a seed: each "
                                "seed runs once\n")
        assert calls == []

    def test_two_on_a_non_positive_ops_budget(self, capsys, monkeypatch):
        calls = self._sweep_of(monkeypatch, permuted=(3, 4))
        for ops in ("0", "-3"):
            with pytest.raises(SystemExit) as exc:
                main(["order", "--ops", ops])
            assert exc.value.code == 2, ops
            assert "must be positive" in capsys.readouterr().err, ops
        assert calls == []
