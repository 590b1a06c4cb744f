"""The markdown link checker catches what it claims — and the repo's
own docs pass it (the same invocation CI runs)."""

import importlib.util
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]

spec = importlib.util.spec_from_file_location(
    "mdlint", ROOT / "tools" / "mdlint.py")
mdlint = importlib.util.module_from_spec(spec)
sys.modules.setdefault("mdlint", mdlint)
spec.loader.exec_module(mdlint)


class TestSlugs:
    @pytest.mark.parametrize("heading,slug", [
        ("Operator's handbook", "operators-handbook"),
        ("The 5×5 model matrix", "the-55-model-matrix"),
        ("Run report (`repro.run_report/6`)",
         "run-report-reprorun_report6"),
        ("`repro run` — simulate one model",
         "repro-run--simulate-one-model"),
        ("**Bold** and _tail_", "bold-and-_tail_"),
        ("CamelCase & symbols!?", "camelcase--symbols"),
    ])
    def test_github_rules(self, heading, slug):
        assert mdlint.github_slug(heading, {}) == slug

    def test_duplicates_suffixed(self):
        seen = {}
        assert mdlint.github_slug("Same", seen) == "same"
        assert mdlint.github_slug("Same", seen) == "same-1"
        assert mdlint.github_slug("Same", seen) == "same-2"

    def test_headings_inside_fences_ignored(self):
        text = "# Real\n```\n# not a heading\n```\n## Also real\n"
        assert mdlint.heading_slugs(text) == ["real", "also-real"]


class TestChecker:
    def write(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text)
        return path

    def check(self, *paths):
        checker = mdlint.Checker()
        for path in paths:
            checker.check_file(path)
        return checker.errors

    def test_clean_cross_file_link_and_anchor(self, tmp_path):
        self.write(tmp_path, "other.md", "# Target Heading\n")
        doc = self.write(tmp_path, "doc.md",
                         "[ok](other.md) and "
                         "[anchored](other.md#target-heading) and "
                         "[external](https://example.com/x)\n")
        assert self.check(doc) == []

    def test_missing_file_reported_with_line(self, tmp_path):
        doc = self.write(tmp_path, "doc.md", "\n\n[bad](missing.md)\n")
        (error,) = self.check(doc)
        assert "doc.md:3" in error and "missing.md" in error

    def test_bad_anchor_reported(self, tmp_path):
        self.write(tmp_path, "other.md", "# Only Heading\n")
        doc = self.write(tmp_path, "doc.md", "[bad](other.md#nope)\n")
        (error,) = self.check(doc)
        assert "nope" in error

    def test_same_file_anchor(self, tmp_path):
        doc = self.write(tmp_path, "doc.md",
                         "# A Heading\n[up](#a-heading)\n[bad](#nope)\n")
        (error,) = self.check(doc)
        assert "#nope" in error

    def test_links_in_code_blocks_ignored(self, tmp_path):
        doc = self.write(tmp_path, "doc.md",
                         "```\n[fake](nowhere.md)\n```\n"
                         "inline `[fake](nowhere.md)` too\n")
        assert self.check(doc) == []

    def test_reference_style_links(self, tmp_path):
        self.write(tmp_path, "other.md", "# H\n")
        doc = self.write(tmp_path, "doc.md",
                         "[good][a] [dangling][b]\n\n[a]: other.md\n")
        (error,) = self.check(doc)
        assert "[b]" in error

    def test_anchor_into_non_markdown_skipped(self, tmp_path):
        self.write(tmp_path, "code.py", "x = 1\n")
        doc = self.write(tmp_path, "doc.md", "[src](code.py#L1)\n")
        assert self.check(doc) == []

    def test_quoted_contract_grid_must_match_the_table(self, tmp_path):
        """A quoted figure that disagrees with its source fails."""
        block = ("<!-- contract-grid:begin -->\n{}\n"
                 "<!-- contract-grid:end -->\n")
        grid = mdlint.contract_grid()
        assert grid.count("\n") == 6 and "durable linearizability" in grid
        doc = self.write(tmp_path, "doc.md", "# H\n\n" + block.format(grid))
        assert self.check(doc) == []
        forked = grid.replace("`read_values`", "`completed_writes`", 1)
        doc = self.write(tmp_path, "doc.md",
                         "# H\n\n" + block.format(forked))
        (error,) = self.check(doc)
        assert "doc.md:3" in error and "contract grid differs" in error
        assert "contract-grid:begin" in (ROOT / "docs"
                                         / "handbook.md").read_text()

    def test_quoted_schema_tags_must_be_known_and_current(self, tmp_path):
        """The README drift this check was added for: a doc that still
        says ``run_report/5`` once the writers moved on fails by line."""
        from repro.obs.schemas import RUN_REPORT_SCHEMA, schema_tags

        old = schema_tags("repro.run_report")[-2]
        text = (f"writes `{RUN_REPORT_SCHEMA}`\n"
                f"reads `repro.run_report/5..6`\n"
                f"writes `{old}`\n"
                "and `repro.run_report/99`, `repro.nonesuch/1`\n")
        errors = self.check(self.write(tmp_path, "doc.md", text))
        stale, bad_version, bad_family = (
            e.split("doc.md:")[1] for e in errors)
        assert stale == (f"3: stale schema tag '{old}': current is "
                         f"'{RUN_REPORT_SCHEMA}'")
        assert bad_version.startswith(
            "4: unknown repro.run_report version /99")
        assert bad_family.startswith(
            "4: unknown artifact family 'repro.nonesuch'")
        # A change log's "current" was current when it was written.
        logged = self.check(self.write(tmp_path, "CHANGES.md", text))
        assert len(logged) == 2 and not any("stale" in e for e in logged)
        # A retired version is history in a change log, unknown elsewhere.
        retired = "the `repro.run_report/3` document\n"
        assert self.check(self.write(tmp_path, "CHANGES.md", retired)) == []
        (error,) = self.check(self.write(tmp_path, "doc.md", retired))
        assert "unknown repro.run_report version /3" in error
        # So is a retired family.
        retired = "the `repro.kernel_profile/1` document\n"
        assert self.check(self.write(tmp_path, "CHANGES.md", retired)) == []
        (error,) = self.check(self.write(tmp_path, "doc.md", retired))
        assert "doc.md:1: unknown artifact family 'repro.kernel_profile'" \
            in error

    @pytest.mark.parametrize("name", ["README.md", "handbook.md"])
    def test_documented_commands_must_parse(self, tmp_path, name):
        """A doc that still shows a removed flag fails by line; the
        shell around a command (prompt, environment, continuations,
        comments, redirections) is not part of it."""
        doc = self.write(tmp_path, name, "\n".join([
            "# CLI", "",
            "`python -m repro.cli journey --key 7` outside a fence",
            "```bash",
            "$ PYTHONPATH=src python -m repro.cli run --seed 7 \\",
            ">     --journeys --metrics-out j.json   # then read it back",
            "python -m repro.cli journey j.json > waterfall.txt",
            "python -m repro.cli order --seeds 1 2 2>&1 | tail -1",
            "$ python -m repro.cli journey --consistency causal \\",
            ">     --key 7",
            "python -m repro.cli profile --duration-us 300",
            "```", ""]))
        errors = self.check(doc)
        assert [e.split(": ")[0] for e in errors] == [
            f"{doc}:9", f"{doc}:11"]
        assert "`repro journey --consistency causal --key 7` does not " \
               "parse" in errors[0]
        assert "unrecognized arguments: --duration-us" in errors[1]
        # Only the command docs are held to the parser.
        assert self.check(self.write(tmp_path, "notes.md",
                                     doc.read_text())) == []


def test_repository_docs_are_clean(capsys):
    """The gate CI enforces: every *.md at the root and under docs/."""
    targets = [str(p) for p in sorted(ROOT.glob("*.md"))]
    targets.append(str(ROOT / "docs"))
    assert mdlint.main(targets) == 0, capsys.readouterr().out
