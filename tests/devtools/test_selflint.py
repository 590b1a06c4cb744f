"""The repo self-lints clean — the CI gate, as a test.

If this fails, either new code broke a determinism/tracer/dispatch
invariant, or it needs an inline waiver with a justification.
"""

from repro.devtools import run_lint

from .conftest import REPO_ROOT


def _paths(*names):
    return [str(REPO_ROOT / name) for name in names]


class TestSelfLint:
    def test_src_is_clean(self):
        result = run_lint(_paths("src"))
        assert result.clean, "\n" + "\n".join(
            f.format() for f in result.unwaived)

    def test_whole_repo_is_clean(self):
        result = run_lint(_paths("src", "tests", "benchmarks"))
        assert result.clean, "\n" + "\n".join(
            f.format() for f in result.unwaived)

    def test_waivers_in_tree_are_all_used_and_justified(self):
        # run_lint already turns stale/malformed waivers into findings;
        # this documents the current deliberate waiver count.
        result = run_lint(_paths("src", "tests", "benchmarks"))
        assert result.clean
        assert len(result.waived) >= 4
        for finding in result.waived:
            assert finding.waive_reason

    def test_all_rules_ran(self):
        result = run_lint(_paths("src"))
        assert {"rng-discipline", "wall-clock-ban", "tracer-guard",
                "tracer-truthiness", "unordered-iteration",
                "dispatch-completeness", "mutable-default",
                "bare-except"} == set(result.rules)
