"""Order-sensitivity mutants: which checker notices when handlers stop
commuting?

The engine relies on one rule (Hermes, PAPERS.md): every key carries a
logical timestamp and last-writer-wins on it, so concurrent INVs/UPDs
commute and same-timestamp deliveries may be handled in any order.
Each mutant below breaks that rule at one site.  A mutant is ``(class,
method, old text, new text)``: ``old`` must occur exactly once in
``inspect.getsource(method)`` — a refactor that moves the site fails
here instead of silently mutating nothing — and the substituted
function is compiled and patched in for the duration of one check.

Four checkers are held against each mutant:

* ``static`` — the three ordering lint rules over the mutated source;
* ``sweep`` — the tie-batch sanitizer's permutation sweep;
* ``golden`` — the de-tied golden, then the leader/hybrid variant one;
* ``behaviour`` — a named test of the ordinary suite.

``KILLS`` is the table measured at this commit.  Tier-1 re-checks every
*kill* in it by running the one witness that showed it (a rule, a cell,
a test), which is cheap; a *miss* needs every cell of a checker to stay
unmoved, so the misses are re-measured on demand (~2 min)::

    PYTHONPATH=src python -m tests.integration.test_order_mutants
"""

from __future__ import annotations

import __future__

import importlib
import inspect
import sys
import textwrap
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple

import pytest

from repro.core.engine import ProtocolNode
from repro.core.model import (Consistency as C, DdpModel, Persistency as P,
                              all_ddp_models)
from repro.core.replica import KeyReplica
from repro.devtools.cli import ORDER_RULES
from repro.devtools.engine import iter_python_files, lint_sources
from repro.devtools.rules import ordering
from repro.devtools.sanitizer import sweep
from repro.sim.engine import Simulator

from .test_detied_equivalence import detied_golden

REPO_ROOT = Path(__file__).resolve().parents[2]

_FUTURE_FLAGS = sum(getattr(__future__, name).compiler_flag
                    for name in __future__.all_feature_names)


@dataclass(frozen=True)
class Mutant:
    owner: type
    method: str
    old: str
    new: str
    breaks: str
    """The rule the site upholds."""

    def _mutated_source(self) -> str:
        source = inspect.getsource(getattr(self.owner, self.method))
        assert source.count(self.old) == 1, (
            f"{self.owner.__name__}.{self.method}: the mutation site "
            f"occurs {source.count(self.old)} times, not once — the code "
            f"moved; re-aim the mutant")
        return source.replace(self.old, self.new)

    def function(self) -> Callable:
        """The method with the site substituted, compiled in its own
        module's globals and under its ``__future__`` flags."""
        original = getattr(self.owner, self.method)
        code = compile(textwrap.dedent(self._mutated_source()),
                       f"<mutant {self.owner.__name__}.{self.method}>",
                       "exec", dont_inherit=True,
                       flags=original.__code__.co_flags & _FUTURE_FLAGS)
        namespace: Dict[str, Callable] = {}
        exec(code, original.__globals__, namespace)
        return namespace[self.method]

    def file_source(self) -> Tuple[str, str]:
        """``(repo-relative path, text)`` of the owner's file with the
        site substituted — what the static rules read."""
        original = getattr(self.owner, self.method)
        path = Path(inspect.getsourcefile(original))
        lines, start = inspect.getsourcelines(original)
        text = path.read_text(encoding="utf-8").splitlines(keepends=True)
        text[start - 1:start - 1 + len(lines)] = [self._mutated_source()]
        return path.relative_to(REPO_ROOT).as_posix(), "".join(text)


_STORE_PUT = "self.store.put(message.key, replica.applied_value)"
_RAW_APPLY = ("replica.applied_version = message.version\n"
              "{indent}replica.applied_value = message.value\n"
              "{indent}replica.condition.notify()")

MUTANTS: Dict[str, Mutant] = {
    "M1": Mutant(
        ProtocolNode, "_install_update", _STORE_PUT,
        "self.store.put(message.key, message.value)",
        "the store holds the LWW winner, not the last UPD to land (the "
        "PR-8 clobber)"),
    "M1b": Mutant(
        ProtocolNode, "_inv_deposited", _STORE_PUT,
        "self.store.put(message.key, message.value)",
        "the store holds the LWW winner, not the last INV to land"),
    "M2": Mutant(
        KeyReplica, "apply",
        "if version <= self.applied_version:", "if False:",
        "a late older version never overwrites a newer one"),
    "M3": Mutant(
        ProtocolNode, "_on_val", "replica.end_inv(message.op_id)",
        "replica.inflight_invs.clear(); replica.condition.notify()",
        "a VAL ends its own invalidation only: the key stays Invalid "
        "while another writer's INV is outstanding"),
    "M4": Mutant(
        ProtocolNode, "_inv_deposited",
        "elif not replica.apply(message.version, message.value):\n"
        "            replica.absorb_superseded(message.version, "
        "message.value)",
        "else:\n            " + _RAW_APPLY.format(indent=" " * 12),
        "an INV's payload goes through the version guard"),
    "M5": Mutant(
        ProtocolNode, "_install_update",
        "replica.apply(message.version, message.value)",
        _RAW_APPLY.format(indent=" " * 8),
        "an UPD's payload goes through the version guard"),
    "M6": Mutant(
        KeyReplica, "mark_persisted",
        "if version <= self.persisted_version:", "if False:",
        "the persisted version is monotone"),
    "M7": Mutant(
        ProtocolNode, "_recheck_causal_waiters",
        "unmet = self._first_unmet_dep(message.cauhist)", "unmet = None",
        "a buffered causal update is released only once every "
        "dependency is visible, whatever order it was buffered in"),
}

#: Mutants no run can tell from the original, and why.
EQUIVALENT = {
    "M6": "every path to `mark_persisted` first passes the monotone "
          "`persist_requested` gate (`_request_persist`, the scope branch "
          "of `_ensure_persisted`) and one key's media writes finish in "
          "issue order (one bank, FIFO): a cluster run never hands it a "
          "version at or below the last one — only a unit test does",
}


def stamped_apply(self, version, value):
    """``test_sanitizer``'s ``TestInjectedMutation`` as one function:
    ``KeyReplica.apply`` stamping each value from one counter shared by
    every node of the run (kept on its simulator, so every run starts at
    zero and the sweep compares like with like).  The order handlers
    *start* in leaks into protocol state."""
    sim = self.condition.sim
    sim.applies = getattr(sim, "applies", 0) + 1
    if version <= self.applied_version:
        return False
    self.applied_version = version
    self.applied_value = (value, sim.applies)
    self.condition.notify()
    if self.observer is not None:
        self.observer("apply", self.key, version)
    return True


def applied(name: str, monkeypatch) -> None:
    if name == "stamped":
        monkeypatch.setattr(KeyReplica, "apply", stamped_apply)
    else:
        mutant = MUTANTS[name]
        monkeypatch.setattr(mutant.owner, mutant.method, mutant.function())


# ---------------------------------------------------------------------------
# the four checkers — each returns what killed the mutant, or None
# ---------------------------------------------------------------------------


def static_kill(mutant: Mutant) -> Optional[str]:
    """The ordering rules that fire, unwaived, on ``src/repro`` with the
    mutant's file substituted (they read source, not the patched
    class)."""
    path, text = mutant.file_source()
    sources = []
    for name in iter_python_files([str(REPO_ROOT / "src" / "repro")]):
        rel = Path(name).relative_to(REPO_ROOT).as_posix()
        sources.append((rel, text if rel == path
                        else Path(name).read_text(encoding="utf-8")))
    # The rules' analysis cache is keyed on id(ctx) of contexts that die
    # with each run, so a later run can be handed an earlier file set's
    # verdict (ROADMAP item 1).  Measure without it.
    ordering._CACHE.clear()
    result = lint_sources(sources, rule_ids=ORDER_RULES)
    ordering._CACHE.clear()
    return ", ".join(sorted({f.rule for f in result.unwaived})) or None


def sweep_kill(model: Optional[DdpModel] = None) -> Optional[str]:
    """The first cell whose permuted digest left its own baseline."""
    result = sweep(models=None if model is None else [model])
    return next((cell.model for cell in result.diverged), None)


VARIANT_CELLS = ("hybrid <Causal, Eventual>",
                 "hybrid <Linearizable, Synchronous>",
                 "leader <Linearizable, Synchronous>",
                 "leader <Read-Enforced, Read-Enforced>")


def golden_kill(only: Optional[str] = None) -> Optional[str]:
    """The first moved cell of the de-tied golden, then of the variant
    golden (``only``: look at that cell alone)."""
    golden = detied_golden.load_golden()
    for model in all_ddp_models():
        name = str(model)
        if only in (None, name) and (
                detied_golden.digests(detied_golden.run_cell(model))
                != detied_golden.digests(golden[name])):
            return name
    if only is None or only in VARIANT_CELLS:
        golden = detied_golden.load_golden(detied_golden.VARIANT_GOLDEN)
        cells = detied_golden.variant_cells()
        for name in VARIANT_CELLS:
            if only in (None, name) and (
                    detied_golden.digests(cells[name])
                    != detied_golden.digests(golden[name])):
                return name
    return None


def behaviour_kill(test: str, **kwargs: Any) -> Optional[str]:
    """Run ``module::[Class::]function`` as pytest would, fixtures and
    parameters passed by hand; killed when it fails."""
    module, *path = test.split("::")
    target = importlib.import_module(module)
    for part in path[:-1]:
        target = getattr(target, part)()
    function = getattr(target, path[-1])
    # A @given test called with explicit arguments: run that example.
    function = getattr(function, "hypothesis", function)
    function = getattr(function, "inner_test", function)
    try:
        function(**kwargs)
    except AssertionError:
        return test
    return None


# ---------------------------------------------------------------------------
# the table
# ---------------------------------------------------------------------------

_CONCURRENT_WRITERS = ("tests.core.test_engine_protocols::"
                       "TestLinearizableSynchronous::"
                       "test_concurrent_writers_serialize", dict)
_CONVERGE = "tests.integration.test_all_models::test_replicas_converge_after_quiesce"

#: mutant -> checker -> the witness that kills it; a checker not named
#: is a measured miss.  ``static``: the rules that fire.  ``sweep`` and
#: ``golden``: the first cell to move.  ``behaviour``: a test and what
#: builds the fixtures/parameters to call it with.
KILLS: Dict[str, Dict[str, Any]] = {
    "M1": {"static": "effect-conflict",
           "golden": "hybrid <Causal, Eventual>"},
    "M1b": {"static": "effect-conflict",
            "golden": "hybrid <Linearizable, Synchronous>"},
    "M2": {"golden": "<Linearizable, Scope>",
           "behaviour": _CONCURRENT_WRITERS},
    "M3": {"static": "untracked-effect",
           "golden": "<Linearizable, Strict>",
           "behaviour": (
               "tests.faults.test_fault_matrix::test_chaos_cocktail_all_models",
               lambda: {"model": DdpModel(C.LINEARIZABLE, P.SCOPE)})},
    "M4": {"static": "effect-conflict",
           "golden": "<Linearizable, Scope>",
           "behaviour": _CONCURRENT_WRITERS},
    "M5": {"static": "effect-conflict",
           "golden": "<Causal, Strict>",
           "behaviour": (_CONVERGE,
                         lambda: {"model": DdpModel(C.CAUSAL, P.EVENTUAL)})},
    "M6": {"behaviour": (
        "tests.core.test_messages_replica::TestKeyReplica::"
        "test_persisted_tracking",
        lambda: {"replica": KeyReplica(Simulator(), key=7)})},
    "M7": {"golden": "<Causal, Synchronous>",
           "behaviour": (
               "tests.core.test_causal_properties::"
               "test_causal_eventual_respects_happens_before",
               lambda: {"num_writes": 6, "num_keys": 3, "perm_seed": 1,
                        "extra_dep_seed": 0})},
    "stamped": {"sweep": "<Linearizable, Strict>",
                "golden": "hybrid <Causal, Eventual>",
                "behaviour": _CONCURRENT_WRITERS},
}


def witness_kill(name: str, checker: str, witness: Any) -> Optional[str]:
    """Does ``checker``'s one witness still kill mutant ``name``?"""
    if checker == "static":
        return static_kill(MUTANTS[name])
    with pytest.MonkeyPatch.context() as monkeypatch:
        applied(name, monkeypatch)
        if checker == "sweep":
            return sweep_kill(next(m for m in all_ddp_models()
                                   if str(m) == witness))
        if checker == "golden":
            return golden_kill(only=witness)
        test, arguments = witness
        return behaviour_kill(test, **arguments())


def measure(name: str) -> Dict[str, Optional[str]]:
    """One full row: every cell of every checker."""
    row = {"static": (static_kill(MUTANTS[name]) if name in MUTANTS
                      else None)}
    with pytest.MonkeyPatch.context() as monkeypatch:
        applied(name, monkeypatch)
        row["sweep"] = sweep_kill()
        row["golden"] = golden_kill()
        tests = {witnesses["behaviour"][0]: witnesses["behaviour"][1]
                 for witnesses in KILLS.values() if "behaviour" in witnesses}
        row["behaviour"] = next(
            (test for test, arguments in tests.items()
             if behaviour_kill(test, **arguments())), None)
    return row


@pytest.mark.parametrize("name, checker", [
    (name, checker) for name, witnesses in KILLS.items()
    for checker in witnesses])
def test_the_witness_still_kills(name, checker):
    witness = KILLS[name][checker]
    killed_by = witness_kill(name, checker, witness)
    expected = witness[0] if checker == "behaviour" else witness
    assert killed_by == expected, (
        f"{name} ({MUTANTS[name].breaks if name in MUTANTS else 'stamped'})"
        f" is no longer killed by {checker}")


@pytest.mark.parametrize("name", ["M2", "M6", "M7"])
def test_the_static_rules_miss(name):
    assert static_kill(MUTANTS[name]) is None


def test_every_mutant_is_killed_without_the_static_rules():
    assert set(KILLS) == {*MUTANTS, "stamped"}
    for name, witnesses in KILLS.items():
        dynamic = set(witnesses) - {"static"}
        assert dynamic, name
        if name in EQUIVALENT:
            assert dynamic == {"behaviour"}, name


def test_a_site_that_moved_fails_instead_of_mutating_nothing():
    stale = Mutant(KeyReplica, "apply", "if version < self.applied_version:",
                   "if False:", "")
    with pytest.raises(AssertionError, match="occurs 0 times"):
        stale.function()
    twice = Mutant(KeyReplica, "apply", "self.applied_v", "self.x", "")
    with pytest.raises(AssertionError, match="occurs 3 times"):
        twice.function()


if __name__ == "__main__":
    print("| mutant | static rules | sanitizer sweep | de-tied + variant "
          "goldens | behaviour tests |")
    print("|---|---|---|---|---|")
    for mutant_name in sys.argv[1:] or KILLS:
        measured = measure(mutant_name)
        print(f"| {mutant_name} | " + " | ".join(
            f"kill ({measured[c]})" if measured[c] else "miss"
            for c in ("static", "sweep", "golden", "behaviour")) + " |",
            flush=True)
