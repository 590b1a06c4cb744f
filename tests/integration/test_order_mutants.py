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

M8 and M9 are of another kind (ROADMAP 1, protocol bugs rather than
ordering ones).  In M8 the follower's persist placement answers
"nothing" where it answered "inline", so a Synchronous follower ACKs an
INV it never persisted.  In M9 the VAL_p round sends VAL_p without
waiting for the followers' ACK_p.  M10 breaks the crash model: a lazy
persist's timer outlives the crash that ended its incarnation, so after
a restart it admits a version the node lost.  Only the behaviour test
sees it; the contract checkers judge durability against the merged NVM
images, where an extra persist hides, until they judge it per replica
(ROADMAP item 4(b)).

Seven checkers are held against each mutant:

* ``sweep`` — the tie-batch sanitizer's permutation sweep;
* ``detied`` — the de-tied golden (per cell, a ``Summary`` digest and
  the ``cluster_digest`` of the state the run ends in);
* ``variant`` — the same pins for two leader and two hybrid clusters;
* ``faulty``, ``audit`` — ``validate_faulty_run`` and the black-box
  audit's verdict on its own cell, after a crash-restart run of
  ``CRASH_CELL``.  Both judge durability against the NVM logs of *all*
  nodes together, so neither sees M8: the coordinator's own inline
  persist keeps every completed write recoverable;
* ``health`` — the :class:`~repro.obs.monitor.HealthMonitor`'s online
  invariant probes, at the setting ``run --health`` uses, over the 25
  cells (3 servers, 12 clients, 40 us, seed 2021): killed when a probe
  records a violation;
* ``behaviour`` — a named test of the ordinary suite.  M1's is the
  white-box end-of-run check that each node's store holds its
  replica's applied value.  It kills ``stamped`` too (the coordinator
  stores the raw value, its replica the stamped one), and as the first
  witness listed it is the one the full table names for ``stamped``.

The probes earn little.  Clean runs trip none.  M2 and M4 each trip
``vp_before_dp`` in 13 cells and ``applied_monotonic`` in 10; every
other mutant — M1, M3, M6, M7, M8, M9 and ``stamped`` — trips
nothing.  Sampling every 1 us instead of 5 widens M2's and M4's kills
to 19 cells and kills no other mutant.
``persisted_monotonic`` fires on no mutant at all: it is a probe
without a kill, kept only because the committed baseline report's
``health.probes`` lists it.

One more, an interprocedural effect analysis behind three ordering
lint rules, was measured against the same mutants at the commit that added
this file: it killed M1, M3 and M4 (M1 and M4 then had twins, one per
copy of the site; it killed those too) and none of them alone, and
was deleted on that evidence (CHANGES.md, PR 21, has the table).  This
file is what stands in for it: ``KILLS`` names, per mutant, the
checkers that kill it, and tier-1 re-checks every *kill* by running
the witness that showed it (a cell, a test), which is cheap.  A
*miss* needs every cell of a checker to stay unmoved, so the full table
is re-measured on demand (~1.5 min)::

    PYTHONPATH=src python -m tests.integration.test_order_mutants
"""

from __future__ import annotations

import __future__

import importlib
import inspect
import sys
import textwrap
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

import pytest

from repro.core import engine
from repro.core.engine import ProtocolNode
from repro.core.model import (Consistency as C, DdpModel, Persistency as P,
                              all_ddp_models)
from repro.core.replica import KeyReplica
from repro.devtools.sanitizer import sweep
from repro.faults import (FaultInjector, plan_from_crash_specs,
                          validate_faulty_run)
from repro.obs.history import HistoryRecorder
from repro.obs.run import (CellSpec, ObservedRun, Observers, observed_run,
                           section_observers)
from repro.sim.engine import Simulator

from tests.harness import DURATION, SMALL

from .test_detied_equivalence import detied_golden

_FUTURE_FLAGS = sum(getattr(__future__, name).compiler_flag
                    for name in __future__.all_feature_names)


@dataclass(frozen=True)
class Mutant:
    owner: Any
    """The class — or module — the function is looked up on."""
    method: str
    old: str
    new: str
    breaks: str
    """The rule the site upholds."""

    def function(self) -> Callable:
        """The method with the site substituted, compiled in its own
        module's globals and under its ``__future__`` flags."""
        original = getattr(self.owner, self.method)
        source = inspect.getsource(original)
        assert source.count(self.old) == 1, (
            f"{self.owner.__name__}.{self.method}: the mutation site "
            f"occurs {source.count(self.old)} times, not once — the code "
            f"moved; re-aim the mutant")
        code = compile(textwrap.dedent(source.replace(self.old, self.new)),
                       f"<mutant {self.owner.__name__}.{self.method}>",
                       "exec", dont_inherit=True,
                       flags=original.__code__.co_flags & _FUTURE_FLAGS)
        namespace: Dict[str, Callable] = {}
        exec(code, original.__globals__, namespace)
        return namespace[self.method]


_STORE_PUT = "self.store.put(replica.key, replica.applied_value)"
_RAW_APPLY = ("replica.applied_version = version\n"
              "{indent}replica.applied_value = value\n"
              "{indent}replica.condition.notify()")

MUTANTS: Dict[str, Mutant] = {
    "M1": Mutant(
        ProtocolNode, "_take", _STORE_PUT,
        "self.store.put(replica.key, value)",
        "the store holds the LWW winner, not the last INV or UPD to land"),
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
        ProtocolNode, "_take",
        "elif not replica.apply(version, value):\n"
        "            replica.absorb_superseded(version, value)",
        "else:\n            " + _RAW_APPLY.format(indent=" " * 12),
        "an INV's or UPD's payload goes through the version guard"),
    "M6": Mutant(
        KeyReplica, "mark_persisted",
        "if version <= self.persisted_version:", "if False:",
        "the persisted version is monotone"),
    "M7": Mutant(
        ProtocolNode, "_recheck_causal_waiters",
        "unmet = self._first_unmet_dep(message.cauhist)", "unmet = None",
        "a buffered causal update is released only once every "
        "dependency is visible, whatever order it was buffered in"),
    "M8": Mutant(
        engine, "placement",  # the engine's binding of policies.placement
        "    return _PLACEMENT[model.persistency][in_txn]",
        "    placed = _PLACEMENT[model.persistency][in_txn]\n"
        "    return None if follower and placed == 'inline' else placed",
        "under Synchronous persistency a follower persists an INV's "
        "payload before it ACKs (Figure 2(b))"),
    "M9": Mutant(
        ProtocolNode, "_await_cluster_persist", "yield op.ack_p.event",
        "pass",
        "VAL_p announces cluster durability only once every follower has "
        "ACK_p'd its persist (Figure 3)"),
    "M10": Mutant(
        ProtocolNode, "_place_persist",
        "self._later(LAZY_PERSIST_DELAY_NS,",
        "self.sim.call_at(self.sim.now + LAZY_PERSIST_DELAY_NS,",
        "a crash ends the node's lazy persists: a persist still waiting "
        "on its timer is never issued (the persistence domain)"),
}

#: Mutants no run can tell from the original, and why.
EQUIVALENT = {
    "M6": "every path to `mark_persisted` first passes the monotone "
          "`persist_requested` gate (`_request_persist`, the scope-tagged "
          "persist of `_scope_persist_one`) and one key's media writes finish in "
          "issue order (one bank, FIFO): a cluster run never hands it a "
          "version at or below the last one — only a unit test does",
}

#: Mutants only a behaviour test kills for now, and what would let a
#: contract checker kill them.
AWAITING_A_CHECKER = {
    "M10": "ROADMAP item 4(b): durability judged per replica, so a "
           "persist the crash should have ended shows",
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
# the checkers — each returns what killed the mutant, or None
# ---------------------------------------------------------------------------


def sweep_kill(only: Optional[str] = None) -> Optional[str]:
    """The first cell whose permuted digest left its own baseline
    (``only``: look at that cell alone)."""
    result = sweep(models=[model for model in all_ddp_models()
                           if only in (None, str(model))])
    return next((cell.model for cell in result.diverged), None)


def detied_kill(only: Optional[str] = None) -> Optional[str]:
    """The first moved cell of the de-tied golden."""
    golden = detied_golden.load_golden()
    for model in all_ddp_models():
        name = str(model)
        if only in (None, name) and (
                detied_golden.digests(detied_golden.run_cell(model))
                != detied_golden.digests(golden[name])):
            return name
    return None


def variant_kill(only: Optional[str] = None) -> Optional[str]:
    """The same for the leader/hybrid variant golden."""
    golden = detied_golden.load_golden(detied_golden.VARIANT_GOLDEN)
    cells = detied_golden.variant_cells()
    for name in sorted(golden):
        if only in (None, name) and (detied_golden.digests(cells[name])
                                     != detied_golden.digests(golden[name])):
            return name
    return None


CRASH_CELL = "<Linearizable, Synchronous>"


def crash_run(only: Optional[str] = None) -> ObservedRun:
    """``repro run --crash 1@20+15 --audit`` on a small ``only`` (default
    ``CRASH_CELL``) cluster."""
    model = next(model for model in all_ddp_models()
                 if str(model) == (only or CRASH_CELL))
    spec = CellSpec(model.consistency.value, model.persistency.value,
                    seed=2021, servers=3, clients=6, duration_ns=60_000.0,
                    warmup_ns=6_000.0)
    return observed_run(
        spec, Observers(recorder=HistoryRecorder(), audit=True),
        faults=FaultInjector(plan_from_crash_specs(["1@20+15"], seed=2021)))


def faulty_kill(only: Optional[str] = None) -> Optional[str]:
    """The first contract ``validate_faulty_run`` finds violated."""
    return next((result.name
                 for result in validate_faulty_run(crash_run(only).cluster)
                 if not result.ok), None)


def audit_kill(only: Optional[str] = None) -> Optional[str]:
    """The checks the black-box audit fails the run's own cell on."""
    target = crash_run(only).audit["target"]
    return None if target["ok"] else ", ".join(target["failed_checks"])


def health_kill(only: Optional[str] = None) -> Optional[str]:
    """The first cell whose health probes record a violation."""
    for model in all_ddp_models():
        if only not in (None, str(model)):
            continue
        spec = CellSpec(model.consistency.value, model.persistency.value,
                        seed=2021, servers=3, clients=12,
                        duration_ns=40_000.0, warmup_ns=4_000.0,
                        sections=("health",))
        if observed_run(spec, section_observers(spec)).observers.monitor \
                .violations_total:
            return str(model)
    return None


CELL_CHECKERS = {"sweep": sweep_kill, "detied": detied_kill,
                 "variant": variant_kill, "faulty": faulty_kill,
                 "audit": audit_kill, "health": health_kill}


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

#: mutant -> checker -> the witness that kills it, or a list of them
#: (a mutant on a site that once had a twin keeps each twin's witness).
#: ``sweep``, ``detied``, ``variant``: a cell that moves.
#: ``behaviour``: a test and what builds the fixtures and parameters to
#: call it with.  A checker not named is a measured miss — but for two
#: kills the full table shows and tier-1 does not re-check: ``variant``
#: on M2-M4 and ``audit`` (its ``linearizable`` check) on ``stamped``.
KILLS: Dict[str, Dict[str, Any]] = {
    "M1": {"detied": ["<Causal, Strict>", "<Linearizable, Strict>"],
           "variant": ["hybrid <Causal, Eventual>",
                       "hybrid <Linearizable, Synchronous>"],
           "behaviour": (
               "tests.integration.test_all_models::"
               "test_each_store_holds_its_replicas_applied_value",
               lambda: {"model": DdpModel(C.READ_ENFORCED, P.SCOPE),
                        "crash": None})},
    "M2": {"detied": "<Linearizable, Strict>",
           "health": "<Linearizable, Synchronous>",
           "behaviour": _CONCURRENT_WRITERS},
    "M3": {"detied": "<Linearizable, Strict>",
           "behaviour": (
               "tests.core.test_engine_protocols::TestArrivalPath::"
               "test_a_val_ends_only_its_own_invalidation", dict)},
    "M4": {"detied": ["<Linearizable, Strict>", "<Causal, Strict>"],
           "health": "<Linearizable, Synchronous>",
           "behaviour": [_CONCURRENT_WRITERS,
                         (_CONVERGE,
                          lambda: {"model": DdpModel(C.CAUSAL, P.EVENTUAL),
                                   "config": SMALL, "duration": DURATION,
                                   "crash": None})]},
    "M6": {"behaviour": (
        "tests.core.test_messages_replica::TestKeyReplica::"
        "test_persisted_tracking",
        lambda: {"replica": KeyReplica(Simulator(), key=7)})},
    "M7": {"detied": "<Causal, Synchronous>",
           "behaviour": (
               "tests.core.test_causal_properties::"
               "test_causal_eventual_respects_happens_before",
               lambda: {"num_writes": 6, "num_keys": 3, "perm_seed": 1,
                        "extra_dep_seed": 0})},
    "M8": {"detied": "<Linearizable, Synchronous>",
           "variant": "hybrid <Linearizable, Synchronous>",
           "behaviour": (
        "tests.core.test_engine_protocols::TestLinearizableSynchronous::"
        "test_write_completes_after_all_replicas_durable", dict)},
    # Only the goldens see M9: no behaviour test, and neither contract
    # checker even on a crashed Read-Enforced cell.
    "M9": {"detied": "<Linearizable, Read-Enforced>",
           "variant": "leader <Read-Enforced, Read-Enforced>"},
    "M10": {"behaviour": (
        "tests.recovery.test_incarnation::"
        "test_a_restart_at_the_crash_instant_recovers",
        lambda: {"model": DdpModel(C.LINEARIZABLE, P.EVENTUAL),
                 "seed": 2021})},
    "stamped": {"sweep": "<Linearizable, Strict>",
                "detied": "<Linearizable, Strict>",
                "behaviour": _CONCURRENT_WRITERS},
}


def witnesses_of(listed: Any) -> list:
    """A checker's witnesses: one, or a list of them."""
    return listed if isinstance(listed, list) else [listed]


def kill(name: str, checker: str, witness: Any = None) -> Optional[str]:
    """What ``checker`` kills mutant ``name`` by — looking at one
    ``witness``, or at every cell (every witness test) without."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        applied(name, monkeypatch)
        if checker != "behaviour":
            return CELL_CHECKERS[checker](witness)
        tests = ([witness] if witness else
                 [test for witnesses in KILLS.values()
                  for test in witnesses_of(witnesses.get("behaviour", []))])
        return next((test for test, arguments in tests
                     if behaviour_kill(test, **arguments())), None)


@pytest.mark.parametrize("name, checker, witness", [
    pytest.param(name, checker, witness,
                 id=f"{name}-{checker}" + (f"-{index + 1}" if index else ""))
    for name, witnesses in KILLS.items()
    for checker, listed in witnesses.items()
    for index, witness in enumerate(witnesses_of(listed))])
def test_the_witness_still_kills(name, checker, witness):
    expected = witness[0] if checker == "behaviour" else witness
    assert kill(name, checker, witness) == expected, (
        f"{name} ({MUTANTS[name].breaks if name in MUTANTS else 'stamped'})"
        f" is no longer killed by {checker}")


def test_every_mutant_is_killed_unless_equivalent():
    assert set(KILLS) == {*MUTANTS, "stamped"}
    for name, witnesses in KILLS.items():
        if name in EQUIVALENT or name in AWAITING_A_CHECKER:
            assert set(witnesses) == {"behaviour"}, name
        else:
            assert set(witnesses) - {"behaviour"}, name


def test_a_site_that_moved_fails_instead_of_mutating_nothing():
    stale = Mutant(KeyReplica, "apply", "if version < self.applied_version:",
                   "if False:", "")
    with pytest.raises(AssertionError, match="occurs 0 times"):
        stale.function()
    twice = Mutant(KeyReplica, "apply", "self.applied_v", "self.x", "")
    with pytest.raises(AssertionError, match="occurs 3 times"):
        twice.function()


if __name__ == "__main__":
    print("| mutant | sanitizer sweep | de-tied golden | variant golden | "
          "validate_faulty_run | audit | health probes | behaviour tests |")
    print("|---|---|---|---|---|---|---|---|")
    checkers = (*CELL_CHECKERS, "behaviour")
    for mutant_name in sys.argv[1:] or KILLS:
        row = [kill(mutant_name, checker) for checker in checkers]
        print(f"| {mutant_name} | " + " | ".join(
            f"kill ({by})" if by else "miss" for by in row) + " |",
            flush=True)
