"""Table 4 — qualitative trade-off comparison of ten DDP models.

The trade-off engine *derives* durability, performance, programmer
intuition, programmability, and implementability from each model's
structure; this benchmark regenerates the table and cross-checks the
load-bearing cells against the paper (cell-exact agreement is enforced
by the unit tests in tests/core/test_tradeoffs.py).
"""

from conftest import archive

from repro.core.model import Consistency as C, DdpModel, Persistency as P
from repro.core.tradeoffs import Level, TABLE4_MODELS, analyze, analyze_all


def test_table4_regenerate():
    profiles = analyze_all()
    header = "Table 4: trade-offs between DDP models (derived)"
    archive("table4_tradeoffs",
            header + "\n" + "\n".join(p.row() for p in profiles))

    by_model = {p.model: p for p in profiles}
    lin_sync = by_model[DdpModel(C.LINEARIZABLE, P.SYNCHRONOUS)]
    assert lin_sync.durability is Level.HIGH
    assert lin_sync.performance is Level.LOW
    assert lin_sync.intuitiveness is Level.HIGH

    causal_sync = by_model[DdpModel(C.CAUSAL, P.SYNCHRONOUS)]
    assert causal_sync.performance is Level.HIGH
    assert causal_sync.durability is Level.MEDIUM

    evt_sync = by_model[DdpModel(C.EVENTUAL, P.SYNCHRONOUS)]
    assert evt_sync.intuitiveness is Level.LOW

    lin_scope = by_model[DdpModel(C.LINEARIZABLE, P.SCOPE)]
    assert lin_scope.durability is Level.HIGH
    assert lin_scope.intuitiveness is Level.HIGH
    assert lin_scope.programmability is Level.LOW


def test_table4_full_matrix_derivation():
    """The derivation extends beyond the paper's ten rows to all 25."""
    from repro.core.model import all_ddp_models

    profiles = [analyze(m) for m in all_ddp_models()]
    archive("table4_full_matrix",
            "All 25 DDP models (derived trade-offs)\n"
            + "\n".join(p.row() for p in profiles))
    assert len(profiles) == 25
