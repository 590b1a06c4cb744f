"""Kernel surgery must not move a simulated timestamp.

At default parameters thousands of independent events share a
timestamp, so a change in how many zero-delay hops a chain makes
reorders them and the run takes a different (valid) trajectory — which
proves nothing either way.  ``tools/detied_golden.py`` takes the ties
between chains away (every node pair gets its own propagation delay);
what remains depends only on computed timestamps and on FIFO order at
shared resources.  The committed golden holds all 25 cells' ``Summary``
from the process-per-message kernel; every kernel since must reproduce
them byte for byte.
"""

import importlib.util
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]

spec = importlib.util.spec_from_file_location(
    "detied_golden", ROOT / "tools" / "detied_golden.py")
detied_golden = importlib.util.module_from_spec(spec)
sys.modules.setdefault("detied_golden", detied_golden)
spec.loader.exec_module(detied_golden)


def test_all_25_cells_reproduce_the_golden_byte_for_byte():
    golden = detied_golden.load_golden()
    assert len(golden) == 25
    cells = detied_golden.detied_cells()
    assert sorted(cells) == sorted(golden)
    moved = {name: {field: (golden[name]["summary"][field], value)
                    for field, value in cells[name]["summary"].items()
                    if repr(value) != repr(golden[name]["summary"][field])}
             for name in golden
             if cells[name]["digest"] != golden[name]["digest"]}
    assert not moved, moved
    # Same timestamps, and the same protocol state at the end of them.
    assert ({name: cell["cluster_digest"] for name, cell in cells.items()}
            == {name: cell["cluster_digest"] for name, cell in golden.items()})


def test_leader_and_hybrid_variants_reproduce_their_golden():
    """Pinned at the commit where ``LeaderCluster`` / ``HybridCluster``
    were still hand-rolled builders: as subclasses of ``Cluster`` they
    must give the same ``Summary`` and converged state, byte for byte."""
    golden = detied_golden.load_golden(detied_golden.VARIANT_GOLDEN)
    assert len(golden) == 4
    cells = detied_golden.variant_cells()
    assert ({name: detied_golden.digests(cell)
             for name, cell in cells.items()}
            == {name: detied_golden.digests(cell)
                for name, cell in golden.items()})


def test_the_fabric_really_is_detied():
    delays = {detied_golden.one_way_ns(src, dst)
              for src in range(detied_golden.SERVERS)
              for dst in range(detied_golden.SERVERS) if src != dst}
    assert len(delays) == detied_golden.SERVERS * (detied_golden.SERVERS - 1)
