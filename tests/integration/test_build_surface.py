"""What a build constructs: only what its run uses.

A ``Cluster`` build seeds a Mersenne Twister only for the streams that
draw (a cache level, a client's op and key streams, an attached fault
injector), never for one that is only forked from (the cluster root, a
node's memory and caches, a client's root), and builds no memory bank:
a bank's ``Resource`` is built the first time the bank is accessed.
Every stream that draws is still seeded in the build, so ``Cluster.run``
seeds none.  The counts below fail if a build turns eager again, or if
seeding moves into the run.
"""

import random

import pytest

from repro.cluster import ClusterConfig
from repro.core.model import Consistency, DdpModel, Persistency
from repro.memory.devices import DramDevice, NvmDevice
from repro.sim import sync
from repro.sim.engine import Simulator
from tests import harness

LIN_SYNC = DdpModel(Consistency.LINEARIZABLE, Persistency.SYNCHRONOUS)
CAUSAL_EVENTUAL = DdpModel(Consistency.CAUSAL, Persistency.EVENTUAL)

#: A drop window with probability < 1: every message inside it draws.
LOSSY_PLAN = {"seed": 3, "events": [
    {"kind": "drop", "at_us": 1, "duration_us": 4, "probability": 0.5}]}


@pytest.fixture
def built(monkeypatch):
    """Counts of ``random.Random`` and ``Resource`` constructions."""
    counts = {"generators": 0, "resources": 0}
    generator_init = random.Random.__init__
    resource_init = sync.Resource.__init__

    def count_generator(self, *args, **kwargs):
        counts["generators"] += 1
        generator_init(self, *args, **kwargs)

    def count_resource(self, *args, **kwargs):
        counts["resources"] += 1
        resource_init(self, *args, **kwargs)

    monkeypatch.setattr(random.Random, "__init__", count_generator)
    monkeypatch.setattr(sync.Resource, "__init__", count_resource)
    return counts


def _build(model, servers, plan=None):
    return harness.build(model, ClusterConfig(servers=servers), plan=plan)


@pytest.mark.parametrize("model, servers, generators, resources", [
    # 100 clients x (ops, keys) + 5 nodes x (l1, l2, llc); the pools are
    # the request workers, one per node.
    (LIN_SYNC, 5, 215, 5),
    (CAUSAL_EVENTUAL, 8, 344, 8),
], ids=["lin-sync-5", "causal-eventual-8"])
def test_a_build_seeds_only_the_streams_that_draw_and_builds_no_bank(
        built, model, servers, generators, resources):
    _build(model, servers)
    assert built == {"generators": generators, "resources": resources}


@pytest.mark.parametrize("model, servers, plan", [
    (LIN_SYNC, 5, None),
    (CAUSAL_EVENTUAL, 8, None),
    (LIN_SYNC, 5, LOSSY_PLAN),
], ids=["lin-sync-5", "causal-eventual-8", "lin-sync-5-lossy"])
def test_a_run_seeds_no_generator(built, model, servers, plan):
    cluster = _build(model, servers, plan)
    built["generators"] = 0
    cluster.run(6_000.0)
    assert cluster.metrics.summarize(cluster.sim.now).requests > 0
    assert built["generators"] == 0
    if plan is not None:
        # The window was live: messages inside it drew their verdicts.
        assert cluster.network.dropped_messages > 0


@pytest.mark.parametrize("device", [NvmDevice, DramDevice])
def test_an_untouched_device_reads_idle(device):
    memory = device(Simulator())
    assert (memory.outstanding, memory.banks_busy,
            memory.peak_queue_len) == (0, 0, 0)
