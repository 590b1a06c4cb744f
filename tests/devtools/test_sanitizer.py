"""The tie-batch sanitizer.

Record-mode transparency, seeded permutation determinism, the
delivery-only permutation scope, sweep byte-identity, and the injected
non-commuting mutation it exists to catch (hidden shared state across
co-scheduled handlers; ``tests/integration/test_order_mutants.py``
holds it against the other checkers).
"""

import pytest

from repro.core.messages import Message, MsgType
from repro.core.model import Consistency, DdpModel, Persistency
from repro.core.replica import KeyReplica
from repro.devtools.sanitizer import (CellResult, SweepResult,
                                      TieBatchSanitizer, cluster_digest,
                                      sweep, _run_once)
from repro.net.network import Network
from repro.sim.engine import Simulator, entry_kind

LIN_STRICT = DdpModel(Consistency.LINEARIZABLE, Persistency.STRICT)
EVT_EVT = DdpModel(Consistency.EVENTUAL, Persistency.EVENTUAL)


def _plain_digest(model, ops=20):
    from repro.cluster.cluster import Cluster
    from repro.cluster.config import ClusterConfig
    from repro.workload.ycsb import WORKLOADS

    config = ClusterConfig(servers=3, clients_per_server=2, seed=2021)
    cluster = Cluster(model, config=config, workload=WORKLOADS["A"])
    for client in cluster.clients:
        client.max_requests = ops
    cluster.start()
    cluster.sim.run()
    return cluster_digest(cluster)


class TestRecordMode:
    def test_recording_is_transparent(self):
        # A recorder (seed=None) must not perturb the run: batches go
        # back into their instant's list in exactly the order they had.
        recorder = TieBatchSanitizer(seed=None)
        digest = _run_once(LIN_STRICT, 20, 3, 2, 2021, recorder)
        assert digest == _plain_digest(LIN_STRICT, ops=20)
        assert recorder.batches > 0
        assert recorder.permuted == 0

    def test_tie_stats_observed(self):
        recorder = TieBatchSanitizer(seed=None)
        _run_once(LIN_STRICT, 20, 3, 2, 2021, recorder)
        assert recorder.events_tied >= 2 * recorder.batches
        assert recorder.max_batch >= 2
        pairs = recorder.observed_pairs()
        assert pairs == sorted(pairs)
        assert any(a == "INV" or b == "INV" for a, b in pairs)


class TestRekeying:
    """The sanitizer reorders a tie batch *in its instant's list*; the
    kernel's own loop runs it."""

    @pytest.mark.parametrize("seed", [None, 3])
    def test_failed_event_keeps_the_rest_of_its_batch_queued(self, seed):
        sim = Simulator()
        TieBatchSanitizer(seed=seed).attach(sim)
        ran, depths = [], []

        def note(tag):
            ran.append(tag)
            depths.append(sim.queue_depth)

        def boom():
            raise ValueError("boom")

        sim.call_at(5.0, note, "a")
        sim.call_at(5.0, boom)
        sim.call_at(5.0, note, "c")
        with pytest.raises(ValueError, match="boom"):
            sim.run()
        assert ran == ["a"] and sim.queue_depth == 1
        sim.run()  # exactly what the plain loop does on a second run()
        assert ran == ["a", "c"] and sim.queue_depth == 0
        # mid-batch, the unprocessed ties are still queued
        assert depths == [2, 0]

    def test_permuted_order_is_what_the_loop_pops(self):
        """With a seed, landings at distinct nodes run in the shuffled
        order, under ``run(until=)`` and ``step()`` alike; later
        same-time arrivals form the next batch."""
        sim = Simulator()
        network = Network(sim)
        for node in range(6):
            network.attach(node)
        order = []
        for node in range(6):
            network.nic(node).sink = order.append
        sanitizer = TieBatchSanitizer(seed=3)
        sanitizer.attach(sim)
        for dst in range(1, 6):
            network.send(0, dst, dst, 16)
        landing = sim.peek()
        sim.call_at(landing, lambda: sim.call_at(landing, order.append, "late"))
        sim.step()
        assert sanitizer.batches == 1 and sanitizer.max_batch == 6
        assert len(order) == 1 and sim.queue_depth == 5
        sim.run(until=landing)
        assert sorted(order[:5]) == [1, 2, 3, 4, 5]
        assert order[:5] != [1, 2, 3, 4, 5] and order[5] == "late"
        assert sanitizer.permuted == 1 and sanitizer.batches == 1


class TestPermutation:
    def test_same_seed_same_digest(self):
        first = _run_once(LIN_STRICT, 20, 3, 2, 2021,
                          TieBatchSanitizer(seed=7))
        second = _run_once(LIN_STRICT, 20, 3, 2, 2021,
                           TieBatchSanitizer(seed=7))
        assert first == second

    def test_permutations_actually_happen(self):
        permuter = TieBatchSanitizer(seed=1)
        _run_once(LIN_STRICT, 20, 3, 2, 2021, permuter)
        assert permuter.permuted > 0

    def test_only_deliveries_move(self):
        class Event:
            def __init__(self, kind):
                self.kind = kind
                self._value = None

        proc = [Event("process_start"), Event("timeout")]
        deliveries = [Event("msg_delivery") for _ in range(3)]
        batch = [proc[0], deliveries[0], deliveries[1], proc[1],
                 deliveries[2]]
        sanitizer = TieBatchSanitizer(seed=3)
        for _ in range(20):  # some shuffle must move something
            sanitizer.observe(list(batch))
        shuffled = list(batch)
        sanitizer.observe(shuffled)
        # non-delivery entries pinned to their original positions
        assert shuffled[0] is proc[0]
        assert shuffled[3] is proc[1]
        # delivery slots hold exactly the delivery entries
        assert {id(shuffled[i]) for i in (1, 2, 4)} == \
            {id(e) for e in deliveries}

    def test_landings_are_deliveries_shuffled_in_waves(self):
        """Network landings are what gets permuted now: labelled by
        their message, shuffled across destinations, never within one."""
        sim = Simulator()
        network = Network(sim)
        for node in range(4):
            network.attach(node)
        ack = Message(MsgType.ACK, src=0, op_id=1)
        inv = Message(MsgType.INV, src=0, op_id=2, key=1, version=(1, 0))
        for dst in (1, 2, 3):       # two simultaneous landings per node
            network.send(0, dst, ack, 16)
            network.send(0, dst, inv, 16)
        [batch] = sim._queue.values()
        assert {entry_kind(entry) for entry in batch} == {"msg_delivery"}
        assert {TieBatchSanitizer._label(entry) for entry in batch} == \
            {"ACK", "INV"}

        def landed(entry):
            _land, args = entry
            return args

        def nodes(entries):
            return [landed(entry)[1].node_id for entry in entries]

        sanitizer = TieBatchSanitizer(seed=3)
        orders = set()
        for _ in range(20):
            shuffled = list(batch)
            sanitizer.observe(shuffled)
            # first wave: every node's ACK; second wave: every node's INV
            assert [landed(e)[0] for e in shuffled] == [ack] * 3 + [inv] * 3
            assert sorted(nodes(shuffled[:3])) == [1, 2, 3]
            assert sorted(nodes(shuffled[3:])) == [1, 2, 3]
            orders.add(tuple(nodes(shuffled)))
        assert len(orders) > 1
        assert sanitizer.permuted > 0

    def test_byte_identity_on_real_models(self):
        for model in (LIN_STRICT, EVT_EVT):
            baseline = _run_once(model, 20, 3, 2, 2021,
                                 TieBatchSanitizer(seed=None))
            for seed in (1, 2):
                permuted = _run_once(model, 20, 3, 2, 2021,
                                     TieBatchSanitizer(seed=seed))
                assert permuted == baseline, (str(model), seed)


class TestSweep:
    def test_smoke(self):
        result = sweep(models=[LIN_STRICT, EVT_EVT], ops_per_client=15,
                       seeds=(1,))
        assert result.ok
        assert len(result.cells) == 2
        doc = result.to_dict()
        assert doc["schema"] == "repro.order_sweep/2"
        assert doc["ok"] is True
        assert doc["ops_per_client"] == 15
        for cell in doc["cells"]:
            assert cell["batches"] > 0
            assert list(cell["digests"]) == ["1"]

    def test_a_sweep_that_never_permuted_fails(self):
        def cell(permuted):
            return CellResult(model="m", baseline_digest="d", batches=4,
                              max_batch=2, seeds={1: "d", 2: "d"},
                              permuted=permuted)

        assert cell({1: 0, 2: 3}).ok
        vacuous = cell({1: 0, 2: 0})
        assert vacuous.vacuous and not vacuous.diverged and not vacuous.ok
        result = SweepResult(cells=[cell({1: 1, 2: 1}), vacuous],
                             ops_per_client=30, seeds=[1, 2])
        assert not result.ok
        assert result.vacuous == [vacuous] and result.diverged == []
        assert result.to_dict()["cells"][1]["vacuous"] is True

    def test_a_sweep_that_ran_no_seed_fails(self):
        """A cell no permuted run ever reached certifies nothing either:
        it used to be neither vacuous nor diverged, so it passed."""
        unseeded = CellResult(model="m", baseline_digest="d", batches=4,
                              max_batch=2)
        assert unseeded.vacuous and not unseeded.ok
        result = SweepResult(cells=[unseeded], ops_per_client=30, seeds=[])
        assert not result.ok and result.vacuous == [unseeded]


class TestInjectedMutation:
    def test_hidden_shared_state_is_caught(self, monkeypatch):
        # Co-scheduled handlers share an unsynchronized global
        # (sequence allocation inside apply), so handler start order
        # leaks into protocol state: the sanitizer must observe real
        # divergence.
        def make_stamped():
            counter = {"n": 0}

            def stamped_apply(self, version, value):
                counter["n"] += 1
                if version <= self.applied_version:
                    return False
                self.applied_version = version
                self.applied_value = (value, counter["n"])
                self.condition.notify()
                if self.observer is not None:
                    self.observer("apply", self.key, version)
                return True
            return stamped_apply

        monkeypatch.setattr(KeyReplica, "apply", make_stamped())
        baseline = _run_once(LIN_STRICT, 30, 3, 2, 2021,
                             TieBatchSanitizer(seed=None))
        monkeypatch.setattr(KeyReplica, "apply", make_stamped())
        permuted = _run_once(LIN_STRICT, 30, 3, 2, 2021,
                             TieBatchSanitizer(seed=1))
        assert permuted != baseline

    def test_divergence_maps_to_flagged_pair(self, monkeypatch):
        # The pair the mutation races on (INV~INV: concurrent applies)
        # must be among the ties the diverging run observed, so the
        # DIVERGED line names it.
        permuter = TieBatchSanitizer(seed=1)
        _run_once(LIN_STRICT, 30, 3, 2, 2021, permuter)
        assert ("INV", "INV") in permuter.observed_pairs()


@pytest.mark.slow
class TestFullMatrix:
    def test_all_25_models_byte_identical(self):
        result = sweep(ops_per_client=30, seeds=(1, 2, 3, 4))
        # A checker that cannot perturb passes silently: every cell must
        # have reordered at least one batch under some seed.
        assert not result.vacuous, [c.model for c in result.vacuous]
        assert result.ok, [(c.model, c.diverged) for c in result.diverged]
        assert len(result.cells) == 25
