"""Tests for the network fabric and NIC model."""

from types import SimpleNamespace

import pytest

from repro.net.network import Network, NetworkConfig
from repro.sim.engine import Simulator
from repro.sim.trace import Tracer


@pytest.fixture
def sim():
    return Simulator()


def make_net(sim, **kwargs):
    network = Network(sim, NetworkConfig(**kwargs))
    for node in range(3):
        network.attach(node)
    return network


class TestConfig:
    def test_defaults_match_table5(self):
        config = NetworkConfig()
        assert config.round_trip_ns == 1000.0
        assert config.bandwidth_bytes_per_ns == 25.0  # 200 Gb/s
        assert config.queue_pairs == 400

    def test_one_way(self):
        assert NetworkConfig(round_trip_ns=500).one_way_ns == 250.0


class TestSend:
    def test_delivery_latency(self, sim):
        network = make_net(sim)
        delivered = sim.event()
        network.send(0, 1, "hello", size_bytes=100, delivered=delivered)
        sim.run()
        assert delivered.ok
        # serialization (100/25 = 4 ns) + one way (500 ns)
        assert sim.now == pytest.approx(504.0)

    def test_message_lands_in_inbox(self, sim):
        network = make_net(sim)
        received = []

        def receiver():
            message = yield network.nic(1).receive()
            received.append((sim.now, message))

        sim.process(receiver())
        network.send(0, 1, "payload", size_bytes=25)
        sim.run()
        assert received == [(pytest.approx(501.0), "payload")]

    def test_loopback_rejected(self, sim):
        network = make_net(sim)
        with pytest.raises(ValueError):
            network.send(0, 0, "x", 10)

    def test_byte_accounting(self, sim):
        network = make_net(sim)
        network.send(0, 1, "a", 100)
        network.send(0, 2, "b", 50)
        sim.run()
        assert network.total_messages == 2
        assert network.total_bytes == 150
        assert network.nic(0).bytes_sent == 150
        assert network.nic(1).bytes_received == 100

    def test_filter_drops(self, sim):
        class DropToNode1:
            def on_message(self, src, dst, message, size_bytes):
                return SimpleNamespace(drop=True) if dst == 1 else None

        network = make_net(sim)
        network.faults = DropToNode1()
        dropped, passed = sim.event(), sim.event()
        network.send(0, 1, "x", 10, dropped)
        network.send(0, 2, "y", 10, passed)
        sim.run()
        assert not dropped.triggered
        assert passed.ok
        assert network.dropped_messages == 1
        assert network.nic(1).messages_received == 0

    def test_unwaited_delivery_costs_one_event(self, sim):
        """Nobody attached to ``delivered``: the landing is the only heap
        entry the send ever makes, and the event is settled in place.
        With no event handed in there is none at all."""
        network = make_net(sim)
        delivered = sim.event()
        network.send(0, 1, "hello", 100, delivered)
        assert sim.queue_depth == 1            # the landing, nothing else
        assert not delivered.triggered
        sim.step()
        assert sim.now == pytest.approx(504.0)
        assert sim.queue_depth == 0            # no `delivered` hop queued
        assert delivered.processed and delivered.value == "hello"
        assert network.send(0, 2, "plain", 100) is None
        assert sim.queue_depth == 1

    def test_late_wait_on_delivered_resumes_at_once(self, sim):
        network = make_net(sim)
        delivered = sim.event()
        network.send(0, 1, "hello", 100, delivered)
        sim.run()
        resumed = []

        def late_waiter():
            yield sim.timeout(96.0)            # long after the landing
            value = yield delivered
            resumed.append((sim.now, value))

        sim.process(late_waiter())
        sim.run()
        assert resumed == [(pytest.approx(600.0), "hello")]

    def test_waited_delivery_wakes_the_waiter_at_landing(self, sim):
        network = make_net(sim)
        woken = []

        def sender():
            delivered = sim.event()
            network.send(0, 1, "hello", 100, delivered)
            value = yield delivered
            woken.append((sim.now, value))

        sim.process(sender())
        sim.run()
        assert woken == [(pytest.approx(504.0), "hello")]

    def test_duplicates_ride_their_own_queue_pair_slot(self, sim):
        class Duplicate:
            def on_message(self, src, dst, message, size_bytes):
                return SimpleNamespace(drop=False, delay_ns=0.0, copies=2)

        network = Network(sim, NetworkConfig(queue_pairs=1,
                                             bandwidth_bytes_per_ns=1.0,
                                             round_trip_ns=0.0))
        network.attach(0)
        network.attach(1)
        network.faults = Duplicate()
        arrivals = []
        network.nic(1).sink = lambda message: arrivals.append(
            (sim.now, message))
        delivered = sim.event()
        network.send(0, 1, "a", 100, delivered)    # 100 ns serialization
        sim.run()
        # One queue pair: the copy serializes first, the original behind it.
        assert arrivals == [(pytest.approx(100.0), "a"),
                            (pytest.approx(200.0), "a")]
        assert delivered.ok
        assert network.duplicated_messages == 1
        assert network.nic(0).queue_pairs.total_acquires == 2
        assert network.nic(0).queue_pairs.peak_queue_len == 1
        assert network.nic(1).messages_received == 2

    def test_sink_defaults_to_the_inbox(self, sim):
        network = make_net(sim)
        nic = network.nic(1)
        network.send(0, 1, "direct", 8)
        sim.run()
        assert len(nic.inbox) == 1 and nic.messages_received == 1
        taken = []
        nic.sink = taken.append
        network.send(0, 1, "to-sink", 8)
        sim.run()
        assert taken == ["to-sink"] and len(nic.inbox) == 1
        assert nic.messages_received == 2 and nic.bytes_received == 16

    def test_duplicate_attach_rejected(self, sim):
        network = make_net(sim)
        with pytest.raises(ValueError):
            network.attach(0)


class TestQueuePairs:
    def test_queue_pair_throttling(self, sim):
        """With a single queue pair, serializations pipeline."""
        network = Network(sim, NetworkConfig(queue_pairs=1,
                                             bandwidth_bytes_per_ns=1.0,
                                             round_trip_ns=0.0))
        network.attach(0)
        network.attach(1)
        arrivals = []

        def receiver():
            while True:
                yield network.nic(1).receive()
                arrivals.append(sim.now)
                if len(arrivals) == 2:
                    return

        sim.process(receiver())
        network.send(0, 1, "a", 100)   # 100 ns serialization
        network.send(0, 1, "b", 100)
        sim.run()
        assert arrivals == [pytest.approx(100.0), pytest.approx(200.0)]

    def test_parallel_queue_pairs(self, sim):
        network = Network(sim, NetworkConfig(queue_pairs=2,
                                             bandwidth_bytes_per_ns=1.0,
                                             round_trip_ns=0.0))
        network.attach(0)
        network.attach(1)
        arrivals = []

        def receiver():
            while True:
                yield network.nic(1).receive()
                arrivals.append(sim.now)
                if len(arrivals) == 2:
                    return

        sim.process(receiver())
        network.send(0, 1, "a", 100)
        network.send(0, 1, "b", 100)
        sim.run()
        assert arrivals == [pytest.approx(100.0), pytest.approx(100.0)]


class TestOneFrame:
    """``send`` with a sequence of destinations is the sends of its
    members, in order: same landings, counters and trace records —
    checked against five single sends on a twin fabric, for every path
    through the one body."""

    DESTINATIONS = (1, 2, 3, 4, 5)

    @staticmethod
    def _verdict_on_third(**verdict):
        class OnThird:
            def on_message(self, src, dst, message, size_bytes):
                if dst != 3:
                    return None
                return SimpleNamespace(**{"drop": False, "delay_ns": 0.0,
                                          "copies": 1, **verdict})
        return OnThird()

    def _observe(self, frame, faults=None, one_way_fn=None):
        """Send ``m`` to the five destinations from inside the loop at
        t=1 — as one frame or one by one — and return all that shows."""
        sim, tracer = Simulator(), Tracer()
        network = Network(sim, NetworkConfig(queue_pairs=2), one_way_fn,
                          tracer=tracer)
        landings = []
        for node in range(6):
            network.attach(node).sink = (
                lambda message, node=node:
                landings.append((sim.now, node, message)))
        network.faults = faults
        heap_entries = []

        def inject():
            if frame:
                network.send(0, self.DESTINATIONS, "m", 100)
            else:
                for dst in self.DESTINATIONS:
                    network.send(0, dst, "m", 100)
            heap_entries.append(len(sim._times))

        sim.call_at(1.0, inject)
        sim.run()
        nics = [network.nic(node) for node in range(6)]
        return heap_entries[0], {
            "landings": landings,
            "sent": [(nic.messages_sent, nic.bytes_sent) for nic in nics],
            "received": [(nic.messages_received, nic.bytes_received)
                         for nic in nics],
            "totals": (network.total_messages, network.total_bytes,
                       network.dropped_messages, network.delayed_messages,
                       network.duplicated_messages),
            "queue_pairs": (nics[0].queue_pairs.total_acquires,
                            nics[0].queue_pairs.peak_queue_len),
            "trace": [(r.time, r.dur, r.category, r.node, r.details)
                      for r in tracer.records],
        }

    @pytest.mark.parametrize("verdict", [
        None, {"drop": True}, {"delay_ns": 250.0}, {"copies": 3},
        {"delay_ns": 250.0, "copies": 2}])
    def test_a_frame_is_its_single_sends(self, verdict):
        faults = self._verdict_on_third(**verdict) if verdict else None
        _entries, frame = self._observe(True, faults)
        _entries, singles = self._observe(False, faults)
        assert frame == singles
        sent = 5 if not verdict else (4 if verdict.get("drop")
                                      else 4 + verdict.get("copies", 1))
        assert frame["totals"][0] == sent == len(frame["landings"])
        assert len(frame["trace"]) == 2 * sent     # net_send + net_deliver

    def test_landings_on_a_symmetric_fabric(self):
        """Two queue pairs, 4 ns each: 1+4, 1+4, 1+8, 1+8, 1+12 on the
        link, 500 ns across — and each distinct instant one heap slot."""
        entries, frame = self._observe(True)
        assert frame["landings"] == [
            (505.0, 1, "m"), (505.0, 2, "m"), (509.0, 3, "m"),
            (509.0, 4, "m"), (513.0, 5, "m")]
        assert frame["queue_pairs"] == (5, 3)
        assert entries == 3

    def test_one_way_fn_gives_each_destination_its_own_landing(self):
        def one_way(src, dst):
            return 100.0 if dst % 2 else 300.0

        _entries, frame = self._observe(True, one_way_fn=one_way)
        _entries, singles = self._observe(False, one_way_fn=one_way)
        assert frame == singles
        assert sorted(frame["landings"]) == [
            (105.0, 1, "m"), (109.0, 3, "m"), (113.0, 5, "m"),
            (305.0, 2, "m"), (309.0, 4, "m")]

    def test_a_single_id_is_a_frame_of_one(self, sim):
        network = make_net(sim)
        network.send(0, 1, "a", 100)
        network.send(0, (1,), "a", 100)
        network.send(0, [2], "b", 50)
        sim.run()
        assert network.nic(1).messages_received == 2
        assert network.nic(0).bytes_sent == 250 == network.total_bytes

    def test_delivered_rides_the_original_of_a_single_destination(self, sim):
        """The chain ablation's path: one destination, the caller's
        event settled by the original, not by a duplicate ahead of it."""
        network = make_net(sim, queue_pairs=1)
        network.faults = self._verdict_on_third(copies=2)
        network.attach(3)
        delivered = sim.event()
        network.send(0, [3], "m", 100, delivered)
        sim.run(until=504.0)
        assert network.nic(3).messages_received == 1
        assert not delivered.triggered       # the copy landed first
        sim.run()
        assert delivered.value == "m" and sim.now >= 508.0

    def test_a_frame_with_a_loopback_sends_nothing(self, sim):
        network = make_net(sim)
        with pytest.raises(ValueError):
            network.send(0, (1, 0, 2), "x", 10)
        assert sim.queue_depth == 0 and network.total_messages == 0
