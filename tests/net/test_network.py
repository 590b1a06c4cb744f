"""Tests for the network fabric and NIC model."""

from types import SimpleNamespace

import pytest

from repro.net.network import Network, NetworkConfig
from repro.sim.engine import Simulator


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
        nic.deliver("direct", 8)
        assert len(nic.inbox) == 1 and nic.messages_received == 1
        taken = []
        nic.sink = taken.append
        nic.deliver("to-sink", 8)
        assert taken == ["to-sink"] and len(nic.inbox) == 1

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
