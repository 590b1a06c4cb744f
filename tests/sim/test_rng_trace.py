"""Tests for deterministic RNG streams and tracing."""

from repro.sim.rng import SeededStream
from repro.sim.trace import NullTracer, Tracer


class TestSeededStream:
    def test_same_seed_same_draws(self):
        a = SeededStream(42)
        b = SeededStream(42)
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_different_seeds_differ(self):
        a = SeededStream(1)
        b = SeededStream(2)
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_fork_is_stable(self):
        root1 = SeededStream(7)
        root2 = SeededStream(7)
        assert (root1.fork("child").random()
                == root2.fork("child").random())

    def test_fork_isolation(self):
        """Draws from one fork do not shift a sibling fork's stream."""
        root1 = SeededStream(7)
        fork_a1 = root1.fork("a")
        _ = [fork_a1.random() for _ in range(100)]
        value_b1 = root1.fork("b").random()

        root2 = SeededStream(7)
        value_b2 = root2.fork("b").random()
        assert value_b1 == value_b2

    def test_fork_names_compose(self):
        stream = SeededStream(3).fork("x").fork("y")
        assert stream.name == "root/x/y"

    def test_helpers_in_range(self):
        stream = SeededStream(11)
        for _ in range(100):
            assert 0 <= stream.randint(0, 9) <= 9
            assert 1.0 <= stream.uniform(1.0, 2.0) <= 2.0
        assert stream.choice([1, 2, 3]) in (1, 2, 3)

    def test_state_roundtrip(self):
        stream = SeededStream(5)
        state = stream.getstate()
        first = stream.random()
        stream.setstate(state)
        assert stream.random() == first

    def test_random_draws_from_the_generator_the_state_calls_see(self):
        """``random`` is bound to the underlying generator's own method:
        no wrapper frame, and still the stream ``getstate`` reads,
        ``setstate`` rewinds and the other draws advance."""
        stream = SeededStream(5)
        assert stream.random.__self__ is stream._random
        state = stream.getstate()
        first = (stream.random(), stream.randint(0, 99), stream.random())
        assert stream.getstate() != state
        stream.setstate(state)
        assert (stream.random(), stream.randint(0, 99),
                stream.random()) == first


class TestTracer:
    def test_records_and_counts(self):
        tracer = Tracer()
        tracer.emit(1.0, "send", node=0, msg="INV")
        tracer.emit(2.0, "recv", node=1, msg="INV")
        tracer.emit(3.0, "send", node=1, msg="ACK")
        assert len(tracer) == 3
        assert tracer.count("send") == 2
        assert [r.time for r in tracer.by_category("recv")] == [2.0]

    def test_category_filter(self):
        """The tracer keeps every category; its readers filter."""
        tracer = Tracer()
        tracer.emit(1.0, "send", node=0)
        tracer.emit(2.0, "persist", node=0)
        assert len(tracer) == 2
        assert [r.time for r in tracer.by_category("persist")] == [2.0]

    def test_dump_format(self):
        tracer = Tracer()
        tracer.emit(1.5, "send", node=0, key=7)
        dump = tracer.dump()
        assert "send" in dump and "key=7" in dump and "n0" in dump

    def test_dump_is_in_time_order_despite_lookahead_spans(self):
        # net_send is recorded at injection, stamped with its computed
        # end: emission order is then not time order, dump order is.
        tracer = Tracer()
        tracer.emit(10.0, "msg_send", node=0)
        tracer.emit(13.5, "net_send", node=0, dur=3.5)   # ends ahead of now
        tracer.emit(10.0, "msg_send", node=0, dst=2)
        tracer.emit(12.0, "write_complete", node=1)
        assert [r.time for r in tracer.records] == [10.0, 13.5, 10.0, 12.0]
        ordered = tracer.in_time_order()
        assert [r.time for r in ordered] == [10.0, 10.0, 12.0, 13.5]
        # stable: equal timestamps keep their emission order
        assert ordered[1].details == {"dst": 2}
        assert tracer.dump().splitlines() == [r.format() for r in ordered]
        assert tracer.dump(limit=2).splitlines() == \
            [r.format() for r in ordered[:2]]

    def test_real_run_trace_is_time_sorted_only_after_sorting(self):
        from repro.cluster.cluster import Cluster
        from repro.cluster.config import ClusterConfig
        from repro.core.model import Consistency, DdpModel, Persistency
        from repro.workload.ycsb import WORKLOADS

        tracer = Tracer()
        Cluster(DdpModel(Consistency.LINEARIZABLE, Persistency.SYNCHRONOUS),
                config=ClusterConfig(servers=3, clients_per_server=2),
                workload=WORKLOADS["A"], tracer=tracer).run(20_000.0)
        emitted = [r.time for r in tracer.records]
        assert emitted != sorted(emitted)          # net_send looks ahead
        ahead = [r for r in tracer.by_category("net_send")]
        assert ahead and all(r.dur > 0 for r in ahead)
        times = [r.time for r in tracer.in_time_order()]
        assert times == sorted(times)

    def test_clear(self):
        tracer = Tracer()
        tracer.emit(1.0, "x")
        tracer.clear()
        assert len(tracer) == 0

    def test_span_records(self):
        tracer = Tracer()
        tracer.emit(10.0, "read_stall", node=0, dur=4.0, key=3)
        tracer.emit(26.0, "write_stall", node=1, dur=6.0)
        first, second = tracer.records
        assert first.phase == "X" and first.dur == 4.0
        assert first.start == 6.0
        assert first.details == {"key": 3}
        assert second.dur == 6.0 and second.time == 26.0
        assert "dur=4ns" in first.format()

    def test_instant_records_have_no_duration(self):
        tracer = Tracer()
        tracer.emit(5.0, "msg_send", node=0)
        (record,) = tracer.records
        assert record.phase == "i" and record.dur == 0.0
        assert record.start == record.time

    def test_explicit_phase_override(self):
        tracer = Tracer()
        tracer.emit(1.0, "queue_depth", node=0, phase="C", depth=12)
        assert tracer.records[0].phase == "C"

    def test_categories_counts(self):
        tracer = Tracer()
        tracer.emit(1.0, "send")
        tracer.emit(2.0, "send")
        tracer.emit(3.0, "recv")
        assert tracer.categories() == {"send": 2, "recv": 1}

    def test_null_tracer_is_inert(self):
        tracer = NullTracer()
        assert tracer.emit(1.0, "anything", node=3, dur=2.0) is None
        assert not tracer.enabled
        assert [name for name in vars(NullTracer)
                if not name.startswith("__")] == ["enabled", "emit"]
