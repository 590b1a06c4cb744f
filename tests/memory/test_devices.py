"""Tests for DRAM/NVM device models."""

import pytest

from repro.memory.devices import (
    DRAM_TIMING,
    NVM_TIMING,
    DramDevice,
    MemoryTiming,
    NvmDevice,
)
from repro.sim.engine import Simulator
from repro.sim.trace import Tracer


@pytest.fixture
def sim():
    return Simulator()


class TestTimingDefaults:
    def test_table5_values(self):
        assert NVM_TIMING.read_ns == 140.0
        assert NVM_TIMING.write_ns == 400.0
        assert NVM_TIMING.channels == 2
        assert DRAM_TIMING.read_ns == 100.0
        assert DRAM_TIMING.write_ns == 100.0
        assert DRAM_TIMING.channels == 4

    def test_total_banks(self):
        assert NVM_TIMING.total_banks == NVM_TIMING.channels * NVM_TIMING.banks_per_channel


class TestAccessTiming:
    def test_single_read_latency(self, sim):
        nvm = NvmDevice(sim)

        def proc():
            yield from nvm.read(1)

        sim.process(proc())
        sim.run()
        assert sim.now == pytest.approx(140.0)
        assert nvm.reads == 1

    def test_single_persist_latency(self, sim):
        nvm = NvmDevice(sim)

        def proc():
            yield from nvm.persist(1)

        sim.process(proc())
        sim.run()
        assert sim.now == pytest.approx(400.0)
        assert nvm.persists == 1

    def test_same_bank_serializes(self, sim):
        nvm = NvmDevice(sim)
        done = []

        def proc():
            yield from nvm.persist(1)
            done.append(sim.now)

        sim.process(proc())
        sim.process(proc())
        sim.run()
        assert done == [pytest.approx(400.0), pytest.approx(800.0)]

    def test_different_banks_parallel(self, sim):
        # Two banks in a tiny device; banks interleave by address % banks,
        # so adjacent addresses land on different banks.
        timing = MemoryTiming(read_ns=100, write_ns=100, channels=1,
                              banks_per_channel=2)
        device = DramDevice(sim, timing)
        addr_a = 0
        addr_b = 1
        done = []

        def proc(addr):
            yield from device.write(addr)
            done.append(sim.now)

        sim.process(proc(addr_a))
        sim.process(proc(addr_b))
        sim.run()
        assert done == [pytest.approx(100.0), pytest.approx(100.0)]

    def test_outstanding_counts_queue(self, sim):
        nvm = NvmDevice(sim)

        def proc():
            yield from nvm.persist(1)

        sim.process(proc())
        sim.process(proc())
        sim.process(proc())
        sim.run(until=100)
        # One in service, two queued on the same bank.
        assert nvm.outstanding == 3

    def test_busy_and_queued_accounting(self, sim):
        nvm = NvmDevice(sim)

        def proc():
            yield from nvm.persist(1)

        sim.process(proc())
        sim.process(proc())
        sim.run()
        assert nvm.busy_ns == pytest.approx(800.0)
        assert nvm.queued_ns == pytest.approx(400.0)
        assert nvm.peak_queue_len == 1


class TestPersistThen:
    """The callback form of a persist shares the bank FIFO, the
    grant-time service rule and the accounting of the generator form."""

    @staticmethod
    def _run(forms, slowdown_at=None):
        """One same-bank persist per entry of ``forms`` ("then" or
        "gen"), issued 10 ns apart; returns (completion log, device,
        ``nvm_persist`` spans)."""
        sim = Simulator()
        tracer = Tracer()
        nvm = NvmDevice(sim, tracer=tracer, trace_node=0)
        done = []

        def gen_form(index):
            yield from nvm.persist(1)
            done.append((sim.now, index))

        def issue(index, form):
            if form == "then":
                nvm.persist_then(1, lambda: done.append((sim.now, index)))
            else:
                sim.process(gen_form(index))

        for index, form in enumerate(forms):
            sim.call_at(10.0 * index, issue, index, form)
        if slowdown_at is not None:
            sim.call_at(slowdown_at[0], setattr, nvm, "slowdown",
                        slowdown_at[1])
        sim.run()
        return done, nvm, list(tracer.by_category("nvm_persist"))

    @pytest.mark.parametrize("forms", [
        ("then", "then", "then"), ("then", "gen", "then", "gen"),
        ("gen", "then", "gen", "then"), ("gen", "then", "then", "gen")])
    def test_mixed_forms_complete_in_fifo_order_at_the_same_times(self, forms):
        reference, ref_nvm, ref_spans = self._run(("gen",) * len(forms))
        done, nvm, spans = self._run(forms)
        assert done == reference
        assert [index for _t, index in done] == list(range(len(forms)))
        assert (nvm.persists, nvm.busy_ns, nvm.queued_ns, nvm.peak_queue_len) \
            == (ref_nvm.persists, ref_nvm.busy_ns, ref_nvm.queued_ns,
                ref_nvm.peak_queue_len)
        assert [(r.time, r.dur, r.details) for r in spans] \
            == [(r.time, r.dur, r.details) for r in ref_spans]
        assert nvm.outstanding == 0

    @pytest.mark.parametrize("forms", [
        ("then", "then", "then"), ("gen", "then", "gen"),
        ("then", "gen", "then")])
    def test_hold_is_decided_at_the_grant(self, forms):
        """``slowdown`` rises at t=100 (second and third queued, first in
        service): the first keeps the 400 ns it was granted at, the
        others are charged 4x when their turn comes."""
        done, nvm, spans = self._run(forms, slowdown_at=(100.0, 4.0))
        assert done == [(400.0, 0), (2000.0, 1), (3600.0, 2)]
        assert nvm.busy_ns == 400.0 + 1600.0 + 1600.0
        assert nvm.queued_ns == (400.0 - 10.0) + (2000.0 - 20.0)
        assert [r.details["service_ns"] for r in spans] == [400.0, 1600.0,
                                                            1600.0]

    @pytest.mark.parametrize("form", ["then", "gen"])
    def test_span_reports_the_service_time_charged_at_the_grant(self, form):
        """A persist granted inside a slow window and completing after
        the window closed was charged the slow rate; its span says so."""
        sim = Simulator()
        tracer = Tracer()
        nvm = NvmDevice(sim, tracer=tracer)
        nvm.slowdown = 4.0                                  # window open
        sim.call_at(1000.0, setattr, nvm, "slowdown", 1.0)  # window closes
        if form == "then":
            nvm.persist_then(1, lambda: None)
        else:
            sim.process(nvm.persist(1))
        sim.run()
        (span,) = tracer.by_category("nvm_persist")
        assert (span.time, span.dur) == (1600.0, 1600.0)
        assert span.details["service_ns"] == 1600.0
