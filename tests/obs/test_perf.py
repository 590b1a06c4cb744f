"""The performance observatory surface: sampler, exports, hotspots."""

import itertools
import json
import threading
import time
from types import SimpleNamespace

import pytest

from repro.obs import (FrameSampler, KernelProfile, classify_phase,
                       format_hotspots, hotspot_rows)
from repro.obs import profile as profile_module
from repro.sim.engine import Simulator


class TestPhaseClassification:
    def test_deepest_repro_frame_wins(self):
        stack = ["runpy:_run_module_as_main", "repro.sim.engine:run",
                 "repro.core.engine:_on_inv"]
        assert classify_phase(stack) == "protocol"

    def test_kernel_when_leaf_is_the_event_loop(self):
        assert classify_phase(["__main__:main",
                               "repro.sim.engine:step"]) == "kernel"

    @pytest.mark.parametrize("module,phase", [
        ("repro.store.nvm", "store"),
        ("repro.workload.ycsb", "workload"),
        ("repro.obs.monitor", "observability"),
        ("repro.analysis.metrics", "observability"),
        ("repro.net.network", "protocol"),
        ("repro.memory.hierarchy", "protocol"),
    ])
    def test_prefix_map(self, module, phase):
        assert classify_phase([f"{module}:fn"]) == phase

    def test_non_repro_stack_is_other(self):
        assert classify_phase(["json:dumps", "io:write"]) == "other"
        assert classify_phase([]) == "other"

    def test_repro_prefix_requires_module_boundary(self):
        """A module merely *named* like ours (reproxy) is not protocol."""
        assert classify_phase(["reproxy.server:run"]) == "other"


class TestFrameSampler:
    def test_sample_once_captures_this_stack(self):
        sampler = FrameSampler(interval_s=0.001)
        assert sampler.sample_once(weight_s=0.25)
        phase, stack, weight = sampler.samples[0]
        assert weight == 0.25
        assert any("test_perf" in frame for frame in stack)
        # The sampler trims its own frames: the leaf is this test.
        assert not stack[-1].startswith("repro.obs.perf:")

    def test_polling_thread_samples_the_target(self):
        sampler = FrameSampler(interval_s=0.001)
        sampler.start()
        deadline = time.monotonic() + 2.0
        while not sampler.samples and time.monotonic() < deadline:
            sum(range(2000))  # keep the target thread busy
        sampler.stop()
        assert sampler.samples, "poller never captured a stack"
        assert sampler.target_thread_id == threading.get_ident()

    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            FrameSampler(interval_s=0.0)

    def test_start_twice_is_an_error(self):
        sampler = FrameSampler(interval_s=0.05)
        sampler.start()
        try:
            with pytest.raises(RuntimeError):
                sampler.start()
        finally:
            sampler.stop()
        sampler.stop()  # idempotent

    def test_folded_output_format(self, tmp_path):
        sampler = FrameSampler(interval_s=0.001)
        sampler.samples = [
            ("kernel", ("a:f", "b:g"), 0.010),
            ("kernel", ("a:f", "b:g"), 0.005),
            ("protocol", ("a:f", "c:h"), 0.002),
        ]
        path = tmp_path / "out.folded"
        assert sampler.write_folded(str(path)) == 2
        lines = path.read_text().splitlines()
        assert lines == ["kernel;a:f;b:g 15", "protocol;a:f;c:h 2"]

    def test_folded_weights_never_round_to_zero(self, tmp_path):
        sampler = FrameSampler(interval_s=0.001)
        sampler.samples = [("kernel", ("a:f",), 0.0001)]  # 0.1 ms
        path = tmp_path / "tiny.folded"
        sampler.write_folded(str(path))
        assert path.read_text() == "kernel;a:f 1\n"

    def test_speedscope_document_schema(self):
        """The export satisfies the speedscope file-format contract the
        app validates on load: schema URL, shared frame table, sampled
        profile with aligned samples/weights and consistent indices."""
        sampler = FrameSampler(interval_s=0.001)
        sampler.samples = [
            ("kernel", ("a:f", "b:g"), 0.010),
            ("workload", ("a:f",), 0.003),
        ]
        doc = sampler.speedscope_document(name="unit")
        assert doc["$schema"] == \
            "https://www.speedscope.app/file-format-schema.json"
        frames = doc["shared"]["frames"]
        assert all(isinstance(f["name"], str) for f in frames)
        profile = doc["profiles"][0]
        assert profile["type"] == "sampled"
        assert profile["unit"] == "seconds"
        assert len(profile["samples"]) == len(profile["weights"]) == 2
        assert profile["endValue"] == pytest.approx(0.013)
        for sample in profile["samples"]:
            assert all(0 <= index < len(frames) for index in sample)
        # Phase is the synthetic root frame of each sample.
        assert frames[profile["samples"][0][0]]["name"] == "[kernel]"
        assert frames[profile["samples"][1][0]]["name"] == "[workload]"

    def test_write_speedscope_round_trips_as_json(self, tmp_path):
        sampler = FrameSampler(interval_s=0.001)
        sampler.sample_once()
        path = tmp_path / "p.speedscope.json"
        sampler.write_speedscope(str(path))
        doc = json.loads(path.read_text())
        assert doc["profiles"][0]["type"] == "sampled"

    def test_phase_totals(self):
        sampler = FrameSampler(interval_s=0.001)
        sampler.samples = [("kernel", ("a:f",), 0.2),
                           ("kernel", ("b:g",), 0.3),
                           ("store", ("c:h",), 0.1)]
        assert sampler.phase_totals() == {"kernel": pytest.approx(0.5),
                                          "store": pytest.approx(0.1)}


def _profiled_tiny_run():
    sim = Simulator()
    profile = KernelProfile()
    profile.attach(sim)

    def worker():
        for _ in range(5):
            yield sim.timeout(10.0)

    for _ in range(3):
        sim.process(worker())
    sim.run()
    profile.stop(sim.now)
    return profile


@pytest.fixture
def ticking_clock(monkeypatch):
    """The profile's clock ticks once per reading (as in
    ``TestArrivalPath``): every event costs exactly 1.0, so a bucket's
    wall is its event count and a ranking depends on no host timing."""
    ticks = itertools.count()
    monkeypatch.setattr(profile_module, "time", SimpleNamespace(
        perf_counter=lambda: float(next(ticks))))


class TestHotspots:
    def test_rows_ranked_by_cumulative_wall(self):
        profile = _profiled_tiny_run()
        rows = hotspot_rows(profile)
        assert rows
        walls = [row["wall_seconds"] for row in rows]
        assert walls == sorted(walls, reverse=True)
        by_name = {(r["section"], r["name"]): r for r in rows}
        assert by_name[("event_kind", "timeout")]["count"] == 15
        for row in rows:
            assert row["ns_per_event"] >= 0.0
            assert 0.0 <= row["share"] <= 1.0

    def test_event_kind_shares_sum_to_one(self):
        """The acceptance criterion, at unit scale: bucket wall-times
        sum to within 5% of the kernel loop wall."""
        profile = _profiled_tiny_run()
        share = sum(row["share"] for row in hotspot_rows(profile)
                    if row["section"] == "event_kind")
        assert share == pytest.approx(1.0, abs=0.05)

    def test_format_hotspots_table(self):
        profile = _profiled_tiny_run()
        text = format_hotspots(profile)
        assert "kernel loop:" in text
        assert "by event kind" in text
        assert "timeout" in text
        assert "scheduling:" in text
        assert "per handled message:" in text
        assert "kernel events" in text and "processes spawned" in text

    def test_top_limits_rows(self, ticking_clock):
        profile = _profiled_tiny_run()
        limited = format_hotspots(profile, top=1)
        # Only the heaviest event-kind row survives: 15 timeouts against
        # 3 process starts, one tick each.
        kinds = [row["name"] for row in hotspot_rows(profile)
                 if row["section"] == "event_kind"]
        assert kinds == ["timeout", "process_start"]
        assert f"\n{kinds[0]} " in limited
        assert not any(f"\n{kind} " in limited for kind in kinds[1:])
        assert len(limited.splitlines()) < \
            len(format_hotspots(profile).splitlines())
