"""The ``repro profile`` hotspot table (``repro.obs.profile``)."""

import itertools
from types import SimpleNamespace

import pytest

from repro.obs import KernelProfile, format_hotspots, hotspot_rows
from repro.obs import profile as profile_module
from repro.sim.engine import Simulator


def _profiled_tiny_run():
    """The ``profile`` section a run report carries for a tiny run."""
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
    return profile.snapshot()


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
