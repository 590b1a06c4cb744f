"""Critical-path waterfalls: the conservation invariant, rollups, and
which resource (fabric or medium) a slow cell is waiting on.

The central property: for every completed journey, the five bucket
values sum *exactly* to the end-to-end VP / DP latency — for every one
of the 25 DDP models, since each consistency x persistency pair walks a
different mix of code paths (stalls, lazy persists, causal buffering,
scopes, ENDX rounds, write combining).
"""

import json
import math
import re

import pytest

from repro.analysis.waterfall import (
    BUCKETS,
    aggregate_journeys,
    decompose,
    format_waterfall,
    waterfall_json,
)
from repro.cluster.config import ClusterConfig
from repro.core.model import (Consistency, DdpModel, Persistency,
                               all_ddp_models)
from repro.memory.devices import MemoryTiming
from repro.net.network import NetworkConfig
from repro.obs import JourneyTracker, UpdateJourney
from tests import harness

SERVERS = 3


def run_with_journeys(model, duration_ns=40_000.0):
    tracker = JourneyTracker(SERVERS)
    harness.run(model, duration_ns, 4_000.0, tracer=tracker,
                config=ClusterConfig(servers=SERVERS, clients_per_server=3))
    return tracker


def paths_of(journey, breakdown):
    for point in ("vp", "dp"):
        path = getattr(breakdown, point)
        latency = (journey.vp_ns(SERVERS) if point == "vp"
                   else journey.dp_ns(SERVERS))
        if path is not None:
            yield point, path, latency


class TestConservationInvariant:
    @pytest.mark.parametrize("model", all_ddp_models(), ids=str)
    def test_buckets_sum_to_latency(self, model):
        tracker = run_with_journeys(model)
        assert tracker.journeys, f"{model}: no journeys tracked"
        decomposed = 0
        for journey in tracker.journeys:
            breakdown = decompose(journey, SERVERS)
            for point, path, latency in paths_of(journey, breakdown):
                decomposed += 1
                total = sum(path.buckets.values())
                assert math.isclose(total, latency,
                                    rel_tol=1e-9, abs_tol=1e-6), (
                    f"{model} {point} key={journey.key} "
                    f"v={journey.version}: buckets {path.buckets} sum to "
                    f"{total}, latency {latency}")
                assert all(value >= 0 for value in path.buckets.values()), (
                    f"{model} {point}: negative bucket in {path.buckets}")
                assert set(path.buckets) == set(BUCKETS)
                assert path.latency_ns == latency
        assert decomposed > 0, f"{model}: nothing completed to decompose"


class TestAggregation:
    @pytest.fixture(scope="class")
    def tracker(self):
        return run_with_journeys(all_ddp_models()[0])

    @pytest.fixture(scope="class")
    def report(self, tracker):
        return aggregate_journeys(tracker.journeys, SERVERS,
                                  dropped=tracker.dropped)

    def test_mean_buckets_sum_to_mean_latency(self, report):
        for aggregate in (report.vp, report.dp):
            assert aggregate is not None
            assert math.isclose(sum(aggregate.buckets_ns.values()),
                                aggregate.mean_latency_ns,
                                rel_tol=1e-9, abs_tol=1e-6)

    def test_counts_add_up(self, report):
        assert report.vp.count + report.vp_incomplete == report.journeys
        assert report.dp.count + report.dp_incomplete == report.journeys
        assert sum(points["vp"].count for points in report.by_node.values()
                   if points["vp"]) == report.vp.count
        assert sum(points["vp"].count for points in report.by_hotness.values()
                   if points["vp"]) == report.vp.count

    def test_slowest_ranked_by_dp(self, report):
        latencies = [b.dp.latency_ns for b in report.slowest if b.dp]
        assert latencies == sorted(latencies, reverse=True)

    def test_format_renders_every_section(self, report):
        text = format_waterfall(waterfall_json(report), "test")
        assert text.startswith("critical-path waterfall — test  (")
        assert "VP (visibility)" in text and "DP (durability)" in text
        for bucket in BUCKETS:
            assert bucket in text
        assert "by coordinator node:" in text
        assert "by key hotness:" in text
        assert "slowest updates" in text

    def test_a_saved_section_renders_alike(self, report):
        """A report file sorts its keys as strings: node 10 must still
        print after node 9."""
        doc = waterfall_json(report)
        doc["by_node"] = {str(node): doc["by_node"]["0"]
                          for node in range(12)}
        saved = json.loads(json.dumps(doc, sort_keys=True))
        text = format_waterfall(saved, "test")
        assert text == format_waterfall(doc, "test")
        assert re.findall(r"^    n(\d+)  vp", text, re.MULTILINE) == [
            str(node) for node in range(12)]

    def test_json_shape(self, report):
        doc = waterfall_json(report)
        assert doc["buckets"] == list(BUCKETS)
        assert doc["journeys"] == report.journeys
        assert set(doc["vp"]) == {"count", "mean_latency_ns", "buckets_ns",
                                  "fractions"}
        assert math.isclose(sum(doc["vp"]["fractions"].values()), 1.0,
                            rel_tol=1e-9)
        for entry in doc["slowest"]:
            assert {"key", "version", "coordinator", "vp", "dp"} <= set(entry)

    def test_empty_population(self):
        report = aggregate_journeys([], SERVERS)
        assert report.vp is None and report.dp is None
        assert report.journeys == 0 and not report.slowest
        assert "no update reached" in format_waterfall(
            waterfall_json(report), "empty")
        assert waterfall_json(report)["vp"] is None


class TestDecomposeEdgeCases:
    def test_incomplete_journey_yields_none(self):
        journey = UpdateJourney(key=1, version=(1, 0), coordinator=0,
                                client_issue_ns=0.0, issue_ns=10.0)
        journey.applies = {0: 20.0}  # only 1 of 3 replicas
        breakdown = decompose(journey, SERVERS)
        assert breakdown.vp is None and breakdown.dp is None

    def test_missing_send_attributed_to_network(self):
        """A journey with a recv but no matching send (pruned trace)
        still conserves: the unexplained gap lands in ``network``."""
        journey = UpdateJourney(key=1, version=(1, 0), coordinator=0,
                                client_issue_ns=0.0, issue_ns=10.0)
        journey.applies = {0: 12.0, 1: 40.0, 2: 30.0}
        journey.recvs = {1: 35.0, 2: 25.0}  # no sends recorded
        path = decompose(journey, SERVERS).vp
        assert path is not None and path.node == 1
        assert math.isclose(sum(path.buckets.values()), 40.0)
        assert path.buckets["network"] == 25.0  # issue 10 -> recv 35


class TestFabricOrMedium:
    """The question a slow cell raises (the paper's Figure 6 "why"):
    is the fabric or the persistence medium the bottleneck?  The summary
    cannot tell -- write latency rises either way -- but the DP buckets
    move on the resource that was slowed and stay put on the other."""

    VARIANTS = {
        "default": {},
        "slow NVM": {"nvm_timing": MemoryTiming(140.0, 1600.0, 2, 2)},
        "slow fabric": {"network": NetworkConfig(round_trip_ns=4000.0)},
    }

    @pytest.fixture(scope="class")
    def runs(self):
        model = DdpModel(Consistency.LINEARIZABLE, Persistency.SYNCHRONOUS)
        runs = {}
        for name, overrides in self.VARIANTS.items():
            tracker = JourneyTracker(SERVERS)
            config = ClusterConfig(servers=SERVERS, clients_per_server=2,
                                   **overrides)
            summary = harness.run(model, config=config, tracer=tracker).summary
            dp = aggregate_journeys(tracker.journeys, SERVERS).dp
            runs[name] = (summary.mean_write_ns, dp.buckets_ns)
        return runs

    @staticmethod
    def ratio(runs, variant, bucket):
        return runs[variant][1][bucket] / runs["default"][1][bucket]

    def test_the_summary_rises_under_either_cause(self, runs):
        default = runs["default"][0]
        assert runs["slow NVM"][0] > default
        assert runs["slow fabric"][0] > default

    def test_slow_nvm_moves_the_medium_buckets_only(self, runs):
        assert self.ratio(runs, "slow NVM", "device") >= 2.0
        assert self.ratio(runs, "slow NVM", "nvm_queue") >= 2.0
        assert 0.8 <= self.ratio(runs, "slow NVM", "network") <= 1.2

    def test_slow_fabric_moves_the_network_bucket_only(self, runs):
        assert self.ratio(runs, "slow fabric", "network") >= 2.0
        assert 0.8 <= self.ratio(runs, "slow fabric", "device") <= 1.2
        assert 0.8 <= self.ratio(runs, "slow fabric", "nvm_queue") <= 1.2
