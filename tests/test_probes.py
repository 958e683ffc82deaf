"""Tests for the optional instrumentation probes."""

import pytest

from repro.config import small_config
from repro.sim.engine import Simulator
from repro.sim.probes import (
    LatencyHistogram,
    OccupancyProbe,
    QueueDepthProbe,
    attach,
)
from repro.workloads.table4 import app_by_abbr


class TestLatencyHistogram:
    def test_percentiles_on_known_distribution(self):
        hist = LatencyHistogram()
        for _ in range(90):
            hist.record(0, 100.0)  # bucket [64, 128)
        for _ in range(10):
            hist.record(0, 5000.0)  # bucket [4096, 8192)
        assert hist.count(0) == 100
        assert 64 <= hist.percentile(0, 0.50) < 128
        assert hist.percentile(0, 0.99) >= 4096

    def test_p50_le_p95_le_p99(self):
        hist = LatencyHistogram()
        for latency in (10, 50, 200, 900, 4000, 20, 80, 300):
            hist.record(0, latency)
        s = hist.summary(0)
        assert s["p50"] <= s["p95"] <= s["p99"]

    def test_apps_independent(self):
        hist = LatencyHistogram()
        hist.record(0, 10.0)
        hist.record(1, 10000.0)
        assert hist.percentile(0, 0.5) < hist.percentile(1, 0.5)

    def test_rejects_bad_inputs(self):
        hist = LatencyHistogram()
        with pytest.raises(ValueError):
            hist.record(0, -1.0)
        with pytest.raises(ValueError):
            hist.percentile(0, 0.5)  # no samples
        hist.record(0, 1.0)
        with pytest.raises(ValueError):
            hist.percentile(0, 1.5)

    def test_huge_latency_clamps_to_top_bucket(self):
        hist = LatencyHistogram(max_exponent=4)
        hist.record(0, 1e12)
        assert hist.percentile(0, 1.0) <= 2**5

    def test_empty_histogram_percentile_raises(self):
        hist = LatencyHistogram()
        with pytest.raises(ValueError, match="no latency samples"):
            hist.percentile(0, 0.99)
        with pytest.raises(ValueError, match="no latency samples"):
            hist.summary(0)
        # other apps' samples don't leak into an empty app
        hist.record(1, 100.0)
        with pytest.raises(ValueError, match="no latency samples"):
            hist.percentile(0, 0.5)

    def test_single_bucket_percentiles_stay_in_bucket(self):
        hist = LatencyHistogram()
        for _ in range(50):
            hist.record(0, 100.0)  # all in [64, 128)
        for q in (0.01, 0.50, 0.95, 0.99, 1.0):
            assert 64 <= hist.percentile(0, q) <= 128

    def test_p99_on_two_samples_lands_in_upper_bucket(self):
        hist = LatencyHistogram()
        hist.record(0, 10.0)     # bucket [8, 16)
        hist.record(0, 1000.0)   # bucket [512, 1024)
        # with two samples, P99 targets 1.98 of 2 -> the larger sample
        assert hist.percentile(0, 0.99) >= 512
        # while P50 interpolates within the first sample's bucket
        assert 8 <= hist.percentile(0, 0.50) <= 16
        assert hist.summary(0)["count"] == 2.0


class TestProbesOnSimulator:
    def run_with_probes(self, cycles=8000):
        cfg = small_config()
        sim = Simulator(cfg, [app_by_abbr("BLK"), app_by_abbr("BFS")], seed=3)
        latency = LatencyHistogram()
        queues = QueueDepthProbe(period=500.0)
        occupancy = OccupancyProbe(period=1000.0)
        attach(sim, latency=latency, queues=queues, occupancy=occupancy)
        result = sim.run(cycles, warmup=2000, initial_tlp={0: 8, 1: 8})
        return sim, result, latency, queues, occupancy

    def test_latency_probe_collects_both_apps(self):
        _, _, latency, _, _ = self.run_with_probes()
        assert latency.count(0) > 0
        assert latency.count(1) > 0
        assert latency.summary(0)["p99"] >= latency.summary(0)["p50"]

    def test_probe_does_not_change_results(self):
        cfg = small_config()
        plain = Simulator(cfg, [app_by_abbr("BLK"), app_by_abbr("BFS")], seed=3)
        plain_result = plain.run(8000, warmup=2000, initial_tlp={0: 8, 1: 8})
        _, probed_result, _, _, _ = self.run_with_probes()
        for app in (0, 1):
            assert probed_result.samples[app].insts == \
                plain_result.samples[app].insts
            assert probed_result.samples[app].bw == pytest.approx(
                plain_result.samples[app].bw
            )

    def test_queue_probe_samples_all_channels(self):
        sim, _, _, queues, _ = self.run_with_probes()
        channels = {ch for _, ch, _, _ in queues.samples}
        assert channels == set(range(len(sim.channels)))
        assert queues.max_depth() <= sim.channels[0].capacity
        assert queues.mean_depth() >= 0.0

    def test_occupancy_probe_tracks_sharing(self):
        _, _, _, _, occupancy = self.run_with_probes()
        assert occupancy.samples
        shares = occupancy.mean_share(0) + occupancy.mean_share(1)
        assert 0.0 < shares <= 1.0 + 1e-9

    def test_latency_mean_consistent_with_collector(self):
        """Histogram count equals the collector's request count."""
        sim, _, latency, _, _ = self.run_with_probes()
        for app in (0, 1):
            assert latency.count(app) == sim.collector.apps[app].mem_requests
