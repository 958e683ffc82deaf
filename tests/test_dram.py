"""Tests for repro.sim.dram: FR-FCFS scheduling and GDDR5 timing."""

import pytest

from repro.config import small_config
from repro.sim.address import AddressMap
from repro.sim.dram import DRAMChannel, DRAMRequest
from repro.sim.engine import EventQueue


class Harness:
    """A channel wired to a real event queue, recording completions."""

    def __init__(self, config=None):
        self.config = config or small_config()
        self.amap = AddressMap.from_config(self.config)
        self.events = EventQueue()
        self.channel = DRAMChannel(0, self.config, self.amap, self.events)
        self.done: list[tuple[int, float, bool]] = []

    def request(self, bank: int, row: int, tag: int = 0) -> DRAMRequest:
        return DRAMRequest(
            line_addr=tag,
            app_id=0,
            bank=bank,
            row=row,
            callback=lambda req, t: self.done.append((req.line_addr, t, req.row_hit)),
        )

    def run(self, until: float = 100_000) -> None:
        self.events.run_until(until)


class TestTiming:
    def test_single_request_row_miss_latency(self):
        h = Harness()
        t = h.config.dram
        h.channel.enqueue(h.request(bank=0, row=5), now=0.0)
        h.run()
        assert len(h.done) == 1
        _, when, row_hit = h.done[0]
        assert row_hit is False
        # idle bank: activate (no precharge) + CAS + burst
        assert when == pytest.approx(t.t_rcd + t.t_cl + t.burst_cycles)

    def test_second_access_same_row_is_hit_and_fast(self):
        h = Harness()
        t = h.config.dram
        h.channel.enqueue(h.request(bank=0, row=5, tag=1), now=0.0)
        h.run()
        first_done = h.done[0][1]
        h.events.now = first_done
        h.channel.enqueue(h.request(bank=0, row=5, tag=2), now=first_done)
        h.run()
        assert h.done[1][2] is True, "same open row must be a row hit"
        hit_latency = h.done[1][1] - first_done
        miss_latency = h.done[0][1]
        assert hit_latency < miss_latency

    def test_row_conflict_pays_precharge(self):
        h = Harness()
        t = h.config.dram
        h.channel.enqueue(h.request(bank=0, row=5, tag=1), now=0.0)
        h.run()
        first_done = h.done[0][1]
        h.events.now = first_done
        h.channel.enqueue(h.request(bank=0, row=9, tag=2), now=first_done)
        h.run()
        assert h.done[1][2] is False
        conflict_latency = h.done[1][1] - first_done
        # must include precharge on top of activate + CAS + burst
        assert conflict_latency >= t.t_rp + t.t_rcd + t.t_cl + t.burst_cycles

    def test_row_hits_stream_at_burst_rate(self):
        h = Harness()
        t = h.config.dram
        for i in range(8):
            h.channel.enqueue(h.request(bank=0, row=5, tag=i), now=0.0)
        h.run()
        times = sorted(when for _, when, _ in h.done)
        gaps = [b - a for a, b in zip(times, times[1:])]
        # After the first activation, hits are bus/burst limited (the
        # FR-FCFS cap inserts an occasional re-decision, allow slack).
        assert sum(gaps) / len(gaps) <= 2 * t.burst_cycles


class TestFRFCFS:
    def test_row_hit_prioritized_over_older_miss(self):
        h = Harness()
        # Open row 5 on bank 0.
        h.channel.enqueue(h.request(bank=0, row=5, tag=0), now=0.0)
        h.run()
        start = h.done[0][1]
        h.events.now = start
        # Enqueue an older conflicting request, then a row hit.
        h.channel.enqueue(h.request(bank=0, row=9, tag=1), now=start)
        h.channel.enqueue(h.request(bank=0, row=5, tag=2), now=start)
        h.run()
        order = [tag for tag, _, _ in h.done[1:]]
        assert order == [2, 1], "the row hit is served first"

    def test_hit_streak_cap_prevents_starvation(self):
        h = Harness()
        cap = h.config.frfcfs_cap
        h.channel.enqueue(h.request(bank=0, row=5, tag=0), now=0.0)
        h.run()
        start = h.done[0][1]
        h.events.now = start
        # One starving conflict plus a long stream of row hits.
        h.channel.enqueue(h.request(bank=0, row=9, tag=99), now=start)
        for i in range(3 * cap):
            h.channel.enqueue(h.request(bank=0, row=5, tag=i + 1), now=start)
        h.run()
        order = [tag for tag, _, _ in h.done[1:]]
        position = order.index(99)
        assert position <= cap, (
            f"conflict served after {position} hits; cap is {cap}"
        )

    def test_bank_parallelism_beats_serial_misses(self):
        """Misses to different banks overlap their activations."""
        h = Harness()
        t = h.config.dram
        n = h.config.banks_per_channel
        for b in range(n):
            h.channel.enqueue(h.request(bank=b, row=1, tag=b), now=0.0)
        h.run()
        makespan = max(when for _, when, _ in h.done)
        serial = n * (t.t_rcd + t.t_cl + t.burst_cycles)
        assert makespan < 0.6 * serial, "activations must overlap across banks"


class TestStatsAndUtilization:
    def test_counters_consistent(self):
        h = Harness()
        for i in range(10):
            h.channel.enqueue(h.request(bank=i % 2, row=i % 3, tag=i), now=0.0)
        h.run()
        # every request completes exactly once, flagged hit or miss
        assert sorted(tag for tag, _, _ in h.done) == list(range(10))
        flags = [row_hit for _, _, row_hit in h.done]
        assert all(isinstance(flag, bool) for flag in flags)
        # both banks start with no open row, so each one's first access
        # misses
        assert flags.count(False) >= 2
        # one burst on the data bus per completed request
        assert h.channel.busy_cycles == pytest.approx(
            len(h.done) * h.config.dram.burst_cycles
        )

    def test_utilization_bounded(self):
        h = Harness()
        for i in range(20):
            h.channel.enqueue(h.request(bank=i % 4, row=0, tag=i), now=0.0)
        h.run()
        end = max(when for _, when, _ in h.done)
        assert 0.0 < h.channel.utilization(end) <= 1.0

    def test_queue_drains(self):
        h = Harness()
        for i in range(5):
            h.channel.enqueue(h.request(bank=0, row=0, tag=i), now=0.0)
        h.run()
        assert h.channel.queue_depth == 0

    def test_dequeue_hook_refills_a_bounded_queue(self):
        """Fed from ``on_dequeue``, a full queue completes every request."""
        h = Harness(small_config().with_(dram_queue_depth=4))
        pending = iter([h.request(bank=i % 4, row=i % 8, tag=i) for i in range(64)])
        for _ in range(4):
            h.channel.enqueue(next(pending), now=0.0)

        def refill(now):
            req = next(pending, None)
            if req is not None:
                h.channel.enqueue(req, now)

        h.channel.on_dequeue = refill
        h.run()
        assert sorted(tag for tag, _, _ in h.done) == list(range(64))


class TestScanWindow:
    def test_row_hit_beyond_window_is_not_seen(self):
        """The scheduler only reorders within its visibility window."""
        h = Harness()
        original = type(h.channel).SCAN_WINDOW
        type(h.channel).SCAN_WINDOW = 2
        try:
            # Open row 5 on bank 0.
            h.channel.enqueue(h.request(bank=0, row=5, tag=0), now=0.0)
            h.run()
            start = h.done[0][1]
            h.events.now = start
            # Two conflicting requests ahead of a row hit: the hit sits
            # outside the 2-entry window and cannot jump the queue.
            h.channel.enqueue(h.request(bank=0, row=7, tag=1), now=start)
            h.channel.enqueue(h.request(bank=0, row=8, tag=2), now=start)
            h.channel.enqueue(h.request(bank=0, row=5, tag=3), now=start)
            h.run()
            order = [tag for tag, _, _ in h.done[1:]]
            assert order[0] == 1, "oldest request served when no visible hit"
        finally:
            type(h.channel).SCAN_WINDOW = original

    def test_decisions_overlap_other_banks(self):
        """A request to an idle bank overlaps a busy bank's stream."""
        h = Harness()
        t = h.config.dram
        # Occupy bank 0 with a stream, plus one request to idle bank 1.
        for i in range(4):
            h.channel.enqueue(h.request(bank=0, row=5, tag=i), now=0.0)
        h.channel.enqueue(h.request(bank=1, row=9, tag=99), now=0.0)
        h.run()
        done_99 = next(when for tag, when, _ in h.done if tag == 99)
        serial = 5 * (t.row_miss_service + t.burst_cycles)
        assert done_99 < serial, "bank-1 must not wait for bank 0 serially"
