"""Stress tests for the back-pressure chain: MSHR tables and DRAM queues.

The memory system never drops or duplicates a request under pressure —
parked accesses are re-driven as resources free up, and bounded queues
keep latency finite instead of letting backlogs grow without limit.
"""

import dataclasses

import pytest

from repro.config import small_config
from repro.sim.address import AddressMap
from repro.sim.dram import DRAMChannel, DRAMRequest
from repro.sim.engine import EventQueue, MemTxn, Simulator
from repro.workloads.table4 import app_by_abbr


def tiny_mshr_config(entries: int = 2):
    cfg = small_config()
    return cfg.with_(l1=dataclasses.replace(cfg.l1, mshr_entries=entries))


class TestMSHRBackpressure:
    def test_no_requests_lost_with_tiny_mshrs(self):
        cfg = tiny_mshr_config(entries=2)
        sim = Simulator(cfg, [app_by_abbr("GUPS")], core_split=(1,), seed=3)
        result = sim.run(8000, warmup=2000, initial_tlp={0: 24})
        # Progress despite constant MSHR pressure.
        assert result.samples[0].insts > 0
        mshr = sim.l1_mshrs[0]
        assert mshr.allocation_failures > 0, "pressure must actually occur"
        # No warp left with a dangling pending count at quiesce... every
        # active warp either waits on a live MSHR entry or is parked in a
        # deferred queue — never lost.
        core = sim.cores[0]
        waiting = sum(1 for w in core.warps if w.active and w.pending > 0)
        in_mshr = sum(len(ws) for ws in mshr._pending.values())
        deferred = len(sim._l1_deferred[0])
        assert waiting <= in_mshr + deferred + mshr.merges

    def test_tiny_mshr_caps_bandwidth(self):
        roomy = Simulator(small_config(), [app_by_abbr("BLK")],
                          core_split=(1,), seed=3)
        r_roomy = roomy.run(8000, warmup=2000, initial_tlp={0: 24})
        tight = Simulator(tiny_mshr_config(2), [app_by_abbr("BLK")],
                          core_split=(1,), seed=3)
        r_tight = tight.run(8000, warmup=2000, initial_tlp={0: 24})
        assert r_tight.samples[0].bw < r_roomy.samples[0].bw


class TestDRAMQueueBound:
    def test_enqueue_overflow_is_a_programming_error(self):
        cfg = small_config().with_(dram_queue_depth=2)
        events = EventQueue()
        channel = DRAMChannel(0, cfg, AddressMap.from_config(cfg), events)

        def req(i):
            return DRAMRequest(i * 128, 0, 0, 0, lambda r, t: None)

        channel.enqueue(req(0), 0.0)
        channel.enqueue(req(1), 0.0)
        assert channel.is_full
        with pytest.raises(RuntimeError, match="overflow"):
            channel.enqueue(req(2), 0.0)

    def test_engine_defers_when_channel_full(self):
        cfg = small_config().with_(dram_queue_depth=4)
        sim = Simulator(cfg, [app_by_abbr("GUPS")], core_split=(2,), seed=3)
        sim.run(8000, warmup=2000, initial_tlp={0: 24})
        assert sim.collector.apps[0].dram_lines > 0
        for channel in sim.channels:
            assert channel.queue_depth <= channel.capacity

    def test_bounded_queue_bounds_dram_latency(self):
        """Queue depth x service time bounds queueing delay."""
        cfg = small_config().with_(dram_queue_depth=8)
        sim = Simulator(cfg, [app_by_abbr("BLK"), app_by_abbr("TRD")], seed=3)
        result = sim.run(10_000, warmup=2_000, initial_tlp={0: 24, 1: 24})
        # Generous bound: depth * worst-case row-miss service plus the
        # fixed pipeline latencies; far below what an unbounded queue
        # produces at maxTLP.
        worst = 8 * (cfg.dram.row_miss_service + cfg.dram.burst_cycles)
        fixed = (cfg.l1_hit_latency + cfg.l2_hit_latency
                 + 2 * cfg.icnt_latency + 100)
        for app in (0, 1):
            # average latency includes deferred-wait; allow headroom
            assert result.samples[app].avg_mem_latency < 20 * (worst + fixed)

    def test_deferred_drains_fully_at_low_load(self):
        cfg = small_config().with_(dram_queue_depth=4)
        sim = Simulator(cfg, [app_by_abbr("LUD")], core_split=(1,), seed=3)
        sim.run(8000, warmup=2000, initial_tlp={0: 2})
        assert all(len(d) == 0 for d in sim._dram_deferred)

    def test_drain_redrives_every_parked_request_capacity_allows(self):
        """A single drain call must fill every free slot, not just one.

        Saturate a depth-4 channel queue, park four more misses behind
        it, then free all four slots at once: one drain pass must
        re-drive all four parked requests — none may stay parked while
        capacity exists.
        """
        cfg = small_config().with_(dram_queue_depth=4)
        sim = Simulator(cfg, [app_by_abbr("BLK")], core_split=(1,), seed=3)
        amap = sim.addr_map
        lines = [
            a * cfg.line_bytes
            for a in range(64 * cfg.n_channels)
            if amap.channel_of(a * cfg.line_bytes) == 0
        ][:8]
        assert len(lines) == 8, "need 8 channel-0 lines to saturate"
        for line in lines:
            sim._to_dram(MemTxn(line=line, app_id=0, channel=0), 0.0)
        channel = sim.channels[0]
        assert channel.is_full
        assert len(sim._dram_deferred[0]) == 4
        # A burst of dequeues frees every slot before the drain runs.
        channel.queue.clear()
        sim._drain_dram_deferred(0, 0.0)
        assert len(sim._dram_deferred[0]) == 0, (
            "requests left parked while the channel queue had capacity"
        )
        assert channel.queue_depth == 4
