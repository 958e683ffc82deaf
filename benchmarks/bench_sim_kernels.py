"""Micro-benchmarks of the simulator substrate itself.

These time the hot paths (cache access, DRAM scheduling, whole-GPU
simulation throughput) so performance regressions in the substrate are
caught alongside the figure reproductions.
"""

import random

from repro.config import medium_config, small_config
from repro.sim.address import AddressMap
from repro.sim.cache import SetAssocCache
from repro.sim.dram import DRAMChannel, DRAMRequest
from repro.sim.engine import EventQueue, Simulator
from repro.workloads.table4 import app_by_abbr


def test_cache_access_throughput(benchmark):
    cache = SetAssocCache(n_sets=128, assoc=8, line_bytes=128)
    rng = random.Random(7)
    addrs = [rng.randrange(1 << 20) * 128 for _ in range(4096)]

    def churn():
        for addr in addrs:
            if not cache.access(addr, 0):
                cache.fill(addr, 0)

    benchmark(churn)
    assert cache.resident_lines > 0


def test_dram_channel_throughput(benchmark):
    config = small_config()
    amap = AddressMap.from_config(config)

    def drain():
        events = EventQueue()
        channel = DRAMChannel(0, config, amap, events)
        done = []
        rng = random.Random(3)
        pending = [
            DRAMRequest(
                line_addr=i * 128,
                app_id=0,
                bank=rng.randrange(config.banks_per_channel),
                row=rng.randrange(64),
                enqueue_time=0.0,
                callback=lambda req, t: done.append(t),
            )
            for i in range(512)
        ]
        fill_iter = iter(pending)
        for _ in range(config.dram_queue_depth):
            channel.enqueue(next(fill_iter), 0.0)
        channel.on_dequeue = lambda now: (
            channel.enqueue(nxt, now)
            if (nxt := next(fill_iter, None)) is not None
            else None
        )
        events.run_until(1e9)
        return len(done)

    completed = benchmark(drain)
    assert completed == 512


def test_simulation_cycles_per_second(benchmark):
    """Whole-GPU throughput: cycles simulated per wall-clock second."""
    config = medium_config()
    apps = [app_by_abbr("BLK"), app_by_abbr("TRD")]

    def run():
        sim = Simulator(config, apps, seed=9)
        return sim.run(20_000, warmup=4_000, initial_tlp={0: 8, 1: 8})

    result = benchmark(run)
    assert result.samples[0].insts > 0
