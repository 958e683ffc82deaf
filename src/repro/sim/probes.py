"""Optional instrumentation probes.

The standard statistics (:mod:`repro.sim.stats`) are the averages the
paper's mechanisms consume.  Probes add deeper, opt-in visibility for
debugging and analysis without touching the default simulation path:

* :class:`LatencyHistogram` — log-bucketed per-application memory-
  latency distribution (P50/P95/P99, not just the mean);
* :class:`QueueDepthProbe` — periodic samples of each DRAM channel's
  queue depth and of the deferred (back-pressured) queues;
* :class:`OccupancyProbe` — periodic samples of L2 occupancy per
  application (who actually holds the shared cache).

Attach probes with :func:`attach`, run the simulation, then read the
probe objects.  Attaching wraps/schedules hooks on the simulator
instance; it never alters timing.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable
from weakref import proxy

from repro.sim.stats import StatsCollector
from repro.units import Cycles

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import EventQueue, Simulator

__all__ = [
    "LatencyHistogram",
    "QueueDepthProbe",
    "OccupancyProbe",
    "attach",
]


class LatencyHistogram:
    """Log₂-bucketed histogram of warp memory-request latencies.

    Buckets are [2^k, 2^(k+1)) cycles; percentiles are interpolated
    within a bucket, which is plenty for tail comparisons.
    """

    def __init__(self, max_exponent: int = 24) -> None:
        self.max_exponent = max_exponent
        self._buckets: dict[int, list[int]] = {}

    def record(self, app_id: int, latency: Cycles) -> None:
        if latency < 0:
            raise ValueError("latency cannot be negative")
        buckets = self._buckets.setdefault(
            app_id, [0] * (self.max_exponent + 1)
        )
        exp = 0 if latency < 1 else min(
            int(math.log2(latency)), self.max_exponent
        )
        buckets[exp] += 1

    def count(self, app_id: int) -> int:
        return sum(self._buckets.get(app_id, []))

    def percentile(self, app_id: int, q: float) -> Cycles:
        """Approximate q-quantile (q in (0, 1]) of an app's latency."""
        if not 0.0 < q <= 1.0:
            raise ValueError("q must be in (0, 1]")
        buckets = self._buckets.get(app_id)
        if not buckets or not any(buckets):
            raise ValueError(f"no latency samples for app {app_id}")
        total = sum(buckets)
        cumulative = []
        running = 0
        for n in buckets:
            running += n
            cumulative.append(running)
        target = q * total
        idx = bisect_right(cumulative, target - 1e-12)
        idx = min(idx, len(buckets) - 1)
        lo, hi = 2**idx, 2 ** (idx + 1)
        prev = cumulative[idx - 1] if idx else 0
        in_bucket = buckets[idx]
        frac = (target - prev) / in_bucket if in_bucket else 0.0
        return lo + frac * (hi - lo)

    def summary(self, app_id: int) -> dict[str, float]:
        return {
            "p50": self.percentile(app_id, 0.50),
            "p95": self.percentile(app_id, 0.95),
            "p99": self.percentile(app_id, 0.99),
            "count": float(self.count(app_id)),
        }


@dataclass
class QueueDepthProbe:
    """Periodic samples of DRAM queue and deferred-queue depths."""

    period: Cycles = 1000.0
    #: (time, channel, queue_depth, deferred_depth)
    samples: list[tuple[float, int, int, int]] = field(default_factory=list)

    def max_depth(self, channel: int | None = None) -> int:
        depths = [
            q for _, ch, q, _ in self.samples
            if channel is None or ch == channel
        ]
        return max(depths, default=0)

    def mean_depth(self, channel: int | None = None) -> float:
        depths = [
            q for _, ch, q, _ in self.samples
            if channel is None or ch == channel
        ]
        return sum(depths) / len(depths) if depths else 0.0


@dataclass
class OccupancyProbe:
    """Periodic samples of L2 lines held per application."""

    period: Cycles = 2000.0
    #: (time, {app_id: resident lines across all slices})
    samples: list[tuple[float, dict[int, int]]] = field(default_factory=list)

    def mean_share(self, app_id: int) -> float:
        """Average fraction of resident L2 lines owned by ``app_id``."""
        shares = []
        for _, occupancy in self.samples:
            total = sum(occupancy.values())
            if total:
                shares.append(occupancy.get(app_id, 0) / total)
        return sum(shares) / len(shares) if shares else 0.0


class _Every:
    """Calls ``sample(now)`` every ``period`` cycles.

    An object rather than a closure that pushes itself: that closure
    would be a reference cycle holding the simulator, while this is
    held only by its queued event, which a finished run drops.
    """

    __slots__ = ("events", "period", "sample")

    def __init__(
        self, events: "EventQueue", period: Cycles,
        sample: Callable[[Cycles], None],
    ) -> None:
        self.events = events
        self.period = period
        self.sample = sample
        events.push(period, self)

    def __call__(self, now: Cycles) -> None:
        self.sample(now)
        self.events.push(now + self.period, self)


def attach(
    sim: "Simulator",
    latency: LatencyHistogram | None = None,
    queues: QueueDepthProbe | None = None,
    occupancy: OccupancyProbe | None = None,
) -> None:
    """Attach probes to a simulator before calling ``run``.

    The latency probe wraps the collector's request hook; the periodic
    probes self-reschedule on the event queue.  None of them changes
    simulated timing, and none leaves a reference cycle behind.
    """
    if latency is not None:
        # The wrapper is stored on the collector, so it reaches the
        # collector through a weak proxy, not a reference cycle.
        collector = proxy(sim.collector)
        note = StatsCollector.note_mem_request

        def recording(app_id: int, lat: Cycles) -> None:
            latency.record(app_id, lat)
            note(collector, app_id, lat)

        sim.collector.note_mem_request = recording  # type: ignore[method-assign]

    if queues is not None:
        def sample_queues(now: Cycles) -> None:
            for ch, channel in enumerate(sim.channels):
                queues.samples.append(
                    (now, ch, channel.queue_depth, len(sim._dram_deferred[ch]))
                )

        _Every(sim.events, queues.period, sample_queues)

    if occupancy is not None:
        def sample_occupancy(now: Cycles) -> None:
            merged: dict[int, int] = {}
            for l2 in sim.l2s:
                for app, lines in l2.occupancy_by_app().items():
                    merged[app] = merged.get(app, 0) + lines
            occupancy.samples.append((now, merged))

        _Every(sim.events, occupancy.period, sample_occupancy)
