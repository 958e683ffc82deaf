"""Discrete-event GPU timing simulator substrate.

This package implements the machine the paper evaluates on: multi-warp
cores with warp-limiting issue, private L1 data caches, a crossbar, a
sliced shared L2, and GDDR5-timed DRAM channels with FR-FCFS scheduling.
The paper's TLP-management mechanisms (``repro.core``) sit on top of it.
"""

from repro.sim.address import AddressMap
from repro.sim.cache import MSHRTable, SetAssocCache
from repro.sim.dram import DRAMChannel
from repro.sim.engine import (
    EventQueue,
    SimResult,
    Simulator,
    set_engine_profiling,
)
from repro.sim.probes import (
    LatencyHistogram,
    OccupancyProbe,
    QueueDepthProbe,
    attach,
)
from repro.sim.stats import AppStats, StatsCollector, WindowSample
from repro.sim.tenancy import Tenancy, TenancyEvent, split_cores

__all__ = [
    "AddressMap",
    "SetAssocCache",
    "MSHRTable",
    "DRAMChannel",
    "EventQueue",
    "Simulator",
    "SimResult",
    "AppStats",
    "StatsCollector",
    "WindowSample",
    "LatencyHistogram",
    "QueueDepthProbe",
    "OccupancyProbe",
    "attach",
    "set_engine_profiling",
    "Tenancy",
    "TenancyEvent",
    "split_cores",
]
