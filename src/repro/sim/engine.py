"""The discrete-event simulation engine.

:class:`Simulator` wires cores, L1 caches, the crossbar, L2 slices and
DRAM channels together and drives every warp's closed loop:

    compute phase -> memory instruction -> L1 -> (miss) crossbar -> L2
    -> (miss) DRAM -> fill L2 -> response -> fill L1 -> wake warp -> ...

Multi-application execution follows the paper's methodology (§II): each
application is mapped to an exclusive set of cores (equal split by
default, remainder to the first apps) and shares everything beyond the
cores — L2 slices, the crossbar, and DRAM bandwidth.  All statistics are
kept per application.  The roster itself is owned by a
:class:`~repro.sim.tenancy.Tenancy` manager: an open-system run passes
``arrivals`` (a schedule of :class:`~repro.sim.tenancy.TenancyEvent`\\ s)
and applications attach/detach mid-run with deterministic
drain-and-rebind core reassignment; without arrivals the roster is
frozen and behavior is bit-identical to the closed-system engine.

A TLP controller (see :mod:`repro.core.controller`) can be attached; it
is invoked every ``sample_period`` cycles with per-application window
samples and may retarget each application's warp limit, which is applied
SWL-style by :meth:`Simulator.set_tlp`.

Hot-path architecture (see ``docs/performance.md``):

* Every memory-hierarchy hop is one :class:`MemTxn` — a slotted
  transaction record that is pushed on the event queue directly and
  mutated in place as it moves between stages.  There is no per-event
  closure allocation anywhere on the warp loop or the miss path.
* :meth:`Simulator._dispatch` is the single stage machine that consumes
  transactions; :class:`EventQueue` recognises ``MemTxn`` instances and
  routes them there without an intermediate call.
* :class:`EventQueue` is a bucketed calendar queue: events land in an
  integer-cycle wheel slot, each bucket drains in exact ``(time, seq)``
  order, and far-future events (controller windows, warmup marks) wait
  in a small overflow heap.  Ordering is bit-identical to the previous
  float-keyed heap, which the golden fixtures under ``tests/golden/``
  enforce.
* Same-instant events are folded to cut dispatch count: an idle DRAM
  scheduler's first decision runs synchronously; a warp whose every
  line hits L1 completes without a separate ``WARP_RESP`` hop;
  same-cycle data returns to one core merge into ``L1_FILL_MULTI``;
  and one core's compute completions due at the same instant ride an
  intrusive chain (``MemTxn.due``/``MemTxn.link``) behind a single
  event.  Folds A/C/D are exact up to same-instant tie order; the
  all-hit fold shifts reservation attribution within one hit latency —
  the per-fold equivalence argument lives in ``docs/performance.md``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import partial
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Callable

from repro.config import GPUConfig
from repro.obs.metrics import get_metrics
from repro.sim.address import AddressMap
from repro.sim.cache import MSHRTable, SetAssocCache
from repro.sim.core import Core, Warp, WarpStream
from repro.sim.dram import DRAMChannel, DRAMRequest
from repro.sim.interconnect import Crossbar
from repro.sim.stats import StatsCollector, WindowSample
from repro.sim.tenancy import Tenancy, TenancyEvent, split_cores
from repro.units import (
    Cycles,
    Fraction,
    FractionOfPeak,
    Insts,
    Ipc,
    WholeCycles,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.core.controller import TLPController
    from repro.workloads.synthetic import AppProfile

__all__ = [
    "EventQueue",
    "MemTxn",
    "Simulator",
    "SimResult",
    "set_engine_profiling",
]


class MemTxn:
    """One memory transaction moving through the simulated hierarchy.

    A transaction is the unit the event queue carries for the warp loop
    and the miss path: instead of allocating a closure per hop, the
    engine mutates ``stage`` (plus the fields the next stage needs) and
    re-pushes the same object.  Warps own two long-lived transactions
    (their compute-done and L1-hit-response records); one further
    transaction is allocated per non-merged L1 miss and rides the
    L2/DRAM round trip, including any time spent parked in a deferred
    queue under MSHR or DRAM-queue backpressure.  A parked transaction
    is never dispatched: the drain that frees room re-drives it by a
    direct call (``_l1_miss``, ``_l2_miss``, ``_to_dram``), so its
    ``stage`` is not read until that call sets the next one.
    """

    #: warp's compute phase finished; issue its memory accesses
    COMPUTE_DONE = 0
    #: L1-hit responses arrive back at the warp
    WARP_RESP = 1
    #: request packet reached an L2 slice
    L2_ACCESS = 2
    #: response packet reached the core; fill L1 and wake waiters
    L1_FILL = 3
    #: one response event carrying several same-instant L1 fills for one
    #: core (``lines`` holds the batch, in scheduling order)
    L1_FILL_MULTI = 4

    __slots__ = (
        "stage", "core", "warp", "line", "app_id", "channel", "n_inst",
        "n", "lines", "due", "link",
    )

    def __init__(
        self,
        stage: int = 0,
        core: "Core | None" = None,
        warp: "Warp | None" = None,
        line: int = 0,
        app_id: int = 0,
        channel: int = 0,
        n_inst: Insts = 0,
        n: int = 0,
        lines: list[int] | None = None,
    ) -> None:
        self.stage = stage
        self.core = core
        self.warp = warp
        self.line = line
        self.app_id = app_id
        self.channel = channel
        #: instructions retired by the compute phase (COMPUTE_DONE)
        self.n_inst: Insts = n_inst
        #: number of L1-hit responses carried (WARP_RESP)
        self.n = n
        #: line addresses of the pending memory instruction (COMPUTE_DONE)
        #: or of the fill batch (L1_FILL_MULTI)
        self.lines = lines
        #: exact completion time of a stride-batched compute phase; the
        #: event rides at the chain head's time, the arithmetic uses this
        self.due: Cycles = 0.0
        #: next compute record in the same per-core stride chain
        self.link: MemTxn | None = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MemTxn(stage={self.stage}, line={self.line:#x}, "
            f"app={self.app_id}, ch={self.channel})"
        )


_COMPUTE_DONE = MemTxn.COMPUTE_DONE
_WARP_RESP = MemTxn.WARP_RESP
_L2_ACCESS = MemTxn.L2_ACCESS
_L1_FILL = MemTxn.L1_FILL
_L1_FILL_MULTI = MemTxn.L1_FILL_MULTI

#: shared immutable default for MSHR release when no waiter is registered
_EMPTY: tuple = ()

#: metric-name suffixes for the engine self-profiling dispatch counters,
#: indexed by MemTxn stage id
_STAGE_NAMES = (
    "compute_done",
    "warp_resp",
    "l2_access",
    "l1_fill",
    "l1_fill_multi",
)

#: process-wide opt-in for engine self-profiling (``--profile``).  Read
#: once at Simulator construction so toggling mid-run has no effect;
#: when off, the only hot-path cost is one ``is not None`` check per
#: dispatch (the same discipline as NullPublisher).
_ENGINE_PROFILING = False


def set_engine_profiling(on: bool) -> bool:
    """Enable/disable engine self-profiling; returns the previous state.

    When on, each subsequently built :class:`Simulator` counts events
    dispatched per stage and samples wheel/pool high-water marks at
    window boundaries, folding the aggregates into the ambient
    :class:`~repro.obs.metrics.MetricsRegistry` at the end of ``run()``
    under the ``engine.`` namespace.  Profiling never touches
    :class:`SimResult` (its stored layout is pinned by the golden
    fixtures), so profiled and unprofiled runs stay bit-identical.
    """
    global _ENGINE_PROFILING
    previous = _ENGINE_PROFILING
    _ENGINE_PROFILING = bool(on)
    return previous


class EventQueue:
    """A time-ordered queue of events, with deterministic tie-breaks.

    Implemented as a calendar queue: a power-of-two wheel of buckets,
    each spanning ``2**BUCKET_SHIFT`` cycles, plus an overflow heap for
    events beyond the wheel's horizon (controller windows, the warmup
    mark).  Each bucket is drained in exact ``(time, seq)`` order, and
    buckets are visited in increasing cycle order, so the execution
    order is identical to a global float-keyed heap — only cheaper:
    push and pop are O(1) for the intra-hierarchy latencies that
    dominate.

    Entries are ``(time, seq, obj)``.  ``obj`` is a plain ``fn(now)``
    callable, a :class:`MemTxn`, which is routed to the ``dispatch``
    hook (bound by :class:`Simulator`) without an intermediate closure,
    or a :class:`~repro.sim.dram.DRAMRequest`, whose ``callback(obj,
    now)`` is invoked.
    """

    #: log2 of a bucket's span in cycles; coarse enough that the walk
    #: rarely visits empty buckets at hot-path event densities
    BUCKET_SHIFT = 4
    #: wheel length in buckets; must be a power of two, and the covered
    #: horizon (WHEEL_SIZE << BUCKET_SHIFT cycles) must exceed every
    #: intra-hierarchy latency (the longest is a congested DRAM round
    #: trip, well under a thousand cycles)
    WHEEL_SIZE = 1024

    __slots__ = (
        "now", "dispatch", "_seq", "_size", "_wheel", "_mask", "_cursor",
        "_overflow", "_overflow_slot",
    )

    def __init__(self) -> None:
        self.now: Cycles = 0.0
        #: stage machine for MemTxn entries; set by the owning Simulator
        self.dispatch: Callable[[MemTxn, Cycles], None] | None = None
        self._seq = 0
        self._size = 0
        self._mask = self.WHEEL_SIZE - 1
        # Each bucket is a heap ordered by (time, seq): pushes land with
        # heappush, so mid-drain insertions keep the order without a
        # Python-level sort.
        self._wheel: list[list[tuple]] = [[] for _ in range(self.WHEEL_SIZE)]
        self._cursor = 0
        self._overflow: list[tuple] = []
        #: bucket slot of the overflow head (cached; 2**63 when empty)
        self._overflow_slot = 1 << 63

    def __len__(self) -> int:
        return self._size

    def push(
        self, time: Cycles, fn: "MemTxn | Callable[[Cycles], None]"
    ) -> None:
        if time < self.now:
            raise ValueError(f"event scheduled in the past: {time} < {self.now}")
        seq = self._seq
        self._seq = seq + 1
        self._size += 1
        slot = int(time) >> 4  # BUCKET_SHIFT
        # Strict `<`: a push landing exactly WHEEL_SIZE buckets ahead
        # (slot - cursor == 1024) would wrap onto the live bucket at the
        # cursor itself, running 16384 cycles early — the horizon
        # boundary must route to the overflow heap.  The inlined copies
        # of this fast path (dispatch hot loop, DRAM scheduler) repeat
        # the same strict comparison.
        if slot - self._cursor < 1024:  # WHEEL_SIZE
            heappush(self._wheel[slot & self._mask], (time, seq, fn))
        else:
            heappush(self._overflow, (time, seq, fn))
            if slot < self._overflow_slot:
                self._overflow_slot = slot

    def _migrate(self, cursor: int) -> None:
        """Move due overflow events into the wheel bucket at ``cursor``."""
        overflow = self._overflow
        bucket = self._wheel[cursor & self._mask]
        horizon = float((cursor + 1) << 4)  # BUCKET_SHIFT
        while overflow and overflow[0][0] < horizon:
            heappush(bucket, heappop(overflow))
        self._overflow_slot = (
            int(overflow[0][0]) >> 4 if overflow else 1 << 63
        )

    def run_until(self, t_end: Cycles) -> None:
        wheel = self._wheel
        mask = self._mask
        overflow = self._overflow
        dispatch = self.dispatch
        end_slot = int(t_end) >> 4  # BUCKET_SHIFT
        cursor = self._cursor
        while True:
            if self._overflow_slot <= cursor:
                self._migrate(cursor)
            bucket = wheel[cursor & mask]
            if bucket:
                self._cursor = cursor
                popped = 0
                while bucket:
                    entry = heappop(bucket)
                    time, _seq, obj = entry
                    if time > t_end:
                        heappush(bucket, entry)
                        break
                    popped += 1
                    self.now = time
                    cls = obj.__class__
                    if cls is MemTxn:
                        dispatch(obj, time)
                    elif cls is DRAMRequest:
                        # Data return: the callback is a C-level partial.
                        obj.callback(obj, time)
                    else:
                        obj(time)
                # _size is maintained as a batch: nothing reads it
                # while a bucket drains (push never consults it).
                self._size -= popped
                if bucket:
                    break  # the rest of this bucket is beyond t_end
            if cursor >= end_slot:
                break
            if self._size != len(overflow):
                cursor += 1
            else:
                # The wheel is drained; everything left (if anything)
                # sits in the overflow heap.  Jump straight to its head.
                jump = self._overflow_slot
                if jump > end_slot:
                    break
                cursor = jump if jump > cursor else cursor + 1
        self._cursor = cursor if cursor <= end_slot else end_slot
        self.now = t_end

    def close(self) -> None:
        """Drop the dispatch hook and every entry that never ran.

        Those entries (events past the run's end) hold transactions and
        callbacks that point back at the simulator.  ``len()`` still
        counts them.
        """
        self.dispatch = None
        for bucket in self._wheel:
            bucket.clear()
        self._overflow.clear()


@dataclass
class SimResult:
    """Outcome of one simulation run.

    ``samples`` covers the measured region (post-warmup); ``windows``
    logs every controller sampling window; ``tlp_timeline`` records each
    (time, app_id, tlp) actuation.  ``roster`` is the tenancy timeline —
    one JSON-native record per mid-run attach/detach (empty for a
    closed-system run, where the roster never changes).
    """

    samples: dict[int, WindowSample]
    cycles: Cycles
    tlp_timeline: list[tuple[Cycles, int, int]]
    windows: list[tuple[Cycles, dict[int, WindowSample]]] = field(default_factory=list)
    final_tlp: dict[int, int] = field(default_factory=dict)
    dram_utilization: Fraction = 0.0
    roster: list[dict] = field(default_factory=list)

    def ipc(self, app_id: int) -> Ipc:
        return self.samples[app_id].ipc

    def eb(self, app_id: int) -> FractionOfPeak:
        return self.samples[app_id].eb

    def bw(self, app_id: int) -> FractionOfPeak:
        return self.samples[app_id].bw

    def cmr(self, app_id: int) -> Fraction:
        return self.samples[app_id].cmr


class Simulator:
    """Whole-GPU simulator executing one or more applications."""

    __slots__ = (
        "config", "apps", "controller", "seed", "addr_map", "events",
        "crossbar", "core_split", "cores", "l1s", "l1_mshrs",
        "cores_of_app", "l2s", "l2_mshrs", "_l1_deferred", "_l2_deferred",
        "channels", "_dram_deferred", "collector", "tlp_timeline",
        "window_log", "current_tlp", "_ran", "_stats", "_push",
        "_bank_row_of", "_req_ports", "_resp_ports",
        "_l1_hit_latency", "_l2_hit_latency", "_dram_cb", "_dram_drain_cb",
        "_busy_at_measurement", "_txn_pool", "_req_pool", "_interleave",
        "_n_channels", "_row_bytes", "_banks_per_channel", "_prof",
        "_prof_hw", "tenancy", "_arrivals", "_detached_apps",
    )

    def __init__(
        self,
        config: GPUConfig,
        apps: "list[AppProfile]",
        core_split: tuple[int, ...] | None = None,
        controller: "TLPController | None" = None,
        seed: int | None = None,
        l2_way_quota: dict[int, int] | None = None,
        arrivals: "tuple[TenancyEvent, ...] | None" = None,
    ) -> None:
        if not apps:
            raise ValueError("need at least one application")
        self.config = config
        self.apps = list(apps)
        self.controller = controller
        self.seed = config.base_seed if seed is None else seed
        self.addr_map = AddressMap.from_config(config)
        self.events = EventQueue()
        self.events.dispatch = self._dispatch
        self.crossbar = Crossbar(config)

        if core_split is None:
            core_split = split_cores(config.n_cores, len(apps))
        else:
            core_split = tuple(core_split)
        if sum(core_split) > config.n_cores:
            raise ValueError(f"core split {core_split} exceeds {config.n_cores} cores")
        if len(core_split) != len(apps):
            raise ValueError("core_split length must match number of apps")
        if len(apps) >= 2 and sum(core_split) < config.n_cores:
            # A multi-app split that strands cores is a silent throughput
            # bug (satellite of the open-system refactor).  Single-app
            # under-allocation stays legal: alone profiling deliberately
            # runs one app on the co-run core count (paper §II).
            raise ValueError(
                f"core split {core_split} under-allocates "
                f"{config.n_cores} cores; distribute every core "
                "(the default split does this automatically)"
            )
        self.core_split = core_split

        # Cores, private L1s and per-core MSHRs.
        self.cores: list[Core] = []
        self.l1s: list[SetAssocCache] = []
        self.l1_mshrs: list[MSHRTable] = []
        self.cores_of_app: dict[int, list[Core]] = {a: [] for a in range(len(apps))}
        core_id = 0
        for app_id, n in enumerate(core_split):
            for _ in range(n):
                core = Core(core_id, app_id, config)
                self.cores.append(core)
                self.cores_of_app[app_id].append(core)
                self.l1s.append(
                    SetAssocCache(config.l1.n_sets, config.l1.assoc, config.l1.line_bytes)
                )
                self.l1_mshrs.append(MSHRTable(config.l1.mshr_entries))
                core_id += 1

        # Shared L2 slices and DRAM channels, one pair per partition.
        geom = config.l2_per_channel
        self.l2s = [
            SetAssocCache(geom.n_sets, geom.assoc, geom.line_bytes)
            for _ in range(config.n_channels)
        ]
        if l2_way_quota:
            for l2 in self.l2s:
                l2.way_quota = dict(l2_way_quota)
        self.l2_mshrs = [
            MSHRTable(geom.mshr_entries * 4) for _ in range(config.n_channels)
        ]
        # Back-pressure: accesses that found their MSHR table full wait
        # here as parked transactions and are re-driven as fills release
        # entries.
        self._l1_deferred: list[deque[MemTxn]] = [deque() for _ in self.cores]
        self._l2_deferred: list[deque[MemTxn]] = [
            deque() for _ in range(config.n_channels)
        ]
        self.channels = [
            DRAMChannel(ch, config, self.addr_map, self.events)
            for ch in range(config.n_channels)
        ]
        # DRAM-queue backpressure: L2 misses deferred while a channel's
        # queue is full, re-driven as the scheduler dequeues.
        self._dram_deferred: list[deque[MemTxn]] = [
            deque() for _ in range(config.n_channels)
        ]
        # The per-channel drain hook is armed (assigned to
        # channel.on_dequeue) only while that channel has parked
        # transactions, so an unloaded scheduler pays nothing per
        # dequeue.
        self._dram_drain_cb = [
            partial(self._drain_dram_deferred, ch)
            for ch in range(config.n_channels)
        ]

        self.collector = StatsCollector(
            list(range(len(apps))), config.peak_bw_lines_per_cycle
        )
        self.tlp_timeline: list[tuple[float, int, int]] = []
        self.window_log: list[tuple[float, dict[int, WindowSample]]] = []
        self.current_tlp: dict[int, int] = {}
        self._ran = False

        # Hot-path pre-binding: resolve the per-event attribute chains
        # once.  self._stats aliases the collector's AppStats objects, so
        # windows and measurements observe every inlined increment.
        self._stats = [self.collector.apps[a] for a in range(len(apps))]
        self._push = self.events.push
        self._bank_row_of = self.addr_map.bank_row_of
        # Address-map geometry for the inlined channel/bank arithmetic
        # (must mirror AddressMap.channel_of / bank_row_of exactly).
        self._interleave = config.interleave_bytes
        self._n_channels = config.n_channels
        self._row_bytes = config.row_bytes
        self._banks_per_channel = config.banks_per_channel
        self._req_ports = self.crossbar.request_ports
        self._resp_ports = self.crossbar.response_ports
        self._l1_hit_latency: Cycles = config.l1_hit_latency
        self._l2_hit_latency: Cycles = config.l2_hit_latency
        self._dram_cb = [
            partial(self._dram_done, ch) for ch in range(config.n_channels)
        ]
        self._busy_at_measurement = [0.0] * config.n_channels
        # Free lists: retired miss transactions and completed DRAM
        # requests are recycled instead of re-allocated.  Warp-owned
        # transactions (compute_txn/resp_txn) and parked transactions
        # never enter the pool — only objects with no remaining owner.
        self._txn_pool: list[MemTxn] = []
        self._req_pool: list[DRAMRequest] = []
        # Self-profiling (``--profile``): per-stage dispatch counts plus
        # wheel/txn-pool/req-pool high-water marks.  ``_prof is None``
        # is the off switch the dispatch hot path checks.
        self._prof: list[int] | None = (
            [0] * len(_STAGE_NAMES) if _ENGINE_PROFILING else None
        )
        self._prof_hw = [0, 0, 0]

        # Populate warp contexts per core (see _populate_core).
        for app_id in range(len(self.apps)):
            for core in self.cores_of_app[app_id]:
                self._populate_core(core, app_id)

        # Tenancy: the live roster and its attach/detach lifecycle.
        # ``arrivals`` is the open-system schedule; without one, the
        # roster is frozen and the simulator behaves exactly as before.
        self.tenancy = Tenancy(self)
        self._arrivals: tuple[TenancyEvent, ...] = tuple(arrivals or ())
        self._detached_apps: set[int] = set()

    @property
    def live_apps(self) -> list[int]:
        """Ascending ids of the currently attached applications."""
        return list(self.tenancy.live)

    def _populate_core(self, core: Core, app_id: int) -> None:
        """Create ``app_id``'s warp contexts on ``core``.

        Warps of one core share a sequential cursor so adjacent warps
        touch adjacent lines (row locality); each warp owns its two
        recurring transactions.  Streams are not built here:
        :meth:`set_tlp` builds a warp's stream at its first activation,
        so a run pays only for the warps its TLP enables.  Called at
        construction and again by :class:`~repro.sim.tenancy.Tenancy`
        when a rebind hands the core to a different application.
        """
        core.core_stream = self.apps[app_id].make_core_stream(
            app_id, core.core_id, self.addr_map
        )
        for _ in range(self.config.max_warps_per_core):
            warp = core.add_warp()
            warp.compute_txn = MemTxn(_COMPUTE_DONE, core, warp)
            warp.resp_txn = MemTxn(_WARP_RESP, core, warp)

    def _warp_stream(self, core: Core, warp: Warp) -> WarpStream:
        """Build ``warp``'s stream on ``core``.

        When it is built does not matter: each stream's RNG is private
        and seeded by (seed, app, core, warp), and construction reads
        only the core cursor's fixed ``base``, never its position.
        """
        return self.apps[warp.app_id].make_stream(
            app_id=warp.app_id,
            core_id=core.core_id,
            warp_id=warp.warp_id,
            seed=self.seed,
            addr_map=self.addr_map,
            core_stream=core.core_stream,
        )

    # ------------------------------------------------------------------
    # TLP actuation
    # ------------------------------------------------------------------

    def set_tlp(self, app_id: int, tlp: int) -> None:
        """Set application ``app_id``'s warp limit on all of its cores.

        A delayed actuation landing after its application detached is a
        no-op: stale controller events must not resurrect a departed
        app's TLP entry or touch its reassigned cores.
        """
        if app_id in self._detached_apps:
            return
        tlp = max(1, min(tlp, self.config.max_tlp))
        now = self.events.now
        self.current_tlp[app_id] = tlp
        self.tlp_timeline.append((now, app_id, tlp))
        for core in self.cores_of_app[app_id]:
            for warp in core.set_tlp(tlp):
                if warp.stream is None:
                    warp.stream = self._warp_stream(core, warp)
                self._start_warp(core, warp, now)

    def set_l2_bypass(self, app_id: int, bypass: bool) -> None:
        """Enable/disable L2 fill bypassing for an application."""
        if app_id in self._detached_apps:
            return
        for l2 in self.l2s:
            if bypass:
                l2.bypass_apps.add(app_id)
            else:
                l2.bypass_apps.discard(app_id)

    # ------------------------------------------------------------------
    # Transaction dispatch (the hot path)
    # ------------------------------------------------------------------

    def _dispatch(self, txn: MemTxn, now: Cycles) -> None:
        """Advance one transaction by one stage.

        This is the engine's single event consumer: the event queue
        routes every :class:`MemTxn` here.
        """
        stage = txn.stage
        prof = self._prof
        if prof is not None:
            prof[stage] += 1
        if stage == _COMPUTE_DONE:
            core = txn.core
            if core.tick_head is txn:
                # This chain is the core's open one; close it so later
                # completions open a fresh chain (with a live event)
                # instead of appending to a consumed record.
                core.tick_head = None
            while True:
                # Chain bookkeeping first: the body below may re-arm
                # this very record for the warp's next iteration (the
                # all-hit fold and the pure-compute path call
                # _start_warp synchronously), which overwrites ``link``
                # and ``due``.
                nxt = txn.link
                txn.link = None
                warp = txn.warp
                stats = self._stats[warp.app_id]
                stats.insts += txn.n_inst
                warp.iterations += 1
                lines = txn.lines
                if not lines:
                    if warp.active:
                        self._start_warp(core, warp, now)
                    else:
                        warp.parked = True
                else:
                    cid = core.core_id
                    n = len(lines)
                    warp.pending = n
                    warp.issue_time = now
                    l1 = self.l1s[cid]
                    l1_sets = l1._sets
                    lb = l1.line_bytes
                    ns = l1.n_sets
                    mshr = self.l1_mshrs[cid]
                    pending_map = mshr._pending
                    app_id = warp.app_id
                    n_hits = 0
                    n_misses = 0
                    for line in lines:
                        # Inlined SetAssocCache.access: LRU lookup, with
                        # the AppStats counts batched after the loop.
                        line_set = l1_sets[(line // lb) % ns]
                        if line in line_set:
                            line_set[line] = line_set.pop(line)
                            n_hits += 1
                            continue
                        n_misses += 1
                        # Inlined L1-miss fast path; _l1_miss is the
                        # readable form (it re-drives parked misses) and
                        # must stay equivalent.
                        waiters = pending_map.get(line)
                        if waiters is not None:
                            waiters.append(warp)
                            mshr.merges += 1
                            continue
                        if len(pending_map) >= mshr.n_entries:
                            mshr.allocation_failures += 1
                            pool = self._txn_pool
                            if pool:
                                t2 = pool.pop()
                                t2.core = core
                                t2.warp = warp
                                t2.line = line
                                t2.app_id = app_id
                            else:
                                t2 = MemTxn(_L2_ACCESS, core, warp, line, app_id)
                            self._l1_deferred[cid].append(t2)
                            continue
                        pending_map[line] = [warp]
                        channel = (line // self._interleave) % self._n_channels
                        port = self._req_ports[channel]
                        fa = port.free_at
                        fa = (now if now > fa else fa) + port.cycles_per_packet
                        port.free_at = fa
                        pool = self._txn_pool
                        if pool:
                            t2 = pool.pop()
                            t2.stage = _L2_ACCESS
                            t2.core = core
                            t2.warp = warp
                            t2.line = line
                            t2.app_id = app_id
                            t2.channel = channel
                        else:
                            t2 = MemTxn(
                                _L2_ACCESS, core, warp, line, app_id, channel
                            )
                        # Inlined EventQueue.push fast path
                        # (engine-scheduled times are never in the past;
                        # overflow is rare).
                        ev = self.events
                        t = fa + port.latency
                        slot = int(t) >> 4
                        if slot - ev._cursor < 1024:
                            seq = ev._seq
                            ev._seq = seq + 1
                            ev._size += 1
                            heappush(ev._wheel[slot & ev._mask], (t, seq, t2))
                        else:
                            ev.push(t, t2)
                    stats.l1_accesses += n
                    if n_misses:
                        stats.l1_misses += n_misses
                    if n_hits:
                        if n_misses:
                            resp = warp.resp_txn
                            resp.n = n_hits
                            ev = self.events
                            t = now + self._l1_hit_latency
                            slot = int(t) >> 4
                            if slot - ev._cursor < 1024:
                                seq = ev._seq
                                ev._seq = seq + 1
                                ev._size += 1
                                heappush(
                                    ev._wheel[slot & ev._mask], (t, seq, resp)
                                )
                            else:
                                ev.push(t, resp)
                        else:
                            # All-hit fold: every line hit, so the
                            # WARP_RESP hop carries no new information.
                            # Complete the memory instruction here and
                            # restart the warp loop at the hit-latency
                            # timestamp (t), one event instead of two.
                            # The next stream draw and issue reservation
                            # happen at wall-time `now` rather than `t`
                            # — a bounded attribution shift, see
                            # docs/performance.md.
                            warp.pending = 0
                            t = now + self._l1_hit_latency
                            self.collector.note_mem_request(app_id, t - now)
                            if warp.active:
                                self._start_warp(core, warp, t)
                            else:
                                warp.parked = True
                if nxt is None:
                    return
                # Continue the stride chain: the follower's event was
                # folded into this one; its exact completion time rides
                # in ``due`` and feeds all downstream arithmetic.
                txn = nxt
                now = txn.due
        if stage == _L1_FILL:
            core = txn.core
            if core.fill_txn is txn:
                core.fill_txn = None
            cid = core.core_id
            line = txn.line
            l1 = self.l1s[cid]
            # Inlined SetAssocCache.fill (L1s have no bypass and no way
            # quota): install with plain LRU eviction.
            line_set = l1._sets[(line // l1.line_bytes) % l1.n_sets]
            if line in line_set:
                line_set[line] = line_set.pop(line)
            else:
                if len(line_set) >= l1.assoc:
                    del line_set[next(iter(line_set))]
                line_set[line] = txn.app_id
            mshr = self.l1_mshrs[cid]
            for warp in mshr._pending.pop(line, _EMPTY):
                pending = warp.pending - 1
                warp.pending = pending
                if pending == 0:
                    self.collector.note_mem_request(
                        warp.app_id, now - warp.issue_time
                    )
                    if warp.active:
                        self._start_warp(core, warp, now)
                    else:
                        warp.parked = True
                elif pending < 0:
                    raise RuntimeError(
                        "warp received more responses than requests"
                    )
            deferred = self._l1_deferred[cid]
            if deferred:
                pending_map = mshr._pending
                n_entries = mshr.n_entries
                while deferred and len(pending_map) < n_entries:
                    # Re-drive parked misses through _l1_miss directly.
                    t2 = deferred.popleft()
                    self._l1_miss(t2.core, t2.warp, t2.line, now, t2)
            self._txn_pool.append(txn)
            return
        if stage == _L1_FILL_MULTI:
            # A batch of same-instant fills for one core (the coalesced
            # form of L1_FILL): install every line, wake its waiters and
            # re-drive deferred misses per line, in the order the fills
            # were scheduled — the same per-line work the individual
            # events would have done back to back.
            core = txn.core
            if core.fill_txn is txn:
                core.fill_txn = None
            cid = core.core_id
            l1 = self.l1s[cid]
            mshr = self.l1_mshrs[cid]
            deferred = self._l1_deferred[cid]
            app_id = txn.app_id
            for line in txn.lines:
                line_set = l1._sets[(line // l1.line_bytes) % l1.n_sets]
                if line in line_set:
                    line_set[line] = line_set.pop(line)
                else:
                    if len(line_set) >= l1.assoc:
                        del line_set[next(iter(line_set))]
                    line_set[line] = app_id
                for warp in mshr._pending.pop(line, _EMPTY):
                    pending = warp.pending - 1
                    warp.pending = pending
                    if pending == 0:
                        self.collector.note_mem_request(
                            warp.app_id, now - warp.issue_time
                        )
                        if warp.active:
                            self._start_warp(core, warp, now)
                        else:
                            warp.parked = True
                    elif pending < 0:
                        raise RuntimeError(
                            "warp received more responses than requests"
                        )
                if deferred:
                    pending_map = mshr._pending
                    n_entries = mshr.n_entries
                    while deferred and len(pending_map) < n_entries:
                        t2 = deferred.popleft()
                        self._l1_miss(t2.core, t2.warp, t2.line, now, t2)
            txn.lines = None
            self._txn_pool.append(txn)
            return
        if stage == _L2_ACCESS:
            channel = txn.channel
            app_id = txn.app_id
            line = txn.line
            l2 = self.l2s[channel]
            # Inlined SetAssocCache.access.
            line_set = l2._sets[(line // l2.line_bytes) % l2.n_sets]
            stats = self._stats[app_id]
            stats.l2_accesses += 1
            if line in line_set:
                line_set[line] = line_set.pop(line)
                port = self._resp_ports[channel]
                t = now + self._l2_hit_latency
                fa = port.free_at
                fa = (t if t > fa else fa) + port.cycles_per_packet
                port.free_at = fa
                t = fa + port.latency
                core = txn.core
                ft = core.fill_txn
                if ft is not None and core.fill_time == t:
                    # Same-instant coalescing: the core already has a
                    # fill event queued at exactly this time (possible
                    # only across channels — one response port
                    # serialises its own fills).  Batch the line onto it
                    # instead of queueing a second event.  All fills of
                    # one core share its application (address spaces are
                    # app-disjoint), so the batch keeps one app_id.
                    if ft.stage == _L1_FILL:
                        ft.stage = _L1_FILL_MULTI
                        ft.lines = [ft.line, line]
                    else:
                        ft.lines.append(line)
                    self._txn_pool.append(txn)
                    return
                txn.stage = _L1_FILL
                core.fill_txn = txn
                core.fill_time = t
                ev = self.events
                slot = int(t) >> 4
                if slot - ev._cursor < 1024:
                    seq = ev._seq
                    ev._seq = seq + 1
                    ev._size += 1
                    heappush(ev._wheel[slot & ev._mask], (t, seq, txn))
                else:
                    ev.push(t, txn)
                return
            stats.l2_misses += 1
            # Inlined _l2_miss + _to_dram fast paths (the methods remain
            # the readable form, used to re-drive parked transactions).
            mshr = self.l2_mshrs[channel]
            pending_map = mshr._pending
            waiters = pending_map.get(line)
            if waiters is not None:
                waiters.append(txn.core)
                mshr.merges += 1
                self._txn_pool.append(txn)
                return
            if len(pending_map) >= mshr.n_entries:
                mshr.allocation_failures += 1
                self._l2_deferred[channel].append(txn)
                return
            pending_map[line] = [txn.core]
            chan = self.channels[channel]
            queue = chan.queue
            if len(queue) >= chan.capacity:
                self._dram_deferred[channel].append(txn)
                chan.on_dequeue = self._dram_drain_cb[channel]
                return
            # Inlined AddressMap.bank_row_of (rows striped across banks).
            il = self._interleave
            local = (line // il // self._n_channels) * il + line % il
            local_row = local // self._row_bytes
            banks = self._banks_per_channel
            bank = local_row % banks
            row = local_row // banks
            pool = self._req_pool
            if pool:
                req = pool.pop()
                req.line_addr = line
                req.app_id = app_id
                req.bank = bank
                req.row = row
                req.callback = self._dram_cb[channel]
                req.row_hit = False
            else:
                req = DRAMRequest(line, app_id, bank, row, self._dram_cb[channel])
            # Inlined DRAMChannel.enqueue (capacity already checked).
            queue.append(req)
            self._txn_pool.append(txn)
            if not chan._deciding:
                chan._deciding = True
                # An idle scheduler's first decision is due at this very
                # instant.  Run it synchronously instead of scheduling a
                # same-time event — with one guard: if the current wheel
                # bucket still holds an entry at exactly `now`, that tie
                # was queued first and must run first, so fall back to
                # the event to keep the (time, seq) order bit-identical.
                # All same-instant events live in the current bucket
                # (overflow entries due now were migrated before the
                # bucket drain began), so one head peek decides.
                ev = self.events
                bucket = ev._wheel[ev._cursor & ev._mask]
                if bucket and bucket[0][0] == now:
                    seq = ev._seq
                    ev._seq = seq + 1
                    ev._size += 1
                    heappush(bucket, (now, seq, chan._decide_event))
                else:
                    chan._decide(now)
            return
        if stage == _WARP_RESP:
            warp = txn.warp
            pending = warp.pending - txn.n
            warp.pending = pending
            if pending < 0:
                raise RuntimeError("warp received more responses than requests")
            if pending == 0:
                self.collector.note_mem_request(warp.app_id, now - warp.issue_time)
                if warp.active:
                    self._start_warp(txn.core, warp, now)
                else:
                    warp.parked = True
            return
        raise RuntimeError(f"unknown transaction stage {stage}")

    # ------------------------------------------------------------------
    # Warp loop
    # ------------------------------------------------------------------

    def _start_warp(self, core: Core, warp: Warp, now: Cycles) -> None:
        # set_tlp built the stream before the warp's first start
        n_inst, lines = warp.stream.next_request()  # type: ignore[union-attr]
        txn = warp.compute_txn
        txn.n_inst = n_inst
        txn.lines = lines
        # Inlined IssueServer.request (same float operations, in the
        # same order): shared issue bandwidth plus the 1-IPC per-warp
        # ceiling.
        iss = core.issue
        free_at = iss.free_at
        start = now if now > free_at else free_at
        finish = start + n_inst / iss.issue_width
        iss.free_at = finish
        min_finish = now + n_inst
        t = finish if finish > min_finish else min_finish
        txn.due = t
        txn.link = None
        # Stride batching: compute completions of one core due at the
        # *exact same instant* share a single event; the head's dispatch
        # walks the chain.  Ties are common (lockstep restarts after a
        # TLP change, warps pinned to the 1-IPC per-warp ceiling) and
        # the fold is order-preserving: every record runs at its true
        # simulated time, so only the tie order against other
        # same-instant events can shift.  Chaining completions that are
        # merely *near* in time is not safe — their bodies would reserve
        # shared ports ahead of events scheduled between the head and
        # the follower, which measurably changes DRAM-side dynamics.
        # The head's dispatch closes the chain, so an append can never
        # target an already-consumed event.
        head = core.tick_head
        if head is not None and core.tick_tail.due == t:
            core.tick_tail.link = txn
            core.tick_tail = txn
            return
        core.tick_head = txn
        core.tick_tail = txn
        ev = self.events
        slot = int(t) >> 4
        if slot - ev._cursor < 1024:
            seq = ev._seq
            ev._seq = seq + 1
            ev._size += 1
            heappush(ev._wheel[slot & ev._mask], (t, seq, txn))
        else:
            ev.push(t, txn)

    # ------------------------------------------------------------------
    # Memory hierarchy
    # ------------------------------------------------------------------

    def _l1_miss(
        self, core: Core, warp: Warp, line: int, now: Cycles, txn: MemTxn | None
    ) -> None:
        """Allocate an L1 miss; forward to L2 or park under backpressure.

        ``txn`` is the transaction being retried from a deferred queue,
        or None on the first attempt (allocated lazily so merged misses
        cost nothing).
        """
        mshr = self.l1_mshrs[core.core_id]
        pending_map = mshr._pending
        waiters = pending_map.get(line)
        if waiters is not None:
            waiters.append(warp)
            mshr.merges += 1
            if txn is not None:
                self._txn_pool.append(txn)
            return
        if len(pending_map) >= mshr.n_entries:
            # Back-pressure: park the transaction; it is re-driven when
            # a fill frees an MSHR entry (see the L1_FILL stage).
            mshr.allocation_failures += 1
            if txn is None:
                txn = MemTxn(_L2_ACCESS, core, warp, line, warp.app_id)
            self._l1_deferred[core.core_id].append(txn)
            return
        pending_map[line] = [warp]
        channel = (line // self._interleave) % self._n_channels
        port = self._req_ports[channel]
        fa = port.free_at
        fa = (now if now > fa else fa) + port.cycles_per_packet
        port.free_at = fa
        if txn is None:
            txn = MemTxn(_L2_ACCESS, core, warp, line, warp.app_id, channel)
        else:
            txn.stage = _L2_ACCESS
            txn.channel = channel
        self._push(fa + port.latency, txn)

    def _l2_miss(self, txn: MemTxn, now: Cycles) -> None:
        """Allocate the L2 miss and send it to DRAM (access already counted).

        The MSHR bookkeeping is the inline form of
        :meth:`MSHRTable.allocate`; a merged transaction has served its
        purpose and is recycled.
        """
        channel = txn.channel
        mshr = self.l2_mshrs[channel]
        pending_map = mshr._pending
        line = txn.line
        waiters = pending_map.get(line)
        if waiters is not None:
            waiters.append(txn.core)
            mshr.merges += 1
            self._txn_pool.append(txn)
            return
        if len(pending_map) >= mshr.n_entries:
            mshr.allocation_failures += 1
            self._l2_deferred[channel].append(txn)
            return
        pending_map[line] = [txn.core]
        self._to_dram(txn, now)

    def _to_dram(self, txn: MemTxn, now: Cycles) -> None:
        """Enqueue at the channel, deferring while its queue is full.

        The transaction's journey ends here: its identity is carried
        onward by a (pooled) :class:`DRAMRequest`, so it is recycled.
        """
        channel = txn.channel
        chan = self.channels[channel]
        if len(chan.queue) >= chan.capacity:
            self._dram_deferred[channel].append(txn)
            chan.on_dequeue = self._dram_drain_cb[channel]
            return
        line = txn.line
        bank, row = self._bank_row_of(line)
        pool = self._req_pool
        if pool:
            req = pool.pop()
            req.line_addr = line
            req.app_id = txn.app_id
            req.bank = bank
            req.row = row
            req.callback = self._dram_cb[channel]
            req.row_hit = False
        else:
            req = DRAMRequest(line, txn.app_id, bank, row, self._dram_cb[channel])
        chan.enqueue(req, now)
        self._txn_pool.append(txn)

    def _drain_dram_deferred(self, channel: int, now: Cycles) -> None:
        """Re-drive parked L2 misses while the channel queue has room.

        Drains in a loop (like the MSHR deferred queues): a single
        dequeue usually frees one slot, but bypass/quota paths and
        bursty dequeues can leave several slots open at once, and a
        parked request must never wait while capacity exists.
        """
        deferred = self._dram_deferred[channel]
        chan = self.channels[channel]
        queue = chan.queue
        capacity = chan.capacity
        while deferred and len(queue) < capacity:
            # Re-drive parked requests through _to_dram directly.
            self._to_dram(deferred.popleft(), now)
        if not deferred:
            chan.on_dequeue = None

    def _dram_done(self, channel: int, request: DRAMRequest, now: Cycles) -> None:
        stats = self._stats[request.app_id]
        stats.dram_lines += 1
        if request.row_hit:
            stats.row_hits += 1
        else:
            stats.row_misses += 1
        line = request.line_addr
        app_id = request.app_id
        l2 = self.l2s[channel]
        if l2.bypass_apps or l2.way_quota:
            l2.fill(line, app_id)
        else:
            # Inlined SetAssocCache.fill fast path (no bypass, no way
            # quota): install with plain LRU eviction.
            line_set = l2._sets[(line // l2.line_bytes) % l2.n_sets]
            if line in line_set:
                line_set[line] = line_set.pop(line)
            else:
                if len(line_set) >= l2.assoc:
                    del line_set[next(iter(line_set))]
                line_set[line] = app_id
        port = self._resp_ports[channel]
        ev = self.events
        txn_pool = self._txn_pool
        mshr = self.l2_mshrs[channel]
        for core in mshr._pending.pop(line, _EMPTY):
            fa = port.free_at
            fa = (now if now > fa else fa) + port.cycles_per_packet
            port.free_at = fa
            t = fa + port.latency
            ft = core.fill_txn
            if ft is not None and core.fill_time == t:
                # Same-instant coalescing (see the L2-hit path): batch
                # onto the core's already-queued fill event.
                if ft.stage == _L1_FILL:
                    ft.stage = _L1_FILL_MULTI
                    ft.lines = [ft.line, line]
                else:
                    ft.lines.append(line)
                continue
            if txn_pool:
                t2 = txn_pool.pop()
                t2.stage = _L1_FILL
                t2.core = core
                t2.warp = None
                t2.line = line
                t2.app_id = app_id
            else:
                t2 = MemTxn(_L1_FILL, core, None, line, app_id)
            core.fill_txn = t2
            core.fill_time = t
            slot = int(t) >> 4
            if slot - ev._cursor < 1024:
                seq = ev._seq
                ev._seq = seq + 1
                ev._size += 1
                heappush(ev._wheel[slot & ev._mask], (t, seq, t2))
            else:
                ev.push(t, t2)
        deferred = self._l2_deferred[channel]
        if deferred:
            pending_map = mshr._pending
            n_entries = mshr.n_entries
            while deferred and len(pending_map) < n_entries:
                # Re-drive parked misses through _l2_miss directly.
                self._l2_miss(deferred.popleft(), now)
        self._req_pool.append(request)

    # ------------------------------------------------------------------
    # Run control
    # ------------------------------------------------------------------

    def run(
        self,
        max_cycles: WholeCycles,
        warmup: WholeCycles | None = None,
        initial_tlp: dict[int, int] | None = None,
    ) -> SimResult:
        """Simulate for ``max_cycles`` and return measured-region results.

        ``warmup`` cycles (default: 20% of the run) are excluded from the
        reported samples so cold caches and controller search transients
        do not skew steady-state metrics.
        """
        if warmup is None:
            warmup = max_cycles // 5
        if warmup >= max_cycles:
            raise ValueError("warmup must be shorter than the run")
        if self._ran:
            raise RuntimeError(
                "a Simulator instance runs once; build a new one to re-run"
            )
        self._ran = True

        initial_tlp = initial_tlp or {}
        for app_id in range(len(self.apps)):
            self.set_tlp(app_id, initial_tlp.get(app_id, self.config.max_tlp))

        self.events.push(float(warmup), self._begin_measurement)

        for ev in self._arrivals:
            if ev.cycle >= max_cycles:
                continue
            self.events.push(float(ev.cycle), partial(self._tenancy_event, ev))

        if self.controller is not None:
            self.controller.start(self, 0.0)
            self._schedule_controller_window(self.controller.sample_period)

        self.events.run_until(float(max_cycles))

        if self._prof is not None:
            self._sample_profiling()
            self._publish_profiling()

        samples = self.collector.measurement(float(max_cycles))
        measured = float(max_cycles) - warmup
        busy = sum(
            ch.busy_cycles - base
            for ch, base in zip(self.channels, self._busy_at_measurement)
        )
        result = SimResult(
            samples=samples,
            cycles=measured,
            tlp_timeline=list(self.tlp_timeline),
            windows=list(self.window_log),
            final_tlp=dict(self.current_tlp),
            dram_utilization=busy / (measured * len(self.channels)),
            roster=list(self.tenancy.timeline),
        )
        self._release()
        return result

    def _release(self) -> None:
        """Cut the back-references that make a simulator one big cycle.

        The event queue's dispatch hook, the DRAM callbacks, each
        channel's cached ``_decide`` and drain hook, warps and their
        recurring transactions, the cores' fold records and the tenancy
        manager all point back into the simulator, so without this a
        dropped simulator waits for the cyclic GC.  Runs once, after
        the last event.  Post-run readers keep what they read: stats,
        caches, MSHR maps, deferred queues, pools, ``busy_cycles``, the
        tenancy timeline, and ``len(self.events)``.
        """
        self.events.close()
        self._dram_cb.clear()
        self._dram_drain_cb.clear()
        # Unset rather than None: the slots keep their callable types.
        for req in self._req_pool:
            del req.callback
        for chan in self.channels:
            del chan._decide_event
            chan.on_dequeue = None
            for req in chan.queue:
                del req.callback
        for core in self.cores:
            core.fill_txn = core.tick_head = core.tick_tail = None
            for warp in core.warps:
                warp.compute_txn = warp.resp_txn = None
        self.tenancy.release()

    def _tenancy_event(self, ev: TenancyEvent, now: Cycles) -> None:
        """Apply one scheduled roster change (the arrival-event handler)."""
        if ev.action == "attach":
            assert ev.profile is not None
            self.tenancy.attach(ev.profile, now)
        else:
            assert ev.app_id is not None
            self.tenancy.detach(ev.app_id, now)

    def _begin_measurement(self, now: Cycles) -> None:
        """End of warmup: snapshot counters and per-channel busy cycles
        so dram_utilization, like every other reported metric, covers
        only the measured (post-warmup) region."""
        self.collector.start_measurement(now)
        self._busy_at_measurement = [ch.busy_cycles for ch in self.channels]
        if self._prof is not None:
            self._sample_profiling()

    def _sample_profiling(self) -> None:
        """Fold current occupancies into the high-water marks.

        Called at window boundaries (and warmup end / run end), not per
        event, so profiling adds nothing to the dispatch loop beyond the
        per-stage increment.
        """
        hw = self._prof_hw
        hw[0] = max(hw[0], len(self.events))
        hw[1] = max(hw[1], len(self._txn_pool))
        hw[2] = max(hw[2], len(self._req_pool))

    def _publish_profiling(self) -> None:
        """Fold self-profiling aggregates into the ambient registry.

        Counters are additive across the Simulators of one run (a sweep
        job simulates several configurations); high-water gauges take
        the max so the registry reports the worst case seen.  This is
        the seam that keeps SimResult, and so the result store's key,
        unchanged: nothing profiling-related enters it.
        """
        registry = get_metrics()
        prof = self._prof
        assert prof is not None
        dispatched = 0
        for stage_id, name in enumerate(_STAGE_NAMES):
            count = prof[stage_id]
            dispatched += count
            if count:
                registry.inc(f"engine.dispatch.{name}", count)
        registry.inc("engine.events.dispatched", dispatched)
        for name, value in (
            ("engine.wheel.high_water", self._prof_hw[0]),
            ("engine.txn_pool.high_water", self._prof_hw[1]),
            ("engine.req_pool.high_water", self._prof_hw[2]),
        ):
            registry.set_gauge(
                name, max(registry.gauges.get(name, 0.0), float(value))
            )

    def _schedule_controller_window(self, when: Cycles) -> None:
        self.events.push(when, self._controller_window)

    def _controller_window(self, now: Cycles) -> None:
        assert self.controller is not None
        if self._prof is not None:
            self._sample_profiling()
        # A tenancy event at this exact cycle already sealed the window;
        # skip the zero-cycle cut but keep the window cadence.
        if now > self.collector.window_start:
            windows = self.collector.cut_window(now)
            self.window_log.append((now, windows))
            self.controller.on_window(self, now, windows)
        self._schedule_controller_window(now + self.controller.sample_period)
