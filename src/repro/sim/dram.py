"""GDDR5 DRAM channel with FR-FCFS scheduling.

Each memory partition owns one :class:`DRAMChannel`.  A channel has
``banks_per_channel`` banks (grouped into bank groups), per-bank row
buffers, and a shared data bus.  The scheduler implements FR-FCFS
(first-ready, first-come-first-served): among queued requests it first
serves row-buffer hits (oldest hit first), falling back to the oldest
request, with a streak cap so a hot row cannot starve the queue
indefinitely.

Timing model (all in core cycles, see :class:`repro.config.DRAMTimings`):

* a row-buffer hit issues a column command and puts data on the bus
  ``t_cl`` cycles later;
* a row miss first precharges (``t_rp``, skipped if the bank is idle)
  and activates (``t_rcd``), respecting the activate-to-activate window
  ``t_rrd`` across the channel and ``t_ras`` within the bank;
* every transfer occupies the shared data bus for ``burst_cycles``;
  column commands to the same bank group are separated by ``t_ccd``.

Scheduling decisions are pipelined: the next decision is taken when the
current transfer *starts* on the bus, so activations overlap in-flight
bursts and bank-level parallelism emerges naturally.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Callable

from repro.config import GPUConfig
from repro.sim.address import AddressMap
from repro.units import Cycles, Fraction

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import EventQueue

__all__ = ["DRAMRequest", "DRAMChannel"]


class DRAMRequest:
    """One cache-line read request queued at a channel.

    The request is itself the data-return event: the scheduler pushes it
    on the event queue at its burst's end time, and calling it invokes
    ``callback(request, now)`` — no per-request closure is allocated.
    """

    __slots__ = (
        "line_addr", "app_id", "bank", "row", "callback", "row_hit",
    )

    def __init__(
        self,
        line_addr: int,
        app_id: int,
        bank: int,
        row: int,
        callback: Callable[["DRAMRequest", float], None],
    ) -> None:
        self.line_addr = line_addr
        self.app_id = app_id
        self.bank = bank
        self.row = row
        self.callback = callback
        self.row_hit = False

    def __call__(self, now: Cycles) -> None:
        self.callback(self, now)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DRAMRequest(line_addr={self.line_addr:#x}, app_id={self.app_id},"
            f" bank={self.bank}, row={self.row}, row_hit={self.row_hit})"
        )


class _Bank:
    __slots__ = ("open_row", "free_at", "ras_until")

    def __init__(self) -> None:
        self.open_row: int | None = None
        self.free_at: Cycles = 0.0
        self.ras_until: Cycles = 0.0


class DRAMChannel:
    """One GDDR5 channel: banks + row buffers + FR-FCFS scheduler."""

    __slots__ = (
        "channel_id", "timings", "addr_map", "frfcfs_cap", "capacity",
        "_events", "_schedule_event", "on_dequeue", "_banks",
        "_group_col_free", "queue", "bus_free", "last_activate",
        "_deciding", "_hit_streak", "busy_cycles", "_decide_event",
        "_bank_group", "_t_ccd", "_t_cl", "_t_rp", "_t_rcd", "_t_ras",
        "_t_rrd", "_burst", "_lookahead",
    )

    def __init__(
        self,
        channel_id: int,
        config: GPUConfig,
        addr_map: AddressMap,
        events: "EventQueue",
    ) -> None:
        self.channel_id = channel_id
        self.timings = config.dram
        self.addr_map = addr_map
        self.frfcfs_cap = config.frfcfs_cap
        self.capacity = config.dram_queue_depth
        #: the owning event queue; the scheduler pushes straight into its
        #: calendar wheel (same inlined fast path the engine hot loop
        #: uses) — one decision schedules two events, so the push cost
        #: is on the critical path of every DRAM line.
        self._events = events
        self._schedule_event = events.push
        # Timing scalars, flattened off the config once (the attribute
        # chain through ``self.timings`` is per-decision cost otherwise).
        t = config.dram
        self._t_ccd: Cycles = t.t_ccd
        self._t_cl: Cycles = t.t_cl
        self._t_rp: Cycles = t.t_rp
        self._t_rcd: Cycles = t.t_rcd
        self._t_ras: Cycles = t.t_ras
        self._t_rrd: Cycles = t.t_rrd
        self._burst: Cycles = t.burst_cycles
        self._lookahead: Cycles = t.row_miss_service + t.burst_cycles
        #: called after each dequeue so a backpressured upstream (the L2
        #: miss path) can re-drive a deferred request
        self.on_dequeue: Callable[[float], None] | None = None
        #: pre-bound hot references (one bound method per channel, not
        #: one per scheduling decision)
        self._decide_event = self._decide
        #: bank id -> bank group, resolved once (AddressMap.bank_group_of)
        self._bank_group = tuple(
            addr_map.bank_group_of(b) for b in range(config.banks_per_channel)
        )
        self._banks = [_Bank() for _ in range(config.banks_per_channel)]
        self._group_col_free = [0.0] * config.bank_groups_per_channel
        self.queue: list[DRAMRequest] = []
        self.bus_free: Cycles = 0.0
        self.last_activate: Cycles = -1e18
        self._deciding = False
        self._hit_streak = 0
        #: data-bus cycles carried so far (read for dram_utilization)
        self.busy_cycles: Cycles = 0.0

    # --- public API ------------------------------------------------------

    def enqueue(self, request: DRAMRequest, now: Cycles) -> None:
        if self.is_full:
            raise RuntimeError(
                f"channel {self.channel_id} queue overflow; check is_full first"
            )
        self.queue.append(request)
        if not self._deciding:
            self._deciding = True
            self._schedule_event(now, self._decide_event)

    @property
    def queue_depth(self) -> int:
        return len(self.queue)

    @property
    def is_full(self) -> bool:
        return len(self.queue) >= self.capacity

    def utilization(self, elapsed: Cycles) -> Fraction:
        """Fraction of elapsed cycles the data bus carried data."""
        return self.busy_cycles / elapsed if elapsed > 0 else 0.0

    # --- scheduling -------------------------------------------------------

    #: scheduler queue visibility (real controllers scan a bounded window)
    SCAN_WINDOW = 64

    def _pick(self, now: Cycles) -> int:
        """FR-FCFS choice within the scan window.

        First ready: the oldest row-buffer hit (unless the hit streak is
        capped); otherwise the oldest request whose bank frees earliest,
        so independent banks activate in parallel.

        One pass serves both priorities: return at the first hit, and
        track the miss fallback along the way.  Once an already-ready
        bank is seen the fallback is locked (the oldest ready bank
        wins), matching the early exit the two-loop form used.
        """
        queue = self.queue
        banks = self._banks
        window = min(len(queue), self.SCAN_WINDOW)
        if self._hit_streak < self.frfcfs_cap:
            best, best_ready = 0, float("inf")
            for i in range(window):
                req = queue[i]
                bank = banks[req.bank]
                if bank.open_row == req.row:
                    return i
                if best_ready > now:
                    ready = bank.free_at
                    if ready < best_ready:
                        best, best_ready = i, ready
            return best
        best, best_ready = 0, float("inf")
        for i in range(window):
            ready = banks[queue[i].bank].free_at
            if ready < best_ready:
                best, best_ready = i, ready
                if ready <= now:
                    break  # the oldest already-ready bank wins
        return best

    def _decide(self, now: Cycles) -> None:
        queue = self.queue
        if not queue:
            self._deciding = False
            return
        # With one queued request the FR-FCFS choice is trivial; the
        # scan only runs when there is an actual decision to make.
        req = queue.pop() if len(queue) == 1 else queue.pop(self._pick(now))
        if self.on_dequeue is not None:
            self.on_dequeue(now)
        bank = self._banks[req.bank]
        group = self._bank_group[req.bank]
        group_col_free = self._group_col_free
        row = req.row

        row_hit = bank.open_row == row
        req.row_hit = row_hit
        if row_hit:
            self._hit_streak += 1
            col_issue = now
            if bank.free_at > col_issue:
                col_issue = bank.free_at
            gcf = group_col_free[group]
            if gcf > col_issue:
                col_issue = gcf
        else:
            self._hit_streak = 0
            act_start = now
            if bank.free_at > act_start:
                act_start = bank.free_at
            rrd_ok = self.last_activate + self._t_rrd
            if rrd_ok > act_start:
                act_start = rrd_ok
            if bank.open_row is not None:
                # Precharge the open row first (respect tRAS already folded
                # into bank.ras_until).
                if bank.ras_until > act_start:
                    act_start = bank.ras_until
                act_start += self._t_rp
            self.last_activate = act_start
            bank.ras_until = act_start + self._t_ras
            bank.open_row = row
            col_issue = act_start + self._t_rcd
            gcf = group_col_free[group]
            if gcf > col_issue:
                col_issue = gcf

        t_ccd = self._t_ccd
        data_ready = col_issue + self._t_cl
        group_col_free[group] = col_issue + t_ccd
        bus_free = self.bus_free
        data_start = data_ready if data_ready > bus_free else bus_free
        data_end = data_start + self._burst
        self.bus_free = data_end
        bank.free_at = col_issue + t_ccd
        self.busy_cycles += self._burst

        # The request object is its own data-return event (see
        # DRAMRequest.__call__) — no per-burst closure.  Both pushes use
        # the calendar wheel's inlined fast path (engine-scheduled times
        # are never in the past; overflow is rare).
        ev = self._events
        slot = int(data_end) >> 4  # EventQueue.BUCKET_SHIFT
        if slot - ev._cursor < 1024:  # EventQueue.WHEEL_SIZE
            seq = ev._seq
            ev._seq = seq + 1
            ev._size += 1
            heappush(ev._wheel[slot & ev._mask], (data_end, seq, req))
        else:
            ev.push(data_end, req)
        if not queue:
            self._deciding = False
            return
        # Pipeline: a new command can be scheduled every t_ccd cycles, so
        # activations to other banks overlap the in-flight burst.  When
        # the data bus is backlogged, hold the next decision so that only
        # about one activate-to-data pipeline's worth of requests is
        # committed ahead of the bus (bounded-lookahead FR-FCFS): deep
        # enough that row-miss activations overlap at t_rrd spacing, yet
        # shallow enough that late-arriving row hits can still reorder in.
        next_decision = now + t_ccd
        lagged = data_end - self._lookahead
        if lagged > next_decision:
            next_decision = lagged
        slot = int(next_decision) >> 4
        if slot - ev._cursor < 1024:
            seq = ev._seq
            ev._seq = seq + 1
            ev._size += 1
            heappush(
                ev._wheel[slot & ev._mask],
                (next_decision, seq, self._decide_event),
            )
        else:
            ev.push(next_decision, self._decide_event)
