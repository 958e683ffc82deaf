"""GPU core (SM / compute unit) model: warp contexts, issue bandwidth,
and static-warp-limiting (SWL) TLP control.

A warp alternates between a *compute phase* (a run of non-memory
instructions, whose length comes from the application's memory intensity
r_m) and a *memory instruction* that issues one or more coalesced
cache-line accesses and blocks until the last response returns.  This
closed-loop structure is what makes IPC rise with TLP while memory
latency is being hidden, and fall once cache thrashing and queueing
dominate — the behaviour in Figure 2 of the paper.

Issue bandwidth is modelled by :class:`IssueServer`: the core's two warp
schedulers collectively issue ``issue_width`` instructions per cycle,
shared greedy-oldest-first (GTO-like) among warps in compute phase; a
single warp can retire at most one instruction per cycle.

TLP is enforced SWL-style (§II): only the first ``tlp * schedulers``
warp contexts may issue.  Deactivated warps drain their outstanding
memory request and park; reactivated warps resume their instruction
stream where they left off.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Protocol

from repro.config import GPUConfig
from repro.units import Cycles, Insts, InstsPerCycle

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import MemTxn

__all__ = ["WarpStream", "Warp", "IssueServer", "Core"]


class WarpStream(Protocol):
    """Per-warp synthetic instruction/address stream.

    Implementations live in :mod:`repro.workloads.synthetic`.
    """

    def next_request(self) -> tuple[int, list[int]]:
        """Return the next iteration of the warp loop.

        The first element is the number of warp instructions retired in
        this iteration (the compute run plus the memory instruction);
        the second is the list of cache-line addresses the memory
        instruction touches after coalescing (possibly empty for a
        pure-compute chunk).
        """
        ...


class Warp:
    """One warp context on a core."""

    __slots__ = ("warp_id", "app_id", "stream", "active", "parked", "pending",
                 "issue_time", "iterations", "compute_txn", "resp_txn")

    def __init__(
        self, warp_id: int, app_id: int, stream: WarpStream | None = None
    ) -> None:
        self.warp_id = warp_id
        self.app_id = app_id
        #: the warp's instruction stream; the Simulator builds it at the
        #: warp's first activation, so ``None`` until then
        self.stream = stream
        #: allowed to issue by the current TLP limit
        self.active = False
        #: drained and waiting for reactivation (True only when inactive)
        self.parked = True
        #: outstanding memory responses for the current memory instruction
        self.pending = 0
        #: time the in-flight memory instruction was issued (for latency)
        self.issue_time: Cycles = 0.0
        self.iterations = 0
        #: the warp's recurring engine transactions (compute-phase
        #: completion and L1-hit response); at most one of each is ever
        #: in flight, so the engine reuses them instead of allocating
        #: per iteration.  Wired up by the Simulator at construction.
        self.compute_txn: MemTxn | None = None
        self.resp_txn: MemTxn | None = None


class IssueServer:
    """Shared instruction-issue bandwidth of one core.

    ``request`` reserves ``n_inst`` instructions' worth of issue slots
    and returns the cycle at which the requesting warp's compute phase
    completes: never faster than the core-wide ``issue_width`` allows in
    aggregate, and never faster than one instruction per cycle for the
    individual warp.
    """

    __slots__ = ("issue_width", "free_at")

    def __init__(self, issue_width: InstsPerCycle) -> None:
        if issue_width <= 0:
            raise ValueError("issue_width must be positive")
        self.issue_width: InstsPerCycle = issue_width
        self.free_at: Cycles = 0.0

    def request(self, now: Cycles, n_inst: Insts) -> Cycles:
        start = now if now > self.free_at else self.free_at
        self.free_at = start + n_inst / self.issue_width
        finish = self.free_at
        # 1 IPC per-warp ceiling: n_inst deliberately converts to cycles
        # at the 1-inst-per-cycle retire limit.
        min_finish = now + n_inst  # repro: noqa[R012]
        return finish if finish > min_finish else min_finish


class Core:
    """One GPU core: warp contexts + issue server + SWL TLP limit."""

    __slots__ = ("core_id", "app_id", "config", "issue", "warps", "tlp",
                 "core_stream", "fill_txn", "fill_time", "tick_head",
                 "tick_tail")

    def __init__(self, core_id: int, app_id: int, config: GPUConfig) -> None:
        self.core_id = core_id
        self.app_id = app_id
        self.config = config
        self.issue = IssueServer(config.issue_width)
        self.warps: list[Warp] = []
        self.tlp = config.max_tlp
        #: the owning application's shared per-core cursor, handed to
        #: every warp stream built on this core; its type is the
        #: profile's (a ``CoreStream``, one per phase, or ``None`` for a
        #: replayed trace)
        self.core_stream: Any = None
        #: the core's most recently scheduled, still-queued L1 fill
        #: transaction and its event time; a new fill due at exactly the
        #: same instant coalesces into it (engine fold, see
        #: ``MemTxn.L1_FILL_MULTI``).  Cleared when the event dispatches.
        self.fill_txn: "MemTxn | None" = None
        self.fill_time: Cycles = -1.0
        #: open per-core compute stride chain: head/tail of the linked
        #: chain of same-instant compute records riding one queued
        #: event (engine fold, see ``Simulator._start_warp``).  Cleared
        #: when the head dispatches.
        self.tick_head: "MemTxn | None" = None
        self.tick_tail: "MemTxn | None" = None

    def add_warp(self, stream: WarpStream | None = None) -> Warp:
        warp = Warp(len(self.warps), self.app_id, stream)
        self.warps.append(warp)
        return warp

    @property
    def active_limit(self) -> int:
        """Number of warp contexts allowed to issue at the current TLP."""
        limit = self.tlp * self.config.schedulers_per_core
        return min(limit, len(self.warps))

    def set_tlp(self, tlp: int) -> list[Warp]:
        """Apply a new warp limit; returns parked warps to (re)start.

        Warps beyond the new limit have ``active`` cleared and will park
        when their in-flight iteration drains.  Warps newly inside the
        limit that were parked are returned so the engine can restart
        their loops.
        """
        if tlp < 1:
            raise ValueError("TLP must be at least 1")
        self.tlp = min(tlp, self.config.max_tlp)
        limit = self.active_limit
        to_start: list[Warp] = []
        for i, warp in enumerate(self.warps):
            should_run = i < limit
            if should_run and not warp.active:
                warp.active = True
                if warp.parked:
                    warp.parked = False
                    to_start.append(warp)
            elif not should_run and warp.active:
                warp.active = False
        return to_start
