"""Open-system tenancy: the live application roster and its lifecycle.

The paper evaluates fixed 2-app co-runs, but a production GPU juggles a
churning mix: jobs arrive, run for a while, and leave.  This module
makes the roster a first-class runtime object instead of a
constructor-time constant:

* :func:`split_cores` is the one deterministic core-partitioning rule —
  an equal split with the remainder handed to the first applications, so
  no core is ever silently idle.
* :class:`TenancyEvent` is one scheduled roster change (an arrival with
  its application profile, or a departure by app id), validated at
  construction and carried by :class:`repro.workloads.arrivals`
  schedules.
* :class:`Tenancy` owns the live roster of a running
  :class:`~repro.sim.engine.Simulator` and performs ``attach``/``detach``
  at cycle boundaries via *drain-and-rebind*: reassigned cores
  deactivate their warps (in-flight work drains and is credited to the
  departing owner), per-core fold state is reset so same-instant
  batches never mix applications, fresh warp contexts are populated for
  the new owner, and the stats window is sealed so no observation
  window ever straddles a roster change.

App ids are monotonic and never reused: the k-th arrival of a run gets
id ``n_initial + k``, which keeps address spaces, stream seeds, and
per-app counters disjoint across the whole run.  A simulator built
without arrival events never calls into ``attach``/``detach``, so the
closed-system behavior (and its golden fixtures) is untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.units import Cycles

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.sim.core import Warp
    from repro.sim.engine import Simulator
    from repro.workloads.synthetic import AppProfile

__all__ = ["TenancyEvent", "Tenancy", "split_cores"]


def split_cores(n_cores: int, n_apps: int) -> tuple[int, ...]:
    """Deterministic equal core split with the remainder used, not lost.

    Every application gets ``n_cores // n_apps`` cores and the first
    ``n_cores % n_apps`` applications get one extra, so the split always
    sums to ``n_cores`` — 8 cores over 3 apps is ``(3, 3, 2)``, never
    ``(2, 2, 2)`` with two cores silently idle.
    """
    if n_apps < 1:
        raise ValueError("need at least one application")
    base, extra = divmod(n_cores, n_apps)
    if base < 1:
        raise ValueError("more applications than cores")
    return tuple(base + 1 if i < extra else base for i in range(n_apps))


@dataclass(frozen=True)
class TenancyEvent:
    """One scheduled roster change of an open-system run.

    An ``attach`` carries the arriving application's profile (its app id
    is assigned by the engine when the event fires: ids are monotonic
    and never reused).  A ``detach`` names the departing app id, which a
    schedule can predict deterministically — initial applications get
    ids ``0..n-1`` and the k-th arrival gets ``n + k``.
    """

    cycle: int
    action: str  # "attach" | "detach"
    profile: "AppProfile | None" = None
    app_id: int | None = None

    def __post_init__(self) -> None:
        if self.action not in ("attach", "detach"):
            raise ValueError(f"unknown tenancy action {self.action!r}")
        if self.cycle <= 0:
            raise ValueError("tenancy events must be scheduled after cycle 0")
        if self.action == "attach" and self.profile is None:
            raise ValueError("attach events need an application profile")
        if self.action == "detach" and self.app_id is None:
            raise ValueError("detach events need the departing app_id")


class Tenancy:
    """The live application roster of one running simulator.

    Owns the attach/detach lifecycle: roster membership, deterministic
    drain-and-rebind core reassignment, per-app stats stream creation,
    window sealing at churn boundaries, and the JSON-native ``timeline``
    of roster changes that rides on :class:`~repro.sim.engine.SimResult`
    (empty for a closed-system run).
    """

    __slots__ = ("sim", "live", "timeline", "_draining")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        #: live app ids, ascending (ids are monotonic, so append keeps
        #: the order)
        self.live: list[int] = list(range(len(sim.apps)))
        #: JSON-native roster-change records, in event order
        self.timeline: list[dict] = []
        #: retired warps whose compute phase was still in flight, so
        #: their ``resp_txn`` stays linked until :meth:`release`
        self._draining: list["Warp"] = []

    # -- lifecycle --------------------------------------------------------

    def attach(self, profile: "AppProfile", now: Cycles) -> int:
        """Admit an arriving application at a cycle boundary.

        Returns the new app id.  The arrival gets a fresh stats stream,
        a contiguous core block via rebind, and starts at maxTLP (the
        controller's ``on_attach`` hook may immediately retarget it).
        """
        sim = self.sim
        if len(self.live) >= len(sim.cores):
            raise ValueError(
                f"cannot attach: {len(self.live)} live applications already "
                f"occupy all {len(sim.cores)} cores"
            )
        self._seal_window(now)
        app_id = len(sim.apps)
        sim.apps.append(profile)
        sim.collector.add_app(app_id)
        sim._stats.append(sim.collector.apps[app_id])
        sim.cores_of_app[app_id] = []
        self.live.append(app_id)
        changed = self._rebind()
        sim.set_tlp(app_id, sim.config.max_tlp)
        for a in sorted(changed - {app_id}):
            sim.set_tlp(a, sim.current_tlp.get(a, sim.config.max_tlp))
        self._record("attach", app_id, profile, now)
        controller = sim.controller
        if controller is not None:
            hook = getattr(controller, "on_attach", None)
            if hook is not None:
                hook(sim, now, app_id)
        return app_id

    def detach(self, app_id: int, now: Cycles) -> None:
        """Retire a departing application at a cycle boundary.

        Its cores drain and rebind to the surviving applications;
        in-flight work completes and is still credited to the departed
        app's (sealed, but preserved) counters.
        """
        sim = self.sim
        if app_id not in self.live:
            raise ValueError(f"app {app_id} is not live")
        if len(self.live) == 1:
            raise ValueError("cannot detach the last live application")
        profile = sim.apps[app_id]
        self._seal_window(now)
        self.live.remove(app_id)
        sim._detached_apps.add(app_id)
        # Retire actuator state: L2 bypass flags drop, the TLP entry
        # leaves the live map, and any still-queued delayed actuations
        # for this app become no-ops (Simulator.set_tlp ignores
        # detached apps).
        for l2 in sim.l2s:
            l2.bypass_apps.discard(app_id)
        sim.current_tlp.pop(app_id, None)
        changed = self._rebind()
        sim.cores_of_app[app_id] = []
        for a in sorted(changed):
            sim.set_tlp(a, sim.current_tlp.get(a, sim.config.max_tlp))
        self._record("detach", app_id, profile, now)
        controller = sim.controller
        if controller is not None:
            hook = getattr(controller, "on_detach", None)
            if hook is not None:
                hook(sim, now, app_id)

    # -- internals --------------------------------------------------------

    def _seal_window(self, now: Cycles) -> None:
        """Cut the stats window at the churn boundary.

        Guarantees no :class:`~repro.sim.stats.WindowSample` ever spans
        a roster change: the sealed window lands in ``window_log`` and
        the next controller window starts from the boundary.  A churn
        event coinciding exactly with the last cut seals nothing (a
        zero-cycle window is undefined).
        """
        sim = self.sim
        if now > sim.collector.window_start:
            windows = sim.collector.cut_window(now)
            sim.window_log.append((now, windows))

    def _rebind(self) -> set[int]:
        """Reassign cores to the live roster; return apps that changed.

        Deterministic drain-and-rebind: live apps (ascending id) get
        contiguous core blocks sized by :func:`split_cores`.  A core
        changing owners deactivates its warps — their in-flight
        iterations drain and park, credited to the old owner — resets
        the per-core same-instant fold state (fill coalescing and
        compute stride chains must never batch across applications),
        and is repopulated with fresh warp contexts for the new owner.
        A retired warp is never restarted, so its ``compute_txn`` is
        unlinked at once, and its ``resp_txn`` too unless a compute
        phase in flight may still send a response through it.
        Returned app ids gained at least one core and need their TLP
        re-applied to activate the fresh warps.
        """
        sim = self.sim
        split = split_cores(len(sim.cores), len(self.live))
        new_owner: dict[int, int] = {}
        idx = 0
        for app_id, n in zip(self.live, split):
            for offset in range(n):
                new_owner[sim.cores[idx + offset].core_id] = app_id
            idx += n
        changed: set[int] = set()
        rosters: dict[int, list] = {a: [] for a in self.live}
        for core in sim.cores:
            owner = new_owner[core.core_id]
            rosters[owner].append(core)
            if core.app_id == owner:
                continue
            changed.add(owner)
            for warp in core.warps:
                warp.active = False
                warp.compute_txn = None
                if warp.parked or warp.pending:
                    warp.resp_txn = None
                else:
                    self._draining.append(warp)
            core.warps = []
            core.app_id = owner
            core.fill_txn = None
            core.fill_time = -1.0
            core.tick_head = None
            core.tick_tail = None
            sim._populate_core(core, owner)
        for app_id, cores in rosters.items():
            sim.cores_of_app[app_id] = cores
        return changed

    def release(self) -> None:
        """Unlink the finished simulator and the warps still draining."""
        for warp in self._draining:
            warp.resp_txn = None
        self._draining.clear()
        del self.sim

    def _record(
        self, event: str, app_id: int, profile: "AppProfile", now: Cycles
    ) -> None:
        sim = self.sim
        self.timeline.append(
            {
                "cycle": float(now),
                "event": event,
                "app": app_id,
                "abbr": str(getattr(profile, "abbr", "?")),
                "roster": list(self.live),
                "cores": [len(sim.cores_of_app[a]) for a in self.live],
            }
        )
