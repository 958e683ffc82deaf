"""Open-system scenarios: dynamic arrivals/departures under a policy.

The paper's experiments are closed 2-app co-runs.  This suite opens the
system: an :class:`OpenScenario` describes an initial roster plus
scheduled (or seeded stochastic) arrivals and departures, and
:func:`run_open_scenario` replays it under any registered scheduler
policy (:mod:`repro.core.policy`), returning time-weighted WS/FI/HS
over the churning roster.

Epoch assembly: the run is split at the warmup boundary and at every
roster change; within an epoch the roster is constant, so the paper's
closed-form metrics apply.  Each live application's epoch IPC is the
window-log aggregate (sum of instructions over sum of cycles of the
windows cut inside the epoch — the tenancy manager seals a window at
every churn boundary, so no window straddles an epoch).  Slowdowns are
measured against :meth:`~repro.experiments.common.ExperimentContext.
alone` profiles (alone at half the machine, the paper's reference); the
time-weighted metrics then reduce exactly to the closed forms when the
roster never changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.policy import make_policy
from repro.experiments.common import ExperimentContext
from repro.metrics.tenancy import time_weighted_objective
from repro.sim import SimResult, Simulator, TenancyEvent
from repro.workloads import ArrivalSchedule, app_by_abbr

if TYPE_CHECKING:  # pragma: no cover
    from repro.workloads.synthetic import AppProfile

__all__ = [
    "OpenScenario",
    "OpenRunReport",
    "SCENARIOS",
    "build_schedule",
    "run_open_scenario",
    "assemble_epochs",
]


@dataclass(frozen=True)
class OpenScenario:
    """One open-system experiment, described as data.

    Explicit mode: ``arrivals`` are ``(cycle, abbr)`` pairs and
    ``departures`` are ``(cycle, app_id)`` pairs (ids follow the
    engine's monotonic numbering: initial apps are ``0..n-1``, the k-th
    arrival is ``n + k``).  Seeded mode (``mean_interarrival > 0``):
    a reproducible stochastic trace drawn by
    :meth:`repro.workloads.ArrivalSchedule.seeded` from ``candidates``.
    Cycle positions are *fractions* of the run length, so the same
    scenario scales from quick test runs to full-length ones.
    """

    name: str
    initial: tuple[str, ...]
    arrivals: tuple[tuple[float, str], ...] = ()
    departures: tuple[tuple[float, int], ...] = ()
    candidates: tuple[str, ...] = ()
    mean_interarrival: float = 0.0  # fraction of the run; > 0 → seeded
    mean_lifetime: float = 0.0  # fraction of the run
    max_live: int = 0  # 0 → as many as the machine can host
    min_live: int = 1


#: Named scenarios for the ``repro sim open`` CLI and the smoke tests.
#: ``two-phase`` exercises the full lifecycle deterministically: a third
#: app arrives early (forcing a PBS re-search), then the heaviest
#: initial app departs (forcing another).  ``churn`` draws a seeded
#: Poisson trace over four candidate profiles.
SCENARIOS: dict[str, OpenScenario] = {
    "two-phase": OpenScenario(
        name="two-phase",
        initial=("BLK", "TRD"),
        arrivals=((0.25, "LUD"),),
        departures=((0.55, 0),),
    ),
    "churn": OpenScenario(
        name="churn",
        initial=("BLK", "TRD"),
        candidates=("LUD", "BFS", "GUPS", "RED"),
        mean_interarrival=0.22,
        mean_lifetime=0.35,
        max_live=0,
        min_live=2,
    ),
}


def build_schedule(
    scenario: OpenScenario,
    *,
    cycles: int,
    warmup: int,
    seed: int,
    max_live_cap: int,
) -> ArrivalSchedule:
    """Materialize a scenario's schedule for a concrete run length."""
    initial = tuple(app_by_abbr(a) for a in scenario.initial)

    def cyc(frac: float) -> int:
        # Events land after warmup so every epoch is inside the
        # measured region; fractions position them along what remains.
        return max(1, warmup + int(frac * (cycles - warmup)))

    if scenario.mean_interarrival > 0:
        max_live = scenario.max_live or max_live_cap
        return ArrivalSchedule.seeded(
            initial,
            tuple(app_by_abbr(a) for a in scenario.candidates),
            max_cycles=cycles,
            seed=seed,
            mean_interarrival=scenario.mean_interarrival * (cycles - warmup),
            mean_lifetime=scenario.mean_lifetime * (cycles - warmup),
            max_live=min(max_live, max_live_cap),
            min_live=scenario.min_live,
        )
    events = sorted(
        [
            TenancyEvent(cycle=cyc(f), action="attach", profile=app_by_abbr(abbr))
            for f, abbr in scenario.arrivals
        ]
        + [
            TenancyEvent(cycle=cyc(f), action="detach", app_id=app_id)
            for f, app_id in scenario.departures
        ],
        key=lambda ev: ev.cycle,
    )
    return ArrivalSchedule(initial=initial, events=tuple(events))


@dataclass
class OpenRunReport:
    """One open-system run: result, roster timeline, and TW metrics.

    Carries the same attribute surface as
    :class:`repro.core.runner.SchemeResult` (``result`` / ``workload`` /
    ``scheme`` / ``decisions``), so the live-telemetry emitters accept
    it unchanged.
    """

    scheme: str  # policy name
    workload: str  # scenario name
    result: SimResult
    epochs: list[tuple[float, list[float]]]  # (duration, slowdowns)
    ws: float
    fi: float
    hs: float
    decisions: list[dict] = field(default_factory=list)

    @property
    def n_arrivals(self) -> int:
        return sum(1 for r in self.result.roster if r["event"] == "attach")

    @property
    def n_departures(self) -> int:
        return sum(1 for r in self.result.roster if r["event"] == "detach")


def assemble_epochs(
    result: SimResult,
    warmup: float,
    alone_ipc: dict[int, float],
) -> list[tuple[float, list[float]]]:
    """Split a run's window log into constant-roster epochs.

    Returns ``(duration, slowdowns)`` pairs ordered in time; windows cut
    at or before ``warmup`` are excluded, matching the closed-system
    measurement region.  ``alone_ipc`` maps app id to its alone IPC
    (slowdown denominator); apps with no alone profile are skipped.
    """
    # The roster at warmup: initial apps (every id that never appears as
    # an attach), updated by any churn that happened inside warmup.
    attached = {r["app"] for r in result.roster if r["event"] == "attach"}
    roster = sorted(set(range(len(result.samples))) - attached)
    boundaries: list[tuple[float, list[int]]] = [(warmup, roster)]
    for rec in result.roster:
        if rec["cycle"] <= warmup:
            boundaries[0] = (warmup, list(rec["roster"]))
        else:
            boundaries.append((float(rec["cycle"]), list(rec["roster"])))
    boundaries.append((float(result.cycles) + warmup, []))  # end sentinel

    epochs: list[tuple[float, list[float]]] = []
    end_cycle = boundaries[-1][0]
    for (t0, live), (t1, _next) in zip(boundaries, boundaries[1:]):
        t1 = min(t1, end_cycle)
        if t1 <= t0:
            continue
        insts = {a: 0.0 for a in live}
        spans = {a: 0.0 for a in live}
        for cut, samples in result.windows:
            if cut <= t0 or cut > t1:
                continue
            for a in live:
                if a in samples:
                    insts[a] += samples[a].insts
                    spans[a] += samples[a].cycles
        sds = []
        for a in live:
            ref = alone_ipc.get(a)
            if not ref or spans[a] <= 0:
                continue
            sds.append((insts[a] / spans[a]) / ref)
        if sds:
            epochs.append((t1 - t0, sds))
    return epochs


def run_open_scenario(
    ctx: ExperimentContext,
    scenario: OpenScenario,
    policy: str = "pbs-ws",
    cycles: int | None = None,
    warmup: int | None = None,
    **policy_kwargs: object,
) -> OpenRunReport:
    """Run one open-system scenario under a named policy."""
    cycles = cycles if cycles is not None else ctx.lengths.dynamic_cycles
    warmup = warmup if warmup is not None else ctx.lengths.dynamic_warmup
    schedule = build_schedule(
        scenario,
        cycles=cycles,
        warmup=warmup,
        seed=ctx.seed,
        max_live_cap=ctx.config.n_cores,
    )
    policy_kwargs.setdefault("sample_period", ctx.lengths.sample_period)
    controller = make_policy(
        policy, n_apps=len(schedule.initial), **policy_kwargs
    )
    sim = Simulator(
        ctx.config,
        list(schedule.initial),
        controller=controller,
        seed=ctx.seed,
        arrivals=schedule.events,
    )
    result = sim.run(cycles, warmup=warmup)

    # Alone references for every profile that ever ran.  Arrivals map to
    # their engine-assigned ids: initial apps 0..n-1, k-th attach n+k.
    profiles: dict[int, "AppProfile"] = {
        a: p for a, p in enumerate(schedule.initial)
    }
    attach_ids = sorted(
        r["app"] for r in result.roster if r["event"] == "attach"
    )
    attach_events = [ev for ev in schedule.events if ev.action == "attach"]
    for app_id, ev in zip(attach_ids, attach_events):
        profiles[app_id] = ev.profile
    alone = ctx.alone_for(list(profiles.values()), n_cores=ctx.config.n_cores // 2)
    alone_ipc = dict(sorted((a, r.ipc_alone) for a, r in zip(profiles, alone)))
    epochs = assemble_epochs(result, float(warmup), alone_ipc)
    return OpenRunReport(
        scheme=policy,
        workload=scenario.name,
        result=result,
        epochs=epochs,
        ws=time_weighted_objective("ws", epochs),
        fi=time_weighted_objective("fi", epochs),
        hs=time_weighted_objective("hs", epochs),
        decisions=list(getattr(controller, "decision_log", [])),
    )
