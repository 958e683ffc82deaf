"""High-level evaluation entry points.

This module is the public face of the reproduction: profile applications
alone, profile TLP-combination surfaces, and evaluate any of the paper's
schemes on a multi-application workload, returning SD- and EB-based
metrics ready for the experiment harness.

Scheme names (Table II and §VI):

============  ==========================================================
``besttlp``    each app at its alone best-performing TLP (the baseline)
``maxtlp``     each app at maxTLP
``dyncta``     per-app DynCTA modulation
``ccws``       per-app CCWS-style locality-driven throttling
``modbypass``  DynCTA-style modulation + L2 bypassing (Mod+Bypass)
``pbs-ws``     online PBS optimizing EB-WS
``pbs-fi``     online PBS optimizing EB-FI (sampled scaling factors)
``pbs-hs``     online PBS optimizing EB-HS (sampled scaling factors)
``pbs-offline-ws|fi|hs``  PBS searched offline, run statically
``bf-ws|fi|hs``            exhaustive EB-metric search, run statically
``opt-ws|fi|hs``           exhaustive SD-metric oracle, run statically
============  ==========================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

from repro.config import GPUConfig, TLP_LEVELS
from repro.core.controller import DEFAULT_SAMPLE_PERIOD, TLPController
from repro.core.offline import (
    brute_force_search,
    oracle_search,
    pbs_offline_search,
    sampled_scale,
)
from repro.core.policy import make_policy
from repro.core.tlp import all_combos
from repro.exec.jobs import SimJob, run_sim_job
from repro.exec.pool import ProgressFn, run_jobs
from repro.metrics.slowdown import fairness_index, harmonic_speedup, weighted_speedup
from repro.obs.live import get_publisher, result_records
from repro.sim.engine import SimResult, Simulator
from repro.sim.stats import WindowSample

if TYPE_CHECKING:  # pragma: no cover
    from repro.workloads.synthetic import AppProfile

__all__ = [
    "RunLengths",
    "AloneProfile",
    "SchemeResult",
    "ALL_SCHEMES",
    "DYNAMIC_SCHEMES",
    "SchemeJob",
    "SchemeRun",
    "alone_from_sweep",
    "alone_jobs",
    "emit_scheme_events",
    "profile_alone",
    "profile_surface",
    "surface_jobs",
    "run_combo",
    "run_job",
    "run_scheme_job",
    "scheme_job",
    "evaluate_scheme",
]

#: The controller-driven schemes, each named as its controller is in
#: the :mod:`repro.core.policy` registry.
DYNAMIC_SCHEMES: tuple[str, ...] = (
    "dyncta", "ccws", "modbypass", "pbs-ws", "pbs-fi", "pbs-hs",
)

#: Every scheme name understood by :func:`evaluate_scheme`.
ALL_SCHEMES: tuple[str, ...] = (
    "besttlp",
    "maxtlp",
    *DYNAMIC_SCHEMES,
    *(f"{search}-{metric}" for search in ("pbs-offline", "bf", "opt")
      for metric in ("ws", "fi", "hs")),
)


@dataclass(frozen=True)
class RunLengths:
    """Simulation durations for profiling and evaluation runs."""

    #: profile and eval lengths are identical so that a combination's
    #: profiled metrics and its evaluated metrics are the *same
    #: simulation* — the oracle searches are then exact by construction
    profile_cycles: int = 40_000
    profile_warmup: int = 8_000
    eval_cycles: int = 40_000
    eval_warmup: int = 8_000
    #: dynamic (controller-driven) schemes run longer so search and
    #: adaptation overheads are paid — and amortized — inside the
    #: measured region, as they are on real hardware
    dynamic_cycles: int = 2_000_000
    dynamic_warmup: int = 60_000
    sample_period: float = DEFAULT_SAMPLE_PERIOD

    @classmethod
    def quick(cls) -> "RunLengths":
        """Short runs for tests."""
        return cls(
            profile_cycles=6_000,
            profile_warmup=1_500,
            eval_cycles=6_000,
            eval_warmup=1_500,
            dynamic_cycles=100_000,
            dynamic_warmup=6_000,
            sample_period=800,
        )


@dataclass
class AloneProfile:
    """Alone-run characterization of one application (per Table IV)."""

    abbr: str
    best_tlp: int
    ipc_alone: float
    eb_alone: float
    sweep: dict[int, WindowSample] = field(default_factory=dict)

    @property
    def bw_alone(self) -> float:
        return self.sweep[self.best_tlp].bw

    @property
    def cmr_alone(self) -> float:
        return self.sweep[self.best_tlp].cmr


@dataclass
class SchemeResult:
    """One scheme evaluated on one workload."""

    scheme: str
    workload: str
    combo: tuple[int, ...] | None  # final/static combo; None if fully dynamic
    sds: list[float]
    ws: float
    fi: float
    hs: float
    ebs: list[float]
    ipcs: list[float]
    result: SimResult
    #: the controller's structured decision log (empty for static
    #: schemes): cycle-stamped, JSON-native dicts that survive the
    #: result cache, so telemetry can be replayed from cached results
    decisions: list[dict] = field(default_factory=list)

    @classmethod
    def from_result(
        cls,
        scheme: str,
        workload: str,
        combo: tuple[int, ...] | None,
        result: SimResult,
        alone: list[AloneProfile],
        decisions: list[dict] | None = None,
    ) -> "SchemeResult":
        sds = []
        for a, profile in enumerate(alone):
            if profile.ipc_alone <= 0:
                raise ValueError(
                    f"alone profile of app {profile.abbr!r} (index {a}) has "
                    f"ipc_alone == 0, so slowdowns under scheme {scheme!r} "
                    f"on workload {workload!r} are undefined; re-profile "
                    f"with longer runs or check the application's streams"
                )
            sds.append(result.samples[a].ipc / profile.ipc_alone)
        return cls(
            scheme=scheme,
            workload=workload,
            combo=combo,
            sds=sds,
            ws=weighted_speedup(sds),
            fi=fairness_index(sds),
            hs=harmonic_speedup(sds),
            ebs=[result.samples[a].eb for a in range(len(alone))],
            ipcs=[result.samples[a].ipc for a in range(len(alone))],
            result=result,
            decisions=list(decisions) if decisions else [],
        )


def alone_from_sweep(abbr: str, sweep: dict[int, WindowSample]) -> AloneProfile:
    """Assemble an :class:`AloneProfile` from a per-level sweep.

    bestTLP is the level with the highest alone IPC; ties break toward
    the earliest level in the sweep's (insertion) order, so callers must
    insert levels in ascending order for deterministic results.
    """
    best = max(sweep, key=lambda lv: sweep[lv].ipc)
    return AloneProfile(
        abbr=abbr,
        best_tlp=best,
        ipc_alone=sweep[best].ipc,
        eb_alone=sweep[best].eb,
        sweep=sweep,
    )


def alone_jobs(
    config: GPUConfig,
    app: "AppProfile",
    n_cores: int,
    lengths: RunLengths = RunLengths(),
    seed: int | None = None,
    levels: tuple[int, ...] = TLP_LEVELS,
) -> list[SimJob]:
    """The runs of an alone sweep: ``app`` on ``n_cores`` at each level."""
    return [
        SimJob(
            config=config,
            apps=(app,),
            combo=(level,),
            cycles=lengths.profile_cycles,
            warmup=lengths.profile_warmup,
            seed=seed,
            core_split=(n_cores,),
            tag=("alone", app.abbr, level),
        )
        for level in levels
    ]


def profile_alone(
    config: GPUConfig,
    app: "AppProfile",
    n_cores: int,
    lengths: RunLengths = RunLengths(),
    seed: int | None = None,
    levels: tuple[int, ...] = TLP_LEVELS,
    n_jobs: int | None = None,
    progress: ProgressFn | None = None,
) -> AloneProfile:
    """Find an application's bestTLP by sweeping it alone on ``n_cores``.

    This is the paper's baseline setup: the alone run uses the *same*
    set of cores the application gets in the shared configuration, and
    bestTLP is the level with the highest alone IPC.  The per-level runs
    are independent and execute on ``n_jobs`` processes (see
    :mod:`repro.exec`).
    """
    jobs = alone_jobs(config, app, n_cores, lengths, seed, levels)
    results = run_jobs(run_sim_job, jobs, n_jobs=n_jobs, progress=progress)
    sweep = {level: result.samples[0] for level, result in zip(levels, results)}
    return alone_from_sweep(app.abbr, sweep)


def run_combo(
    config: GPUConfig,
    apps: "list[AppProfile]",
    combo: tuple[int, ...],
    cycles: int,
    warmup: int,
    seed: int | None = None,
    controller: TLPController | None = None,
    core_split: tuple[int, ...] | None = None,
    l2_way_quota: dict[int, int] | None = None,
) -> SimResult:
    """Run a workload at a fixed TLP combination (or under a controller)."""
    sim = Simulator(
        config,
        apps,
        controller=controller,
        seed=seed,
        core_split=core_split,
        l2_way_quota=l2_way_quota,
    )
    initial = {a: combo[a] for a in range(len(apps))}
    return sim.run(cycles, warmup=warmup, initial_tlp=initial)


def surface_jobs(
    config: GPUConfig,
    apps: "list[AppProfile]",
    lengths: RunLengths = RunLengths(),
    seed: int | None = None,
    levels: tuple[int, ...] = TLP_LEVELS,
    core_split: tuple[int, ...] | None = None,
) -> list[SimJob]:
    """The runs of a surface: one per TLP combination, in lattice order."""
    name = "_".join(a.abbr for a in apps)
    return [
        SimJob(
            config=config,
            apps=tuple(apps),
            combo=combo,
            cycles=lengths.profile_cycles,
            warmup=lengths.profile_warmup,
            seed=seed,
            core_split=core_split,
            tag=("surface", name, combo),
        )
        for combo in all_combos(len(apps), levels)
    ]


def profile_surface(
    config: GPUConfig,
    apps: "list[AppProfile]",
    lengths: RunLengths = RunLengths(),
    seed: int | None = None,
    levels: tuple[int, ...] = TLP_LEVELS,
    core_split: tuple[int, ...] | None = None,
    n_jobs: int | None = None,
    progress: ProgressFn | None = None,
) -> dict[tuple[int, ...], SimResult]:
    """Profile every TLP combination of the workload (64 for two apps).

    The combinations are independent simulations and execute on
    ``n_jobs`` processes; the returned dict is keyed in lattice order
    regardless of completion order, so parallel and serial sweeps are
    identical.
    """
    jobs = surface_jobs(config, apps, lengths, seed, levels, core_split)
    results = run_jobs(run_sim_job, jobs, n_jobs=n_jobs, progress=progress)
    return {job.combo: result for job, result in zip(jobs, results)}


def _static_combo(
    scheme: str,
    apps: "list[AppProfile]",
    alone: list[AloneProfile],
    surface: dict[tuple[int, ...], SimResult] | None,
    config: GPUConfig,
) -> tuple[int, ...]:
    """The combination a static scheme runs: bestTLP's from the alone
    profiles, maxTLP's from the config, a search's from ``surface``."""
    n = len(apps)
    if scheme == "besttlp":
        return tuple(alone[a].best_tlp for a in range(n))
    if scheme == "maxtlp":
        return tuple(config.max_tlp for _ in range(n))
    if surface is None:
        raise ValueError(f"scheme {scheme!r} needs a profiled surface")
    metric = scheme.rsplit("-", 1)[-1]
    if scheme.startswith("opt-"):
        return oracle_search(surface, metric, [p.ipc_alone for p in alone])
    scale = None
    if metric in ("fi", "hs"):
        scale = sampled_scale(surface, n)
    if scheme.startswith("bf-"):
        return brute_force_search(surface, metric, n, scale=scale)
    if scheme.startswith("pbs-offline-"):
        combo, _log = pbs_offline_search(surface, metric, n, scale=scale)
        return combo
    raise ValueError(f"unknown scheme {scheme!r}")


class SchemeRun(NamedTuple):
    """A scheme's run, before it is scored."""

    result: SimResult
    #: the static combination, PBS's final one, or None (other controllers)
    combo: tuple[int, ...] | None
    decisions: list[dict]


@dataclass(frozen=True)
class SchemeJob:
    """One scheme's run on one workload, as a picklable pool job.

    A static scheme runs ``combo`` for the evaluation lengths.  A dynamic
    one (``combo`` None) runs from maxTLP for the dynamic lengths under
    its controller, which the worker builds from the policy registry:
    the spec names the controller, since a live one would not pickle.
    """

    config: GPUConfig
    apps: "tuple[AppProfile, ...]"
    scheme: str
    lengths: RunLengths
    combo: tuple[int, ...] | None = None
    seed: int | None = None
    core_split: tuple[int, ...] | None = None

    @property
    def tag(self) -> tuple:
        return ("scheme", "_".join(a.abbr for a in self.apps), self.scheme)

    def __repr__(self) -> str:  # keep JobError messages readable
        return f"SchemeJob{self.tag[1:]}"

    def held_by(
        self, surface: dict[tuple[int, ...], SimResult] | None
    ) -> SchemeRun | None:
        """This static run, if ``surface`` holds it: a surface profiled
        at the evaluation lengths ran the very same simulation, and
        reusing it makes the oracle searches exact."""
        combo, lengths = self.combo, self.lengths
        if combo is None or surface is None or combo not in surface or (
            lengths.profile_cycles, lengths.profile_warmup
        ) != (lengths.eval_cycles, lengths.eval_warmup):
            return None
        return SchemeRun(surface[combo], combo, [])


def scheme_job(
    config: GPUConfig,
    apps: "list[AppProfile]",
    scheme: str,
    alone: list[AloneProfile],
    surface: dict[tuple[int, ...], SimResult] | None,
    lengths: RunLengths,
    seed: int | None = None,
    core_split: tuple[int, ...] | None = None,
) -> SchemeJob:
    """One scheme's run on ``apps`` as a job: a dynamic scheme's under
    its controller, a static one's at the combination it resolves from
    the ``alone`` profiles, the config or ``surface``."""
    combo = None
    if scheme not in DYNAMIC_SCHEMES:
        combo = _static_combo(scheme, apps, alone, surface, config)
    return SchemeJob(config, tuple(apps), scheme, lengths, combo, seed, core_split)


def run_scheme_job(
    job: SchemeJob, l2_way_quota: dict[int, int] | None = None
) -> SchemeRun:
    """Simulate one :class:`SchemeJob` (a process-pool worker function)."""
    n, lengths = len(job.apps), job.lengths
    controller = None
    if job.combo is None:
        controller = make_policy(
            job.scheme, n_apps=n, sample_period=lengths.sample_period
        )
    static = controller is None
    with get_publisher().span(
        f"evaluate:{job.scheme}", cat="scheme", workload=job.tag[1]
    ):
        result = run_combo(
            job.config,
            list(job.apps),
            job.combo if static else tuple(job.config.max_tlp for _ in range(n)),
            lengths.eval_cycles if static else lengths.dynamic_cycles,
            lengths.eval_warmup if static else lengths.dynamic_warmup,
            seed=job.seed,
            controller=controller,
            core_split=job.core_split,
            l2_way_quota=l2_way_quota,
        )
    if static:
        return SchemeRun(result, job.combo, [])
    final = getattr(controller, "final_combo", None)  # PBS settles on one
    return SchemeRun(result, final, controller.decision_log)


def run_job(job: "SimJob | SchemeJob") -> "SimResult | SchemeRun":
    """The pool worker of a batch that mixes fixed-TLP and scheme runs."""
    return run_scheme_job(job) if isinstance(job, SchemeJob) else run_sim_job(job)


def evaluate_scheme(
    config: GPUConfig,
    apps: "list[AppProfile]",
    scheme: str,
    alone: list[AloneProfile],
    surface: dict[tuple[int, ...], SimResult] | None = None,
    lengths: RunLengths = RunLengths(),
    seed: int | None = None,
    core_split: tuple[int, ...] | None = None,
    workload: str | None = None,
    l2_way_quota: dict[int, int] | None = None,
    run: SchemeRun | None = None,
) -> SchemeResult:
    """Evaluate one scheme on one workload and compute all metrics.

    Dynamic schemes (:data:`DYNAMIC_SCHEMES`) attach their controller
    and pay their search/adaptation overheads inside the measured run;
    static schemes resolve a combination first (possibly from the
    profiled ``surface``) and run it unchanged, or reuse the surface's
    run of it.  A ``run`` a pool job already made is scored as it is.

    ``l2_way_quota`` (per-application L2 way limits, §VI-D sensitivity)
    is threaded through to :func:`run_combo`, so way-partitioned-L2
    runs can go through the scheme path like every other evaluation.
    """
    if scheme not in ALL_SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; known: {ALL_SCHEMES}")
    if run is None:
        job = scheme_job(config, apps, scheme, alone, surface, lengths, seed, core_split)
        # surfaces are profiled without way partitioning, so a
        # quota-constrained evaluation must simulate afresh
        if l2_way_quota is None:
            run = job.held_by(surface)
        run = run or run_scheme_job(job, l2_way_quota)
    return SchemeResult.from_result(
        scheme, workload or "_".join(a.abbr for a in apps),
        run.combo, run.result, alone, decisions=run.decisions,
    )


def emit_scheme_events(result: SchemeResult) -> None:
    """Publish a scheme evaluation's sim-layer telemetry to the stream.

    Emission happens *after* the run, from the persisted window log and
    decision log, for two reasons: the simulator hot loop stays free of
    telemetry overhead, and the same records are replayable from cached
    results and from scheme evaluations computed in pool workers.

    The *parent-side* publisher emits them here exactly once per scheme
    result — whether it was evaluated in-process, in a pool worker, or
    replayed from cache — so pool workers deliberately do not publish
    SchemeResult windows themselves.  Every record is cycle-stamped:
    ``window`` records carry the per-app EB/BW/CMR/IPC series, and
    ``decision`` records the controller's full decision detail.
    """
    publisher = get_publisher()
    if publisher.enabled and not publisher.worker:
        for record in result_records(result):
            publisher.publish(record)
