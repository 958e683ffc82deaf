"""Shared experiment machinery: disk-cached profiling and evaluation.

Every experiment consumes three kinds of simulation products:

* *alone profiles* — per-application bestTLP sweeps (Table IV, SD bases);
* *surfaces* — one short run per TLP combination of a workload
  (64 for pairs), feeding the brute-force/oracle/offline searches and
  the pattern figures;
* *scheme evaluations* — full runs of one scheme on one workload.

All three are pure functions of (model, config, workload, run lengths,
seed), so :class:`ResultStore` caches them as JSON under ``results/``
keyed by a fingerprint of those inputs; :data:`MODEL_DIGEST` stands for
the model.  Delete the directory to recompute.

Simulation products are computed through :mod:`repro.exec`: a context's
``n_jobs`` (default: ``$REPRO_JOBS``, else all cores) fans independent
runs out over a process pool, and its ``progress`` callback reports
sweep completion.  Workers only simulate: the calling process decodes,
scores and stores every product.  :class:`ResultStore` writes are
atomic and use unique temp names, so several processes sharing one
``results/`` directory never corrupt each other.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.config import GPUConfig
from repro.core.runner import (
    ALL_SCHEMES,
    DYNAMIC_SCHEMES,
    AloneProfile,
    RunLengths,
    SchemeJob,
    SchemeResult,
    SchemeRun,
    alone_from_sweep,
    alone_jobs,
    emit_scheme_events,
    evaluate_scheme,
    run_job,
    scheme_job,
    surface_jobs,
)
from repro.exec.jobs import SimJob
from repro.exec.pool import ProgressFn, run_jobs
from repro.obs.io import atomic_write_text
from repro.obs.live import get_publisher
from repro.obs.metrics import get_metrics
from repro.sim import SimResult, WindowSample
from repro.workloads.synthetic import AppProfile
from repro.workloads.table4 import app_by_abbr

__all__ = ["ResultStore", "ExperimentContext", "DEFAULT_RESULTS_DIR",
           "MODEL_DIGEST", "atomic_write_text"]

DEFAULT_RESULTS_DIR = Path(__file__).resolve().parents[3] / "results"

#: The model version folded into every cache key: the sha256 of the
#: golden fixtures (``tests/golden/*.json``), which pin the simulator's
#: output and the serialized ``SimResult`` layout.  Written by
#: ``scripts/regen_golden.py``, never by hand, so regenerating the
#: fixtures moves every key and a bit-identical change moves none.
MODEL_DIGEST = "d5ccaa8c007989387b96b1a006b58f769a7c5062ccea5df9b2c7879480d42f67"


def _searches(scheme: str) -> bool:
    """Does ``scheme`` pick its combination from a profiled surface?"""
    return scheme.startswith(("bf-", "opt-", "pbs-offline-"))


#: One part of a pool batch: its jobs, and what consumes their results.
_Part = tuple[list, Callable[[Iterator], None]]


_SAMPLE_FIELDS = tuple(f.name for f in dataclasses.fields(WindowSample))


def _sample_to_dict(sample: WindowSample) -> dict:
    return {f: getattr(sample, f) for f in _SAMPLE_FIELDS}


def _sample_from_dict(data: dict) -> WindowSample:
    return WindowSample(**{f: data[f] for f in _SAMPLE_FIELDS})


def _result_to_dict(result: SimResult) -> dict:
    return {
        "samples": {str(a): _sample_to_dict(s) for a, s in result.samples.items()},
        "cycles": result.cycles,
        "tlp_timeline": result.tlp_timeline,
        "windows": [
            [t, {str(a): _sample_to_dict(s) for a, s in samples.items()}]
            for t, samples in result.windows
        ],
        "final_tlp": {str(a): t for a, t in result.final_tlp.items()},
        "dram_utilization": result.dram_utilization,
        # Closed-system results have an empty roster timeline; omitting
        # the key keeps their payloads (and the golden fixtures) stable.
        **({"roster": result.roster} if result.roster else {}),
    }


def _result_from_dict(data: dict) -> SimResult:
    return SimResult(
        samples={int(a): _sample_from_dict(s) for a, s in data["samples"].items()},
        cycles=data["cycles"],
        tlp_timeline=[tuple(t) for t in data["tlp_timeline"]],
        windows=[
            (t, {int(a): _sample_from_dict(s) for a, s in samples.items()})
            for t, samples in data["windows"]
        ],
        final_tlp={int(a): t for a, t in data["final_tlp"].items()},
        dram_utilization=data["dram_utilization"],
        roster=data.get("roster", []),
    )


def _is_saved(data: Any, record: type, *omittable: str) -> bool:
    """Whether ``data`` has the shape ``record`` is saved in: a dict
    holding each of the record's fields but the ``omittable`` ones."""
    return isinstance(data, dict) and all(
        f.name in data for f in dataclasses.fields(record) if f.name not in omittable
    )


def _is_alone(data: Any) -> bool:
    return _is_saved(data, AloneProfile)


def _is_surface(data: Any) -> bool:
    return isinstance(data, dict) and bool(data) and all(
        _is_saved(res, SimResult, "roster") for res in data.values()
    )


def _is_scheme(data: Any) -> bool:
    return _is_saved(data, SchemeResult, "decisions") and _is_saved(
        data["result"], SimResult, "roster"
    )


def _fingerprint(*parts: object) -> str:
    blob = json.dumps([repr(p) for p in parts], sort_keys=True).encode()
    return hashlib.md5(blob).hexdigest()[:16]


# ``atomic_write_text`` (the one sanctioned way to write under
# ``results/``, lint rule R006) lives in :mod:`repro.obs.io` so the
# observability sinks can use it without importing the experiment
# layer; this module remains its canonical public home.


class ResultStore:
    """JSON-on-disk memoization of simulation products.

    Safe for concurrent writers: each save streams into a uniquely named
    temp file (pid + random suffix) and is published with an atomic
    ``os.replace``, so two processes saving the same key race benignly —
    readers see either complete version, never a torn file.

    Loads and saves count into the ambient metrics registry
    (``cache.<kind>.hit`` / ``.miss`` / ``.save``) so a traced run can
    report how much of it was served from cache.
    """

    def __init__(self, root: Path | str = DEFAULT_RESULTS_DIR) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, kind: str, key: str) -> Path:
        return self.root / f"{kind}-{key}.json"

    def load(
        self, kind: str, key: str, fits: Callable[[Any], bool] | None = None
    ) -> Any:
        """The entry saved under ``kind``/``key``, or None on a miss.

        An entry that does not decode (a truncated or corrupted file), or
        whose shape ``fits`` rejects (``{}`` or ``[]`` where a record
        belongs), is a miss too: the caller recomputes it, and the atomic
        save replaces the bad file.
        """
        path = self._path(kind, key)
        if path.exists():
            try:
                with path.open() as fh:
                    data = json.load(fh)
            except ValueError:  # JSONDecodeError, UnicodeDecodeError
                pass
            else:
                if fits is None or fits(data):
                    get_metrics().inc(f"cache.{kind}.hit")
                    return data
        get_metrics().inc(f"cache.{kind}.miss")
        return None

    def save(self, kind: str, key: str, data: dict) -> None:
        get_metrics().inc(f"cache.{kind}.save")
        atomic_write_text(self._path(kind, key), json.dumps(data))


@dataclass
class ExperimentContext:
    """Configuration + cache for one experimental campaign.

    All experiment drivers take a context so tests can run them with a
    tiny config and a temporary cache directory.  ``n_jobs`` controls
    the process pool used for simulation sweeps (``None`` resolves to
    ``$REPRO_JOBS``, else all cores; ``1`` forces serial execution);
    ``progress`` receives ``(done, total, job)`` as sweep jobs complete.
    """

    config: GPUConfig
    lengths: RunLengths = dataclasses.field(default_factory=RunLengths)
    seed: int = 1
    store: ResultStore = dataclasses.field(default_factory=ResultStore)
    n_jobs: int | None = None
    progress: ProgressFn | None = dataclasses.field(
        default=None, repr=False, compare=False
    )

    # --- keys ------------------------------------------------------------

    def _profile_key(self, *parts: object) -> str:
        """Key for profiling products: only profile lengths matter."""
        return _fingerprint(
            MODEL_DIGEST,
            dataclasses.asdict(self.config),
            (self.lengths.profile_cycles, self.lengths.profile_warmup),
            self.seed,
            *parts,
        )

    def _key(self, *parts: object) -> str:
        return _fingerprint(
            MODEL_DIGEST,
            dataclasses.asdict(self.config),
            dataclasses.asdict(self.lengths),
            self.seed,
            *parts,
        )

    # --- pool batches -----------------------------------------------------

    def _run_batch(self, span: str, parts: list[_Part], **attrs: object) -> None:
        """Run every part's jobs as one pool batch, in part order, and
        hand each part the results, which it consumes one per job."""
        jobs = [job for part_jobs, _ in parts for job in part_jobs]
        if jobs:
            with get_publisher().span(span, n_jobs=len(jobs), **attrs):
                results = iter(run_jobs(
                    run_job, jobs, n_jobs=self.n_jobs, progress=self.progress
                ))
            for _, finish in parts:
                finish(results)

    # --- alone profiles -----------------------------------------------------

    def _alone_key(self, app: AppProfile, n_cores: int) -> str:
        # The full profile repr is part of the key, so editing an
        # application's parameters invalidates its cached products.
        return self._profile_key("alone", repr(app), n_cores)

    def _load_alone(self, key: str) -> AloneProfile | None:
        cached = self.store.load("alone", key, _is_alone)
        if cached is None:
            return None
        return AloneProfile(
            abbr=cached["abbr"],
            best_tlp=cached["best_tlp"],
            ipc_alone=cached["ipc_alone"],
            eb_alone=cached["eb_alone"],
            sweep={
                int(lv): _sample_from_dict(s) for lv, s in cached["sweep"].items()
            },
        )

    def _save_alone(self, key: str, profile: AloneProfile) -> None:
        self.store.save(
            "alone",
            key,
            {
                "abbr": profile.abbr,
                "best_tlp": profile.best_tlp,
                "ipc_alone": profile.ipc_alone,
                "eb_alone": profile.eb_alone,
                "sweep": {
                    str(lv): _sample_to_dict(s) for lv, s in profile.sweep.items()
                },
            },
        )

    def alone(self, app: AppProfile, n_cores: int | None = None) -> AloneProfile:
        n_cores = n_cores if n_cores is not None else self.config.n_cores // 2
        return self.alone_for([app], n_cores=n_cores)[0]

    def alone_for(
        self, apps: list[AppProfile], n_cores: int | None = None
    ) -> list[AloneProfile]:
        """Alone-profile every application on ``n_cores`` (default: its
        share of a co-run of ``apps``), in one pool batch."""
        n_cores = n_cores if n_cores is not None else self.config.n_cores // len(apps)
        profiles: dict[str, AloneProfile] = {}
        self._run_batch(
            "profile_alone",
            [self._alone_runs([(app, n_cores) for app in apps], profiles)],
            apps=[app.abbr for app in apps],
        )
        return [profiles[self._alone_key(app, n_cores)] for app in apps]

    def _alone_runs(
        self, requests: list[tuple[AppProfile, int]], profiles: dict[str, AloneProfile]
    ) -> _Part:
        """Load the stored profiles of the (application, core count)
        ``requests`` into ``profiles``, by cache key.  The rest's runs,
        deduplicated by key, come back with what saves their profiles."""
        sweeps: dict[str, tuple[AppProfile, list[SimJob]]] = {}
        for app, n_cores in requests:
            key = self._alone_key(app, n_cores)
            if key in profiles or key in sweeps:
                continue
            cached = self._load_alone(key)
            if cached is None:
                sweeps[key] = (
                    app, alone_jobs(self.config, app, n_cores, self.lengths, self.seed)
                )
            else:
                profiles[key] = cached

        def finish(results: Iterator[SimResult]) -> None:
            for key, (app, jobs) in sweeps.items():
                sweep = {job.combo[0]: next(results).samples[0] for job in jobs}
                profiles[key] = alone_from_sweep(app.abbr, sweep)
                self._save_alone(key, profiles[key])

        return [job for _, jobs in sweeps.values() for job in jobs], finish

    # --- surfaces ------------------------------------------------------------

    def _surface_key(
        self, apps: list[AppProfile], core_split: tuple[int, ...] | None
    ) -> str:
        return self._profile_key("surface", tuple(repr(a) for a in apps), core_split)

    def surface(
        self, apps: list[AppProfile], core_split: tuple[int, ...] | None = None
    ) -> dict[tuple[int, ...], SimResult]:
        key = self._surface_key(apps, core_split)
        surfaces: dict[str, dict[tuple[int, ...], SimResult]] = {}
        self._run_batch(
            "profile_surface",
            [self._surface_runs({key: apps}, core_split, surfaces)],
            workloads=["_".join(a.abbr for a in apps)],
        )
        return surfaces[key]

    def _surface_runs(
        self,
        workloads: dict[str, list[AppProfile]],
        core_split: tuple[int, ...] | None,
        surfaces: dict[str, dict[tuple[int, ...], SimResult]],
    ) -> _Part:
        """Load the stored surfaces of ``workloads`` (by surface key) into
        ``surfaces``.  The rest's runs come back with what stores them."""
        jobs: dict[str, list[SimJob]] = {}
        for key, apps in workloads.items():
            cached = self.store.load("surface", key, _is_surface)
            if cached is None:
                jobs[key] = surface_jobs(
                    self.config, apps, self.lengths, self.seed, core_split=core_split
                )
            else:
                surfaces[key] = {
                    tuple(json.loads(combo)): _result_from_dict(res)
                    for combo, res in cached.items()
                }

        def finish(results: Iterator[SimResult]) -> None:
            for key, combos in jobs.items():
                surfaces[key] = {job.combo: next(results) for job in combos}
                self.store.save("surface", key, {
                    json.dumps(list(c)): _result_to_dict(r)
                    for c, r in surfaces[key].items()
                })

        return [job for combos in jobs.values() for job in combos], finish

    # --- scheme evaluations ----------------------------------------------------

    def _scheme_key(
        self,
        apps: list[AppProfile],
        scheme: str,
        core_split: tuple[int, ...] | None,
    ) -> str:
        return self._key("scheme", tuple(repr(a) for a in apps), scheme, core_split)

    def _load_scheme(self, key: str) -> SchemeResult | None:
        cached = self.store.load("scheme", key, _is_scheme)
        if cached is None:
            return None
        return SchemeResult(
            scheme=cached["scheme"],
            workload=cached["workload"],
            combo=tuple(cached["combo"]) if cached["combo"] else None,
            sds=cached["sds"],
            ws=cached["ws"],
            fi=cached["fi"],
            hs=cached["hs"],
            ebs=cached["ebs"],
            ipcs=cached["ipcs"],
            result=_result_from_dict(cached["result"]),
            decisions=cached.get("decisions", []),
        )

    def _save_scheme(self, key: str, result: SchemeResult) -> None:
        self.store.save(
            "scheme",
            key,
            {
                "scheme": result.scheme,
                "workload": result.workload,
                "combo": list(result.combo) if result.combo else None,
                "sds": result.sds,
                "ws": result.ws,
                "fi": result.fi,
                "hs": result.hs,
                "ebs": result.ebs,
                "ipcs": result.ipcs,
                "result": _result_to_dict(result.result),
                "decisions": result.decisions,
            },
        )

    def scheme(
        self,
        apps: list[AppProfile],
        scheme: str,
        core_split: tuple[int, ...] | None = None,
    ) -> SchemeResult:
        return self.schemes(apps, [scheme], core_split)[scheme]

    def schemes(
        self,
        apps: list[AppProfile],
        schemes: "list[str] | tuple[str, ...]",
        core_split: tuple[int, ...] | None = None,
    ) -> dict[str, SchemeResult]:
        """Evaluate several schemes on one workload (see :meth:`schemes_for`)."""
        return self.schemes_for([apps], schemes, core_split)[0]

    def schemes_for(
        self,
        workloads: list[list[AppProfile]],
        schemes: "list[str] | tuple[str, ...]",
        core_split: tuple[int, ...] | None = None,
    ) -> list[dict[str, SchemeResult]]:
        """Evaluate every scheme on every workload, in one pool batch.

        Cached evaluations are loaded; a scheme named twice is evaluated
        once.  The rest's runs go out as one batch across all workloads,
        longest first: one :class:`~repro.core.runner.SchemeJob` per
        dynamic scheme, the missing surfaces of workloads with a search
        scheme (``bf-*``, ``opt-*``, ``pbs-offline-*``), and the uncached
        alone-profile runs (on each application's share of
        ``core_split``), deduplicated by cache key.  This process then
        scores and stores every result, static schemes from the alone
        profiles and surface it holds.  A static run no surface holds
        (bestTLP on a workload with no search scheme) needs the alone
        profiles first, so it takes a second batch.

        Telemetry is published here, once per result: the window and
        decision logs ride on every SchemeResult, so the stream is the
        same whether a run was made in a worker or came from the cache.
        """
        schemes = list(dict.fromkeys(schemes))
        unknown = [s for s in schemes if s not in ALL_SCHEMES]
        if unknown:
            raise ValueError(f"unknown schemes {unknown}; known: {ALL_SCHEMES}")
        keys = [
            {s: self._scheme_key(apps, s, core_split) for s in schemes}
            for apps in workloads
        ]
        results: dict[str, SchemeResult] = {}
        missing: dict[str, tuple[int, str]] = {}
        for w, table in enumerate(keys):
            for s, key in table.items():
                if key in results or key in missing:
                    continue
                cached = self._load_scheme(key)
                if cached is None:
                    missing[key] = (w, s)
                else:
                    results[key] = cached
        if missing:
            results.update(self._compute_schemes(workloads, missing, core_split))
        tables = [{s: results[key] for s, key in table.items()} for table in keys]
        for table in tables:
            for result in table.values():
                emit_scheme_events(result)
        return tables

    def _compute_schemes(
        self,
        workloads: list[list[AppProfile]],
        missing: dict[str, tuple[int, str]],
        core_split: tuple[int, ...] | None,
    ) -> dict[str, SchemeResult]:
        """Compute and store each missing (workload, scheme), by key."""
        pending = list(dict.fromkeys(w for w, _ in missing.values()))
        shares = {w: core_split or [self.config.n_cores // len(workloads[w])]
                  * len(workloads[w]) for w in pending}
        surface_key = {w: self._surface_key(workloads[w], core_split) for w in pending}
        names = ["_".join(a.abbr for a in workloads[w]) for w in pending]
        dynamic = {
            key: SchemeJob(self.config, tuple(workloads[w]), s, self.lengths,
                           seed=self.seed, core_split=core_split)
            for key, (w, s) in missing.items()
            if s in DYNAMIC_SCHEMES
        }
        runs: dict[str, SchemeRun] = {}
        profiles: dict[str, AloneProfile] = {}
        surfaces: dict[str, dict[tuple[int, ...], SimResult]] = {}
        self._run_batch("evaluate_schemes", [
            (list(dynamic.values()), lambda done: runs.update(zip(dynamic, done))),
            self._surface_runs(
                {surface_key[w]: workloads[w] for w, s in missing.values() if _searches(s)},
                core_split,
                surfaces,
            ),
            self._alone_runs(
                [r for w in pending for r in zip(workloads[w], shares[w])], profiles
            ),
        ], workloads=names)
        alone = {
            w: [profiles[self._alone_key(*r)] for r in zip(workloads[w], shares[w])]
            for w in pending
        }
        unheld: dict[str, SchemeJob] = {}
        for key, (w, s) in missing.items():
            if key in dynamic:
                continue
            surface = surfaces.get(surface_key[w])
            job = scheme_job(self.config, workloads[w], s, alone[w], surface,
                             self.lengths, self.seed, core_split)
            run = job.held_by(surface)
            if run is None:
                unheld[key] = job
            else:
                runs[key] = run
        self._run_batch("evaluate_schemes", [
            (list(unheld.values()), lambda done: runs.update(zip(unheld, done))),
        ], workloads=names)
        computed = {}
        for key, (w, s) in missing.items():
            computed[key] = evaluate_scheme(
                self.config, workloads[w], s, alone[w], run=runs[key]
            )
            self._save_scheme(key, computed[key])
        return computed

    # --- convenience ------------------------------------------------------------

    def pair_apps(self, abbr_a: str, abbr_b: str) -> list[AppProfile]:
        return [app_by_abbr(abbr_a), app_by_abbr(abbr_b)]
