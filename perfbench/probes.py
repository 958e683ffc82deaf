"""Benchmark-side probes around the program's layer entry points.

The probes live in the benchmark, not in ``src/``: :func:`install_counters`
and :func:`install_spans` replace public entry points of ``repro.*`` with thin wrappers in the benchmark's own
interpreter.  Two sets exist:

* counters (every run): ``Simulator.run`` adds its ``max_cycles`` to a
  counter and ``run_jobs`` counts the jobs it is given.  That is one integer
  add per simulation and per batch, and it gives ``sim_cycles_per_s`` and the
  operation count.
* spans (traced passes): in addition, a span around every public entry
  point listed in :data:`SPANNED`, the store and analysis-cache probes, the
  per-rule lint spans, and the engine's own per-stage dispatch counters
  (``set_engine_profiling``).

A span records its name, start, end, parent span, process and the id shared by
every span of one workload run.  Spans are kept in memory; the child writes
them out when the run ends.

Pool workers are forked, so they inherit the patched entry points.  The
patched ``run_jobs`` hands the pool a :class:`PoolCall` around the real worker
function.  In the worker it collects that job's spans and counters and
returns them with the job's value, and the parent unwraps the pair, so the
program's callers see the values they always saw.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import Counter

__all__ = ["Recorder", "PoolCall", "engine_counters", "install_counters",
           "install_spans", "set_recorder"]

#: The recorder of this interpreter (a forked worker inherits a copy).
_RECORDER: "Recorder | None" = None


def set_recorder(rec: "Recorder | None") -> None:
    global _RECORDER
    _RECORDER = rec


class Recorder:
    """Spans and counters of one workload run, kept in memory.

    Probes record only while ``active`` (a timed pass), so set-up work
    and the untimed output checks leave no trace.
    """

    def __init__(self, run_id: str, spans: bool) -> None:
        self.run_id = run_id
        self.spans_on = spans
        self.active = False
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        #: calibration kernel times sampled in pool workers, by worker pid
        self.kernel: dict[int, list[float]] = {}
        self._stack: list[dict] = []
        self._seq = 0

    def open(self, name: str, **attrs: object) -> dict:
        self._seq += 1
        parent = self._stack[-1]["id"] if self._stack else None
        span = {
            "run": self.run_id,
            "id": f"{os.getpid()}.{self._seq}",
            "parent": parent,
            "name": name,
            "pid": os.getpid(),
            **attrs,
            "start": time.monotonic(),
        }
        self._stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.monotonic()
        self._stack.pop()
        self.spans.append(span)

    def current(self) -> dict | None:
        return self._stack[-1] if self._stack else None

    def enclosing(self, name: str) -> dict | None:
        """The innermost open span called ``name``."""
        return next((s for s in reversed(self._stack) if s.get("name") == name),
                    None)

    def adopt(self, parent_id: str | None) -> None:
        """Start a pool job in a worker: nothing open but the parent's batch."""
        self.take()
        self._stack = [{"id": parent_id}]

    def take(self) -> tuple[list[dict], Counter]:
        """Hand over what was recorded since the last call and start afresh."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return spans, counts

    def take_kernel(self) -> dict[int, list[float]]:
        """Hand over the workers' kernel samples since the last call."""
        kernel, self.kernel = self.kernel, {}
        return kernel


def engine_counters() -> dict[str, float]:
    from repro.obs.metrics import get_metrics

    return {
        k: v for k, v in get_metrics().counters.items() if k.startswith("engine.")
    }


class PoolCall:
    """The worker function the patched ``run_jobs`` hands to the pool.

    Module-level and made of picklable parts, so the pool can send it.  Run in
    the calling process (the pool's serial path) it records straight into the
    caller's recorder.  Run in a forked worker it starts from an empty
    recorder and returns ``(value, report)``, where the report holds the
    job's spans and counters, including the engine's dispatch counters, which
    a worker keeps in its own metrics registry.  With ``sample``, the worker
    samples the host with the calibration kernel from the start of its first
    job on (a pool lives for one batch, which may be shorter than the
    sampling interval), and the report carries the kernel times sampled
    since its last job.
    """

    def __init__(self, worker, caller_pid: int, batch_id: str | None,
                 batch_start: float, sample: bool = False) -> None:
        self.worker = worker
        self.caller_pid = caller_pid
        self.batch_id = batch_id
        self.batch_start = batch_start
        self.sample = sample

    def __call__(self, spec):
        import calibrate

        rec = _RECORDER
        if os.getpid() == self.caller_pid:
            return self._run(rec, spec), None
        if self.sample and not calibrate.sampling():
            calibrate.take_samples()  # the caller's, copied by the fork
            calibrate.start_sampling(first_s=1e-3)
        rec.adopt(self.batch_id)
        before = engine_counters()
        value = self._run(rec, spec)
        rec.counts.update(
            {k: v - before.get(k, 0) for k, v in engine_counters().items()})
        spans, counts = rec.take()
        return value, {"spans": spans, "counts": dict(counts), "pid": os.getpid(),
                       "kernel": calibrate.take_samples()}

    def _run(self, rec: Recorder, spec):
        if not rec.spans_on:
            return self.worker(spec)
        start = time.monotonic()
        span = rec.open("exec.job", queue_wait_s=start - self.batch_start)
        try:
            return self.worker(spec)
        except Exception:
            span["failed"] = True
            raise
        finally:
            rec.close(span)


def _pool_workers(n_jobs: int | None, total: int) -> int:
    from repro.exec.pool import resolve_jobs

    n = resolve_jobs(n_jobs)
    return 1 if n == 1 or total == 1 else min(n, total)


def _probe_run_jobs(orig):
    @functools.wraps(orig)
    def run_jobs(worker, specs, n_jobs=None, progress=None):
        rec = _RECORDER
        if rec is None or not rec.active:
            return orig(worker, specs, n_jobs=n_jobs, progress=progress)
        import calibrate

        specs = list(specs)
        rec.counts["exec.jobs"] += len(specs)
        workers = _pool_workers(n_jobs, len(specs))
        span = None
        if rec.spans_on:
            span = rec.open("exec.run_jobs", jobs=len(specs), workers=workers)
        # While a pool works, the workers sample the host and this process,
        # which only waits for them, does not compete with them for a core.
        handover = workers > 1 and calibrate.sampling()
        if handover:
            calibrate.stop_sampling()
        call = PoolCall(worker, os.getpid(), span and span["id"],
                        time.monotonic(), sample=handover)
        try:
            pairs = orig(call, specs, n_jobs=n_jobs, progress=progress)
        finally:
            if span is not None:
                rec.close(span)
            if handover:
                calibrate.start_sampling()
        values = []
        for value, report in pairs:
            if report is not None:
                rec.spans.extend(report["spans"])
                rec.counts.update(report["counts"])
                rec.kernel.setdefault(report["pid"], []).extend(report["kernel"])
            values.append(value)
        return values

    return run_jobs


def _probe_sim_run(orig):
    @functools.wraps(orig)
    def run(self, max_cycles, *args, **kwargs):
        rec = _RECORDER
        if rec is None or not rec.active:
            return orig(self, max_cycles, *args, **kwargs)
        rec.counts["sim.cycles"] += max_cycles
        rec.counts["sim.runs"] += 1
        if not rec.spans_on:
            return orig(self, max_cycles, *args, **kwargs)
        span = rec.open("sim.run", cycles=max_cycles)
        try:
            return orig(self, max_cycles, *args, **kwargs)
        finally:
            rec.close(span)

    return run


def _spanned(name: str, fn, drain: bool = False):
    """Wrap ``fn`` in a span called ``name``.

    A call made while a span of the same name is open is not spanned again
    (``ModBypassController.on_window`` calls its base class's).  ``drain``
    consumes a returned generator inside the span: lint rule checks are
    generators, and an undrained one does its work after the span closed.
    """

    @functools.wraps(fn)
    def probe(*args, **kwargs):
        rec = _RECORDER
        if rec is None or not rec.active or not rec.spans_on:
            return fn(*args, **kwargs)
        top = rec.current()
        if top is not None and top.get("name") == name:
            return fn(*args, **kwargs)
        span = rec.open(name)
        try:
            out = fn(*args, **kwargs)
            return list(out) if drain else out
        finally:
            rec.close(span)

    return probe


def _probe_store(orig, name: str):
    """Span a ``ResultStore.load``/``save`` and record the file's size."""

    @functools.wraps(orig)
    def probe(self, kind, key, *args):
        rec = _RECORDER
        if rec is None or not rec.active or not rec.spans_on:
            return orig(self, kind, key, *args)
        span = rec.open(name, kind=kind)
        try:
            out = orig(self, kind, key, *args)
        finally:
            rec.close(span)
        path = self._path(kind, key)
        span["hit"] = out is not None
        span["bytes"] = path.stat().st_size if path.exists() else 0
        return out

    return probe


def _probe_cache_get(orig):
    """Count analysis-cache hits on the enclosing ``lint_paths`` span."""

    @functools.wraps(orig)
    def get(self, digest):
        entry = orig(self, digest)
        rec = _RECORDER
        if rec is not None and rec.active and rec.spans_on:
            lint = rec.enclosing("devtools.lint_paths")
            if lint is not None:
                lint["cache_lookups"] = lint.get("cache_lookups", 0) + 1
                lint["cache_hits"] = lint.get("cache_hits", 0) + (entry is not None)
        return entry

    return get


#: (module, attribute, span name) of every module-level function spanned in
#: traced passes.  A function imported by name is patched in each module
#: that calls it.
SPANNED = (
    ("repro.core.runner", "oracle_search", "core.offline"),
    ("repro.core.runner", "brute_force_search", "core.offline"),
    ("repro.core.runner", "pbs_offline_search", "core.offline"),
    ("repro.experiments.common", "evaluate_scheme", "core.evaluate_scheme"),
    ("repro.experiments.common", "emit_scheme_events", "obs.emit_scheme_events"),
    ("repro.devtools.linter", "lint_paths", "devtools.lint_paths"),
    ("repro.devtools.semantic.graph", "graph_for_project", "devtools.graph"),
    ("repro.devtools.semantic.units", "graph_for_project", "devtools.graph"),
    ("repro.devtools.semantic.effects", "graph_for_project", "devtools.graph"),
    ("repro.devtools.semantic.races", "graph_for_project", "devtools.graph"),
    ("repro.devtools.semantic.effects", "effects_world_for", "devtools.effects"),
    ("repro.devtools.semantic.units", "units_analysis", "devtools.units"),
    ("repro.devtools.semantic.clockdomains", "units_analysis", "devtools.units"),
)

#: Modules whose ``run_jobs`` the sweep calls.
RUN_JOBS_CALLERS = ("repro.experiments.common", "repro.core.runner")


def install_counters() -> None:
    """The probes of every run: simulated cycles and pool jobs."""
    from repro.sim.engine import Simulator

    Simulator.run = _probe_sim_run(Simulator.run)
    for module in RUN_JOBS_CALLERS:
        mod = importlib.import_module(module)
        mod.run_jobs = _probe_run_jobs(mod.run_jobs)


def install_spans() -> None:
    """The probes of traced passes, on top of :func:`install_counters`."""
    from repro.core.ccws import CCWSController
    from repro.core.dyncta import DynCTAController
    from repro.core.modbypass import ModBypassController
    from repro.core.pbs import PBSController
    from repro.devtools.registry import all_rules
    from repro.devtools.semantic.cache import AnalysisCache
    from repro.experiments.common import ExperimentContext, ResultStore
    from repro.sim.engine import set_engine_profiling

    for module, attr, name in SPANNED:
        mod = importlib.import_module(module)
        setattr(mod, attr, _spanned(name, getattr(mod, attr)))
    for cls in (PBSController, DynCTAController, ModBypassController,
                CCWSController):
        cls.on_window = _spanned("core.on_window", cls.on_window)
    for method in ("alone_for", "surface", "schemes", "scheme"):
        setattr(ExperimentContext, method, _spanned(
            f"experiments.{method}", getattr(ExperimentContext, method)))
    ResultStore.load = _probe_store(ResultStore.load, "experiments.store.load")
    ResultStore.save = _probe_store(ResultStore.save, "experiments.store.save")
    AnalysisCache.get = _probe_cache_get(AnalysisCache.get)
    for rule in all_rules():
        cls = type(rule)
        method = "check_file" if rule.scope == "file" else "check_project"
        setattr(cls, method, _spanned(
            f"devtools.rule.{rule.id}", getattr(cls, method), drain=True))
    set_engine_profiling(True)
