"""Per-layer metrics of one traced pass, computed from its spans and counters.

Busy time is the summed duration of a layer's spans, over every process.
Self time is a span's duration minus the part of it that its child spans
cover.  A layer that a workload does not exercise reads 0.
"""

from __future__ import annotations

import math
from collections import defaultdict


def self_times(spans: list[dict]) -> dict[str, float]:
    """Duration minus the union of the child spans' intervals, per span id."""
    kids: dict[str | None, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        kids[s["parent"]].append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, edge = 0.0, s["start"]
        for a, b in sorted(kids.get(s["id"], ())):
            a, b = max(a, edge), min(b, s["end"])
            if b > a:
                covered += b - a
                edge = b
        out[s["id"]] = s["end"] - s["start"] - covered
    return out


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile (0 for no samples)."""
    if not values:
        return 0.0
    ranked = sorted(values)
    return ranked[max(0, math.ceil(p * len(ranked)) - 1)]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    names: list[str], spans: list[dict], counts: dict, extra: dict
) -> dict[str, float]:
    """Every metric in ``names`` for one pass.

    ``extra`` carries what the workload measures outside the spans: PBS
    decision-log statistics, lint file and finding counts, and the
    simulated ``pbs_fi_norm``.
    """
    by_name: dict[str, list[dict]] = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)
    selfs = self_times(spans)

    def busy(name: str) -> float:
        return sum(s["end"] - s["start"] for s in by_name[name])

    def self_s(name: str) -> float:
        return sum(selfs[s["id"]] for s in by_name[name])

    def count(name: str) -> int:
        return len(by_name[name])

    cycles = counts.get("sim.cycles", 0)
    dispatched = counts.get("engine.events.dispatched", 0)
    jobs = [s["end"] - s["start"] for s in by_name["exec.job"]]
    waits = [s["queue_wait_s"] for s in by_name["exec.job"]]
    capacity = sum(
        (s["end"] - s["start"]) * s["workers"] for s in by_name["exec.run_jobs"]
    )
    loads = by_name["experiments.store.load"]
    saves = by_name["experiments.store.save"]
    lints = sorted(by_name["devtools.lint_paths"], key=lambda s: s["start"])
    cached = lints[1] if len(lints) > 1 else {}

    fixed = {
        "sim.run.count": counts.get("sim.runs", 0),
        "sim.run.busy_s": busy("sim.run"),
        "sim.cycles": cycles,
        "sim.cycles_per_busy_s": _ratio(cycles, busy("sim.run")),
        "sim.dispatch.total": dispatched,
        "sim.dispatch_per_cycle": _ratio(dispatched, cycles),
        "core.on_window.count": count("core.on_window"),
        "core.on_window.busy_s": busy("core.on_window"),
        "core.offline.busy_s": busy("core.offline"),
        "core.evaluate_scheme.count": count("core.evaluate_scheme"),
        "core.evaluate_scheme.busy_s": busy("core.evaluate_scheme"),
        "core.pbs.search_frac": 0.0,
        "core.pbs.samples": 0,
        "core.pbs.searches": 0,
        "exec.batches": count("exec.run_jobs"),
        "exec.jobs": counts.get("exec.jobs", 0),
        "exec.run_jobs.busy_s": busy("exec.run_jobs"),
        "exec.job.busy_s": sum(jobs),
        "exec.job.p50_s": percentile(jobs, 0.5),
        "exec.job.p90_s": percentile(jobs, 0.9),
        "exec.job.samples": len(jobs),
        "exec.queue_wait.p50_s": percentile(waits, 0.5),
        "exec.queue_wait.p90_s": percentile(waits, 0.9),
        "exec.queue_wait.samples": len(waits),
        "exec.utilization": _ratio(sum(jobs), capacity),
        "exec.failed": sum(1 for s in by_name["exec.job"] if s.get("failed")),
        "experiments.store.load.count": len(loads),
        "experiments.store.load.busy_s": busy("experiments.store.load"),
        "experiments.store.read_bytes": sum(s["bytes"] for s in loads),
        "experiments.store.hit_ratio": _ratio(
            sum(1 for s in loads if s["hit"]), len(loads)),
        "experiments.store.save.count": len(saves),
        "experiments.store.save.busy_s": busy("experiments.store.save"),
        "experiments.store.write_bytes": sum(s["bytes"] for s in saves),
        "experiments.alone_for.self_s": self_s("experiments.alone_for"),
        "experiments.surface.self_s": self_s("experiments.surface"),
        "experiments.schemes.self_s": self_s("experiments.schemes"),
        "experiments.scheme.self_s": self_s("experiments.scheme"),
        "obs.emit_scheme_events.count": count("obs.emit_scheme_events"),
        "obs.emit_scheme_events.busy_s": busy("obs.emit_scheme_events"),
        "devtools.files": 0,
        "devtools.findings": 0,
        "devtools.lint_paths.cold_s": (
            lints[0]["end"] - lints[0]["start"] if lints else 0.0),
        "devtools.lint_paths.cached_s": (
            cached["end"] - cached["start"] if cached else 0.0),
        "devtools.lint_paths.self_s": self_s("devtools.lint_paths"),
        "devtools.cache.hit_ratio": _ratio(
            cached.get("cache_hits", 0), cached.get("cache_lookups", 0)),
        "devtools.graph.busy_s": busy("devtools.graph"),
        "devtools.effects.busy_s": busy("devtools.effects"),
        "devtools.units.busy_s": busy("devtools.units"),
        "pbs_fi_norm": 0.0,
        **extra,
    }
    out = {}
    for name in names:
        if name in fixed:
            out[name] = fixed[name]
        elif name.startswith("sim.dispatch."):
            out[name] = counts.get("engine.dispatch." + name[len("sim.dispatch."):], 0)
        elif name.startswith("devtools.rule.") and name.endswith(".self_s"):
            out[name] = self_s(name[: -len(".self_s")])
        else:
            raise KeyError(f"no per-layer measurement for {name!r}")
    return out
