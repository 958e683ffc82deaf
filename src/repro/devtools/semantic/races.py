"""R010 — the cross-process race detector.

:func:`repro.exec.pool.run_jobs` executes worker functions in forked or
spawned processes.  Anything a worker does to *process-global* state —
mutating a module-level dict, installing an ambient registry, appending to
a shared list — happens in the child's copy of the interpreter and is
silently discarded when the worker exits.  The classic failure mode is a
cache or counter that works perfectly under ``n_jobs=1`` (the serial
fallback runs in-process) and quietly loses every update the moment a
sweep goes parallel — no exception, just wrong numbers.

The rule is a view of the effect engine
(:mod:`repro.devtools.semantic.effects`):

1. collect the *worker-reachable* set — every function transitively
   callable from a function handed to ``run_jobs``/``pool.submit``;
2. inside that set, report every direct site the effect engine's one
   classifier (:func:`~repro.devtools.semantic.effects.direct_sites`)
   records:

   * in-place mutation (``append``/``update``/subscript-store/…) of a
     name that resolves to a module-level mutable binding, in the same
     module or through an import;
   * rebinding or augmenting a name declared ``global`` (same loss, by
     assignment instead of mutation);
   * raw file writes (``open(..., "w")``, ``Path.write_text`` /
     ``write_bytes``) outside :mod:`repro.obs.io` — concurrent workers
     sharing a path need the atomic-replace helpers, not independent
     buffered handles;

   plus calls to the ambient-state installer ``set_metrics`` — the
   parent never sees counters landing in a registry installed in a
   child (a worker's ``set_publisher`` is the sanctioned exception: its
   records cross back to the parent over the stream's queue).

Reads of module-level state in workers are fine (each child inherits a
consistent snapshot); it is the *write-back* that cannot cross the
process boundary.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import TYPE_CHECKING

from repro.devtools.findings import Finding
from repro.devtools.registry import LintRule, register
from repro.devtools.semantic import effects
from repro.devtools.semantic.graph import graph_for_project

if TYPE_CHECKING:  # pragma: no cover
    from repro.devtools.context import ProjectContext

__all__ = ["ANALYSIS_VERSION", "RaceRule"]

#: Version of the race analysis; part of the AnalysisCache key.
ANALYSIS_VERSION = 1

#: Resolved callees that install ambient per-process state.  A worker
#: calling one of these configures only its own child process.
_AMBIENT_INSTALLERS = {
    "repro.obs.metrics.set_metrics": "set_metrics",
}

#: Modules whose own file writes are the atomic-write implementation
#: (or the pool machinery itself) and therefore exempt.
_WRITE_EXEMPT_MODULES = frozenset({"repro.obs.io"})


@register
class RaceRule(LintRule):
    id = "R010"
    name = "proc-races"
    rationale = (
        "pool workers run in child processes: module-global writes, "
        "ambient-state installs, and raw file writes there are lost or "
        "torn, silently, only when a sweep runs parallel"
    )
    scope = "project"

    def check_project(self, project: "ProjectContext") -> Iterator[Finding]:
        graph = graph_for_project(project)
        reachable = graph.worker_reachable()
        if not reachable:
            return
        world = effects.effects_world_for(project)
        for key in sorted(reachable):
            path = graph.paths[key]
            module = world.module_of[key]
            for site in world.sites[key]:
                if site["kind"] == "fs-write":
                    if module in _WRITE_EXEMPT_MODULES:
                        continue
                    message = (
                        f"pool-worker file write: {key} runs in pool "
                        f"workers but writes files directly "
                        f"({site['source']}) — concurrent workers tear "
                        "shared paths; use the atomic helpers in "
                        "repro.obs.io or write from the parent"
                    )
                elif site["owner"] is None:
                    message = (
                        f"cross-process race: {key} runs in pool workers "
                        "but rebinds module-global "
                        f"{site['mutation']['target']!r} — the assignment "
                        "happens in the child process and the parent "
                        "never sees it"
                    )
                else:
                    mut = site["mutation"]
                    message = (
                        f"cross-process race: {key} runs in pool workers "
                        f"but mutates module-level {site['owner']} via "
                        f"{mut['method'] or mut['op']!r} — updates made in "
                        "a worker process are discarded when it exits; "
                        "return the data instead"
                    )
                yield self.at(path, site["line"], message)
            info = graph.functions[key]
            for call in info.calls:
                resolved = graph.resolve_call(module, info.qualname, call["name"])
                installer = _AMBIENT_INSTALLERS.get(resolved or "")
                if installer is None:
                    tail = call["name"].split(".")[-1]
                    if tail in _AMBIENT_INSTALLERS.values() and resolved is None:
                        installer = tail
                if installer is not None:
                    yield self.at(
                        path, call["line"],
                        f"cross-process race: {key} runs in pool workers but "
                        f"calls {installer}() — ambient observers installed "
                        "in a child process are invisible to the parent; "
                        "install them in the parent and carry data back in "
                        "the job result",
                    )
