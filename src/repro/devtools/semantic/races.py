"""R010 — the cross-process race detector.

:func:`repro.exec.pool.run_jobs` executes worker functions in forked or
spawned processes.  Anything a worker does to *process-global* state —
mutating a module-level dict, installing an ambient registry, appending to
a shared list — happens in the child's copy of the interpreter and is
silently discarded when the worker exits.  The classic failure mode is a
cache or counter that works perfectly under ``n_jobs=1`` (the serial
fallback runs in-process) and quietly loses every update the moment a
sweep goes parallel — no exception, just wrong numbers.

The rule works on the :class:`~repro.devtools.semantic.graph.ProjectGraph`:

1. collect the *worker-reachable* set — every function transitively
   callable from a function handed to ``run_jobs``/``pool.submit``;
2. inside that set, flag

   * in-place mutation (``append``/``update``/subscript-store/…) of a
     name that resolves to a module-level mutable binding, in the same
     module or through an import;
   * rebinding or augmenting a name declared ``global`` (same loss, by
     assignment instead of mutation);
   * calls to the ambient-state installer ``set_metrics`` — the parent
     never sees counters landing in a registry installed in a child
     (a worker's ``set_publisher`` is the sanctioned exception: its
     records cross back to the parent over the stream's queue);
   * raw file writes (``open(..., "w")``, ``Path.write_text`` /
     ``write_bytes``) outside :mod:`repro.obs.io` — concurrent workers
     sharing a path need the atomic-replace helpers, not independent
     buffered handles.

Reads of module-level state in workers are fine (each child inherits a
consistent snapshot); it is the *write-back* that cannot cross the
process boundary.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import TYPE_CHECKING

from repro.devtools.findings import Finding
from repro.devtools.registry import LintRule, register
from repro.devtools.semantic.graph import ProjectGraph, graph_for_project

if TYPE_CHECKING:  # pragma: no cover
    from repro.devtools.context import ProjectContext
    from repro.devtools.semantic.summary import FileSummary, FunctionInfo

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


def _global_target(
    graph: ProjectGraph, summary: "FileSummary", target: str
) -> tuple[str, str] | None:
    """Resolve a mutation target to ``(module, name)`` of a module-level
    mutable binding, or ``None`` if it is only ever local state."""
    head, _, tail = target.partition(".")
    if not tail:
        if target in summary.mutable_globals:
            return summary.module, target
        return None
    # ``mod.NAME`` through a plain import, one attribute deep.
    if "." in tail:
        return None
    imported = summary.imports.get(head)
    if imported is None:
        return None
    owner = graph.modules.get(imported)
    if owner is not None and tail in owner.mutable_globals:
        return owner.module, tail
    return None


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
        for mod in sorted(graph.modules):
            summary = graph.modules[mod]
            for qual in sorted(summary.functions):
                key = f"{mod}.{qual}"
                if key not in reachable:
                    continue
                info = summary.functions[qual]
                yield from self._check_function(graph, summary, key, info)

    # -- per-function checks --------------------------------------------

    def _check_function(
        self,
        graph: ProjectGraph,
        summary: "FileSummary",
        key: str,
        info: "FunctionInfo",
    ) -> Iterator[Finding]:
        path = summary.path
        for mut in info.mutations:
            op = mut["op"]
            if op in ("global-assign", "augassign"):
                yield self._at(
                    path, mut["line"],
                    f"cross-process race: {key} runs in pool workers but "
                    f"rebinds module-global {mut['target']!r} — the "
                    "assignment happens in the child process and the "
                    "parent never sees it",
                )
                continue
            resolved = _global_target(graph, summary, mut["target"])
            if resolved is None:
                continue
            owner_mod, name = resolved
            how = mut["method"] or op
            yield self._at(
                path, mut["line"],
                f"cross-process race: {key} runs in pool workers but "
                f"mutates module-level {owner_mod}.{name} via {how!r} — "
                "updates made in a worker process are discarded when it "
                "exits; return the data instead",
            )
        for call in info.calls:
            resolved = graph.resolve_call(
                summary.module, info.qualname, call["name"]
            )
            installer = _AMBIENT_INSTALLERS.get(resolved or "")
            if installer is None:
                tail = call["name"].split(".")[-1]
                if tail in _AMBIENT_INSTALLERS.values() and resolved is None:
                    installer = tail
            if installer is not None:
                yield self._at(
                    path, call["line"],
                    f"cross-process race: {key} runs in pool workers but "
                    f"calls {installer}() — ambient observers installed "
                    "in a child process are invisible to the parent; "
                    "install them in the parent and carry data back in "
                    "the job result",
                )
        if summary.module not in _WRITE_EXEMPT_MODULES:
            for write in info.writes:
                yield self._at(
                    path, write["line"],
                    f"pool-worker file write: {key} runs in pool workers "
                    f"but writes files directly ({write['kind']}) — "
                    "concurrent workers tear shared paths; use the "
                    "atomic helpers in repro.obs.io or write from the "
                    "parent",
                )

    def _at(self, path: str, line: int, message: str) -> Finding:
        return Finding(
            rule=self.id,
            severity=self.severity,
            path=path,
            line=line,
            col=0,
            message=message,
        )
