"""R008: hot-path-allocation — the simulator's event loop stays closure-free.

The PR-4 hot-path refactor replaced per-event closures with reusable
:class:`~repro.sim.engine.MemTxn` transaction objects and pre-bound
callbacks: every allocation the dispatch loop avoids is ~100ns of
allocator and collector work times tens of millions of events.  This
rule keeps that property from regressing:

* **error** — a ``lambda`` or nested ``def`` that executes *per event*
  (i.e. inside any function of a hot simulation module other than
  ``__init__``) allocates a fresh function object, and usually a cell
  chain, on every dispatch.  Construction-time closures are exempt:
  module level, class bodies, and ``__init__`` run once per simulator,
  not once per event — that is where ``functools.partial`` pre-binding
  belongs (see ``Simulator.__init__``).
* **warning** — a class on the hot-class registry missing ``__slots__``
  (or ``@dataclass(slots=True)``): instances of these are created or
  touched millions of times per run, and a ``__dict__`` per instance
  costs both memory and every-attribute-access hash lookups.

``repro.sim.probes`` is deliberately *not* a hot module: probes are
opt-in diagnostics that wrap the dispatch path with closures by design,
and their documented cost model already says "don't use while
benchmarking" (see ``docs/observability.md``).

The file summaries record the closures and the classes without slots.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.devtools.context import ProjectContext
from repro.devtools.findings import Finding, Severity
from repro.devtools.registry import LintRule, register
from repro.devtools.semantic.graph import file_summaries

__all__ = ["HotPathRule"]

#: Modules whose function bodies run once per simulated event.
_HOT_MODULES = (
    "repro.sim.engine",
    "repro.sim.dram",
    "repro.sim.cache",
    "repro.sim.core",
    "repro.sim.interconnect",
    "repro.sim.stats",
)

#: Classes instantiated or field-accessed on the per-event path.  Each
#: must carry ``__slots__`` (or ``@dataclass(slots=True)``).  The
#: registry is explicit rather than "every class in a hot module":
#: StatsCollector, SimResult and WindowSample are per-run/per-window
#: objects where dict flexibility is worth more than layout.
_HOT_CLASSES = frozenset({
    "MemTxn", "EventQueue", "Simulator",
    "Warp", "IssueServer", "Core",
    "SetAssocCache", "MSHRTable",
    "DRAMRequest", "DRAMChannel", "_Bank",
    "Link", "Crossbar",
    "AppStats",
})


@register
class HotPathRule(LintRule):
    id = "R008"
    name = "hot-path-allocation"
    rationale = (
        "dispatch-path closures and dict-backed hot classes cost an "
        "allocation per event; pre-bind in __init__ and use __slots__"
    )
    severity = Severity.ERROR

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        for ctx, summary in file_summaries(project):
            if ctx.is_test or not ctx.in_package(*_HOT_MODULES):
                continue
            path = str(ctx.relpath)
            for site in summary.closures:
                yield self.at(
                    path, site["line"], col=site["col"],
                    message=f"{site['kind']} on the event-dispatch path "
                    "allocates a function object per event; pre-bind the "
                    "callback at construction time (functools.partial / "
                    "bound method in __init__) or make the event object "
                    "callable (see DRAMRequest)",
                )
            for cls in summary.unslotted:
                if cls["name"] in _HOT_CLASSES:
                    yield self.at(
                        path, cls["line"], col=cls["col"],
                        severity=Severity.WARNING,
                        message=f"hot class {cls['name']} has no __slots__: "
                        "its instances live on the per-event path, where a "
                        "__dict__ costs memory and attribute-lookup time; "
                        "declare __slots__ or use @dataclass(slots=True)",
                    )
