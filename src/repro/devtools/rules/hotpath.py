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
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.devtools.context import FileContext
from repro.devtools.findings import Finding, Severity
from repro.devtools.registry import LintRule, register

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


def _has_slots(node: ast.ClassDef) -> bool:
    """True if the class declares ``__slots__`` one way or another."""
    for stmt in node.body:
        targets: list[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "__slots__":
                return True
    for dec in node.decorator_list:
        # @dataclass(slots=True), possibly spelled dataclasses.dataclass
        if isinstance(dec, ast.Call):
            for kw in dec.keywords:
                if (
                    kw.arg == "slots"
                    and isinstance(kw.value, ast.Constant)
                    and kw.value.value is True
                ):
                    return True
    return False


def _per_event_closures(
    node: ast.AST, runtime: bool
) -> Iterator[tuple[ast.AST, str]]:
    """Yield (node, kind) for function objects created per call.

    ``runtime`` is True while inside the body of any function other
    than ``__init__`` — code there runs once per event, so a ``lambda``
    or ``def`` encountered allocates on the hot path.  Module level,
    class bodies, decorators, and argument defaults execute where the
    enclosing statement does.
    """
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        if runtime:
            yield node, "nested function definition"
        for dec in node.decorator_list:
            yield from _per_event_closures(dec, runtime)
        args = node.args
        for default in [*args.defaults, *args.kw_defaults]:
            if default is not None:
                yield from _per_event_closures(default, runtime)
        body_runtime = runtime or node.name != "__init__"
        for stmt in node.body:
            yield from _per_event_closures(stmt, body_runtime)
    elif isinstance(node, ast.Lambda):
        if runtime:
            yield node, "lambda"
        yield from _per_event_closures(node.body, runtime)
    elif isinstance(node, ast.ClassDef):
        for dec in node.decorator_list:
            yield from _per_event_closures(dec, runtime)
        for stmt in node.body:
            yield from _per_event_closures(stmt, runtime)
    else:
        for child in ast.iter_child_nodes(node):
            yield from _per_event_closures(child, runtime)


@register
class HotPathRule(LintRule):
    id = "R008"
    name = "hot-path-allocation"
    rationale = (
        "dispatch-path closures and dict-backed hot classes cost an "
        "allocation per event; pre-bind in __init__ and use __slots__"
    )
    severity = Severity.ERROR

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.is_test or not ctx.in_package(*_HOT_MODULES):
            return
        for stmt in ctx.tree.body:
            for node, kind in _per_event_closures(stmt, False):
                yield self.finding(
                    ctx,
                    node,
                    f"{kind} on the event-dispatch path allocates a function "
                    "object per event; pre-bind the callback at construction "
                    "time (functools.partial / bound method in __init__) or "
                    "make the event object callable (see DRAMRequest)",
                )
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.ClassDef)
                and node.name in _HOT_CLASSES
                and not _has_slots(node)
            ):
                yield Finding(
                    rule=self.id,
                    severity=Severity.WARNING,
                    path=str(ctx.relpath),
                    line=node.lineno,
                    col=node.col_offset,
                    message=(
                        f"hot class {node.name} has no __slots__: its "
                        "instances live on the per-event path, where a "
                        "__dict__ costs memory and attribute-lookup time; "
                        "declare __slots__ or use @dataclass(slots=True)"
                    ),
                )
