"""R005: picklability — pool workers and specs must survive pickling.

``repro.exec.pool.run_jobs`` ships its worker and every spec to child
processes via pickle.  Pickle resolves functions and classes *by
qualified name*, so lambdas, functions defined inside other functions,
and classes constructed in local scope all fail — at runtime, deep in a
sweep, on the platforms that spawn (macOS/Windows) but not on fork
Linux where the tests run.  This rule rejects the failure statically:

* the worker argument of ``run_jobs(...)`` / ``pool.submit(...)`` must
  be a module-level function (not a lambda, not a nested ``def``);
* ``SimJob(...)`` / ``OpenSimJob(...)`` construction must not embed
  lambdas in any field (e.g. a callable tag or progress hook smuggled
  into a spec);
* the factory registered with ``register_policy(name, factory)`` must
  be module-level: ``OpenSimJob`` carries policies *by name* and the
  worker rebuilds them from the registry, so a lambda or nested-def
  factory would resurrect the exact failure the name indirection
  exists to avoid.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.devtools.context import FileContext
from repro.devtools.findings import Finding
from repro.devtools.registry import LintRule, register

__all__ = ["PicklabilityRule"]

#: Callees whose first positional argument is a pool-shipped worker.
_POOL_ENTRY_POINTS = frozenset({"run_jobs", "submit"})

#: Spec classes shipped to workers whole.
_SPEC_CLASSES = frozenset({"SimJob", "OpenSimJob"})

#: Registration calls whose factory argument must be module-level.
_POLICY_REGISTRARS = frozenset({"register_policy"})


def _callee_name(func: ast.expr) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _nested_defs_and_calls(tree: ast.Module) -> tuple[set[str], list[ast.Call]]:
    """Names of functions defined inside another function's body, and
    every call in the tree, gathered in one walk."""
    nested: set[str] = set()
    calls: list[ast.Call] = []

    def visit(node: ast.AST, inside_fn: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                calls.append(child)
            is_fn = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            if is_fn and inside_fn:
                nested.add(child.name)
            visit(child, inside_fn or is_fn)

    visit(tree, False)
    return nested, calls


@register
class PicklabilityRule(LintRule):
    id = "R005"
    name = "picklability"
    rationale = "pool workers/specs resolve by qualified name; no lambdas or closures"

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        # Applies everywhere (tests included): a nested worker in a test
        # passes on fork-Linux CI and breaks users on spawn platforms.
        nested, calls = _nested_defs_and_calls(ctx.tree)
        for node in calls:
            name = _callee_name(node.func)
            if name in _POOL_ENTRY_POINTS and node.args:
                worker = node.args[0]
                if isinstance(worker, ast.Lambda):
                    yield self.finding(
                        ctx,
                        worker,
                        f"lambda passed as {name}() worker cannot be "
                        "pickled to pool processes; define a module-level "
                        "function",
                    )
                elif isinstance(worker, ast.Name) and worker.id in nested:
                    yield self.finding(
                        ctx,
                        worker,
                        f"'{worker.id}' is defined inside a function; pool "
                        "workers must be module-level so pickle can resolve "
                        "them by qualified name",
                    )
            elif name in _SPEC_CLASSES:
                for arg in [*node.args, *(kw.value for kw in node.keywords)]:
                    if isinstance(arg, ast.Lambda):
                        yield self.finding(
                            ctx,
                            arg,
                            f"lambda embedded in {name}(...) field; specs "
                            "are pickled whole — pass data, not closures",
                        )
            elif name in _POLICY_REGISTRARS:
                factory = None
                if len(node.args) >= 2:
                    factory = node.args[1]
                else:
                    for kw in node.keywords:
                        if kw.arg == "factory":
                            factory = kw.value
                if isinstance(factory, ast.Lambda):
                    yield self.finding(
                        ctx,
                        factory,
                        f"lambda registered as a policy factory via {name}(); "
                        "job specs carry policies by name and workers rebuild "
                        "them from the registry, so factories must be "
                        "module-level functions",
                    )
                elif isinstance(factory, ast.Name) and factory.id in nested:
                    yield self.finding(
                        ctx,
                        factory,
                        f"'{factory.id}' is defined inside a function; policy "
                        "factories are resolved by qualified name in pool "
                        "workers and must be module-level",
                    )
