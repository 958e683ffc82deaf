"""R004: layering — experiments consume the sim facade, never internals.

The dependency contract of the tree:

* ``repro.experiments``, ``repro.metrics``, ``repro.analysis`` and the
  top-level ``scripts/`` consume the simulator only through the public
  facade ``repro.sim`` (``from repro.sim import Simulator, SimResult``).
  Importing ``repro.sim.<submodule>`` from there couples experiment
  code to engine internals, which is how refactors of the hot path end
  up breaking figure scripts.
* ``repro.sim`` never imports the layers above it (``repro.experiments``,
  ``repro.metrics``, ``repro.analysis``) — the engine must stay usable
  without the experiment harness.  ``if TYPE_CHECKING:`` imports are
  exempt (they vanish at runtime).
* ``repro.sim`` also never imports the telemetry stream
  (``repro.obs.live``) or its folds (``repro.obs.chrome``,
  ``repro.obs.summarize``, ``repro.obs.dashboard``): those modules sit
  *above* the simulator (they stream and render its outputs), and the
  engine's only sanctioned observability seam is the metrics registry
  (``repro.obs.metrics``) plus the probe API, whose ``to_events()``
  returns plain stream records.  Publishing engine self-profiling
  through the ambient metrics registry keeps profiled and unprofiled
  runs bit-identical.

Tests are exempt: white-box tests poke internals by design.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.devtools.context import FileContext
from repro.devtools.findings import Finding
from repro.devtools.registry import LintRule, register

__all__ = ["LayeringRule"]

#: Layers that must go through the ``repro.sim`` facade.
_FACADE_CONSUMERS = ("repro.experiments", "repro.metrics", "repro.analysis")

#: Layers the simulator itself may never import.
_ABOVE_SIM = ("repro.experiments", "repro.metrics", "repro.analysis")

#: Observability modules that *consume* simulator output (the stream and
#: its folds); the engine may use the metrics registry, never these.
_SIM_FORBIDDEN_OBS = (
    "repro.obs.live",
    "repro.obs.chrome",
    "repro.obs.summarize",
    "repro.obs.dashboard",
)


def _type_checking_lines(tree: ast.Module) -> set[int]:
    """Line numbers inside ``if TYPE_CHECKING:`` blocks."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.If):
            continue
        test = node.test
        name = (
            test.id
            if isinstance(test, ast.Name)
            else test.attr
            if isinstance(test, ast.Attribute)
            else None
        )
        if name == "TYPE_CHECKING":
            for stmt in node.body:
                lines.update(range(stmt.lineno, (stmt.end_lineno or stmt.lineno) + 1))
    return lines


def _imported_modules(node: ast.stmt) -> list[str]:
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
        return [node.module]
    return []


def _under(module: str, *prefixes: str) -> bool:
    return any(module == p or module.startswith(p + ".") for p in prefixes)


@register
class LayeringRule(LintRule):
    id = "R004"
    name = "layering"
    rationale = "experiments use the repro.sim facade; sim never imports upward"

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.is_test:
            return
        consumer = ctx.in_package(*_FACADE_CONSUMERS) or ctx.is_script
        provider = ctx.in_package("repro.sim")
        if not (consumer or provider):
            return
        exempt = _type_checking_lines(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if node.lineno in exempt:
                continue
            for module in _imported_modules(node):
                if consumer and _under(module, "repro.sim") and module != "repro.sim":
                    yield self.finding(
                        ctx,
                        node,
                        f"import of sim internal '{module}'; import from the "
                        "public facade 'repro.sim' instead (add the name to "
                        "the facade if it is missing)",
                    )
                elif provider and _under(module, *_ABOVE_SIM):
                    yield self.finding(
                        ctx,
                        node,
                        f"repro.sim must not import the experiment layer "
                        f"('{module}'); move the dependency up or inject it",
                    )
                elif provider and _under(module, *_SIM_FORBIDDEN_OBS):
                    yield self.finding(
                        ctx,
                        node,
                        f"repro.sim must not import '{module}': the "
                        "telemetry stream consumes engine output; publish "
                        "through the metrics registry (repro.obs.metrics) "
                        "or the probe API instead",
                    )
