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

A ``from P import name`` imports module ``P.name`` too when the batch
has that module, so ``from repro.sim import engine`` is an internal
import.  Tests are exempt: white-box tests poke internals by design.
The rule filters the import statements the file summaries record.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.devtools.context import ProjectContext
from repro.devtools.findings import Finding
from repro.devtools.registry import LintRule, register
from repro.devtools.semantic.graph import file_summaries, graph_for_project

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


def _under(module: str, *prefixes: str) -> bool:
    return any(module == p or module.startswith(p + ".") for p in prefixes)


def _violation(module: str, consumer: bool, provider: bool) -> str | None:
    """The message for importing ``module`` from this layer, if barred."""
    if consumer and _under(module, "repro.sim") and module != "repro.sim":
        return (
            f"import of sim internal '{module}'; import from the public "
            "facade 'repro.sim' instead (add the name to the facade if it "
            "is missing)"
        )
    if provider and _under(module, *_ABOVE_SIM):
        return (
            f"repro.sim must not import the experiment layer ('{module}'); "
            "move the dependency up or inject it"
        )
    if provider and _under(module, *_SIM_FORBIDDEN_OBS):
        return (
            f"repro.sim must not import '{module}': the telemetry stream "
            "consumes engine output; publish through the metrics registry "
            "(repro.obs.metrics) or the probe API instead"
        )
    return None


@register
class LayeringRule(LintRule):
    id = "R004"
    name = "layering"
    rationale = "experiments use the repro.sim facade; sim never imports upward"

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        modules = graph_for_project(project).modules
        for ctx, summary in file_summaries(project):
            consumer = ctx.in_package(*_FACADE_CONSUMERS) or ctx.is_script
            provider = ctx.in_package("repro.sim")
            if ctx.is_test or not (consumer or provider):
                continue
            for stmt in summary.import_stmts:
                if stmt.get("type_checking"):
                    continue
                targets = stmt["modules"]
                if "names" in stmt and not _violation(targets[0], consumer, provider):
                    targets = [
                        f"{targets[0]}.{name}" for name in stmt["names"]
                        if f"{targets[0]}.{name}" in modules
                    ]
                for module in targets:
                    message = _violation(module, consumer, provider)
                    if message is not None:
                        yield self.at(
                            str(ctx.relpath), stmt["line"], message,
                            col=stmt["col"],
                        )
