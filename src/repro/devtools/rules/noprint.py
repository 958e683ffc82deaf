"""R007: no-print — simulation layers stay silent.

``repro.sim`` and ``repro.core`` execute inside pool workers and inner
sweep loops; a stray debugging ``print()`` there interleaves garbage
into the CLI's progress line from several processes at once and is
invisible in any structured record of the run.  Diagnostics from those
layers belong in the observability stack instead: a record on the
ambient publisher (:mod:`repro.obs.live`), a metric on the registry
(:mod:`repro.obs.metrics`), or a structured decision record
(:meth:`repro.core.controller.BaseController.note_decision`) — all of
which survive into the run's event stream and ``repro trace summarize``.

The rule is a *warning* (reported, does not fail the lint run) and
flags only calls of the ``print`` builtin (the file summaries record
them); writing to an explicit stream object is not its business.  A deliberate console escape hatch
takes a ``# repro: noqa[R007]``.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.devtools.context import ProjectContext, in_package
from repro.devtools.findings import Finding, Severity
from repro.devtools.registry import LintRule, register
from repro.devtools.semantic.graph import file_summaries

__all__ = ["NoPrintRule"]

#: Layers that must not print: their output channel is the trace.
_SILENT_LAYERS = ("repro.sim", "repro.core")


@register
class NoPrintRule(LintRule):
    id = "R007"
    name = "no-print"
    rationale = (
        "sim/core run inside pool workers; diagnostics go through "
        "repro.obs, not stdout"
    )
    severity = Severity.WARNING

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        for ctx, summary in file_summaries(project):
            if ctx.is_test or not in_package(ctx.module, *_SILENT_LAYERS):
                continue
            for site in summary.prints:
                yield self.at(
                    str(ctx.relpath), site["line"], col=site["col"],
                    message="bare print() in a simulation layer; emit "
                    "through the publisher/metrics registry (repro.obs) or "
                    "a structured decision record instead, or add "
                    "'# repro: noqa[R007]' for a deliberate console escape "
                    "hatch",
                )
