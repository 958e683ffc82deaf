"""R013 clock-domain separation: sim cycles never meet wall-clock time.

The tree runs on two clocks.  The simulator advances in *cycles* (the
calendar wheel, DRAM timing, window boundaries); the telemetry stream
measures host *wall-clock* time (``time.perf_counter`` seconds).  The
Chrome export deliberately maps sim events onto the trace's µs axis at
1 cycle = 1 µs — a *conversion boundary*, not an equality.

Everywhere else, arithmetic that combines a cycle-dimensioned quantity
with a wall-dimensioned one (``+``, ``-``, ``*``, ``/``, ``//``, ``%``
or an ordering comparison) is an error: there is no physical conversion
between simulated time and host time, so such an expression is a bug by
construction (PR 6's event folds made several cycle quantities flow
through code that also handles wall-clock timestamps, which is exactly
how this mix happens).

The dataflow engine lives in :mod:`repro.devtools.semantic.units`; this
rule packages its ``kind == "clock"`` findings.  The allowlisted
boundaries are :data:`~repro.devtools.semantic.units
.CLOCK_BOUNDARY_MODULES`.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import TYPE_CHECKING

from repro.devtools.findings import Finding, Severity
from repro.devtools.registry import LintRule, register
from repro.devtools.semantic.units import units_analysis

if TYPE_CHECKING:  # pragma: no cover
    from repro.devtools.context import ProjectContext

__all__ = ["ClockDomainRule"]


@register
class ClockDomainRule(LintRule):
    id = "R013"
    name = "clock-domains"
    rationale = (
        "sim-cycle and wall-clock quantities never mix outside the "
        "declared conversion boundaries (Chrome export, two-clock "
        "event constructor)"
    )
    severity = Severity.ERROR

    def check_project(self, project: "ProjectContext") -> Iterator[Finding]:
        for uf in units_analysis(project)["findings"]:
            if uf.kind != "clock":
                continue
            yield Finding(
                rule=self.id, severity=self.severity, path=uf.path,
                line=uf.line, col=uf.col, message=uf.message,
            )
