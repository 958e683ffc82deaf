"""R002: float-equality — no ``==``/``!=`` against float expressions.

Exact float comparison in library code is almost always a latent bug:
EB/IPC values arrive through long chains of arithmetic, so "is the
miss rate zero" must be an epsilon test documented against the metric's
definition (see ``repro.metrics.bandwidth.EPS``, this rule's seed
example).  The rule flags comparisons where an operand is statically
float-like: a float literal, a ``float(...)`` call, or ``math.inf`` /
``math.nan``.

Tests are exempt — asserting an exact value is the *point* of a
determinism regression test — as is comparison against ``0.0`` inside
an allowlisted module (none today).  Intentional exact comparisons in
library code take a ``# repro: noqa[R002]``.  The rule filters the
comparisons the file summaries record (``FileSummary.float_eqs``).
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.devtools.context import ProjectContext
from repro.devtools.findings import Finding
from repro.devtools.registry import LintRule, register
from repro.devtools.semantic.graph import file_summaries

__all__ = ["FloatEqualityRule", "ALLOWED_MODULES"]

#: Modules exempt from R002 (dotted names).  Deliberately empty: the
#: historical offender (repro.metrics.bandwidth) now uses EPS guards.
ALLOWED_MODULES: frozenset[str] = frozenset()


@register
class FloatEqualityRule(LintRule):
    id = "R002"
    name = "float-equality"
    rationale = "exact float comparison hides epsilon decisions; make them explicit"

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        for ctx, summary in file_summaries(project):
            if ctx.is_test or ctx.module in ALLOWED_MODULES:
                continue
            if not (ctx.in_package("repro") or ctx.is_script):
                continue
            for site in summary.float_eqs:
                extent = ast.expr(
                    lineno=site["line"], col_offset=site["col"],
                    end_lineno=site["end_line"], end_col_offset=site["end_col"],
                )
                frag = ast.get_source_segment(ctx.source, extent) or "float comparison"
                yield self.at(
                    str(ctx.relpath), site["line"], col=site["col"],
                    message=f"exact float comparison '{frag.strip()}'; compare "
                    "against a documented epsilon (see "
                    "repro.metrics.bandwidth.EPS) or add "
                    "'# repro: noqa[R002]' if exactness is intended",
                )
