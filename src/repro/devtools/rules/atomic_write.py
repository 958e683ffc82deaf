"""R006: atomic-write — nothing writes under ``results/`` directly.

The results cache is shared by concurrent sweep workers (PR 1 made
``ResultStore.save`` publish through a uniquely-named temp file +
``os.replace``).  Any *other* code path that opens a file under
``results/`` for writing can tear a reader mid-JSON or clobber a
concurrent writer, so all such writes must route through
``repro.experiments.common``'s helpers (``ResultStore.save`` /
``atomic_write_text``).

Detection is taint-based and deliberately conservative: a write-mode
``open()`` / ``Path.open()`` / ``write_text`` / ``write_bytes`` whose
path expression mentions a ``results`` path — either a string constant
containing ``results`` or a module-level name assigned from one (e.g.
``OUT = ROOT / "results" / "reports"``) — is an error outside the
helper module itself.  The file summaries record the writes and their
taint, with the one write detector R010 and the effect engine share.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.devtools.context import ProjectContext, in_package
from repro.devtools.findings import Finding
from repro.devtools.registry import LintRule, register
from repro.devtools.semantic.graph import file_summaries

__all__ = ["AtomicWriteRule"]

#: The one module allowed to open result files raw: it owns the
#: temp-name + os.replace publication protocol.
_HELPER_MODULE = "repro.experiments.common"


@register
class AtomicWriteRule(LintRule):
    id = "R006"
    name = "atomic-write"
    rationale = "results/ is shared by concurrent workers; writes must be atomic"

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        for ctx, summary in file_summaries(project):
            if ctx.is_test or ctx.module == _HELPER_MODULE:
                continue
            if not (in_package(ctx.module, "repro") or ctx.is_script):
                continue
            for info in summary.functions.values():
                for write in info.writes:
                    if write.get("results"):
                        yield self.at(
                            str(ctx.relpath), write["line"], col=write["col"],
                            message="non-atomic write under results/; route "
                            "it through repro.experiments.common."
                            "atomic_write_text (or ResultStore.save) so "
                            "concurrent workers cannot tear it",
                        )
