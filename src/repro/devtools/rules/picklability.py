"""R005: picklability — pool workers and specs must survive pickling.

``repro.exec.pool.run_jobs`` ships its worker and every spec to child
processes via pickle.  Pickle resolves functions and classes *by
qualified name*, so lambdas, functions defined inside other functions,
and classes constructed in local scope all fail — at runtime, deep in a
sweep, on the platforms that spawn (macOS/Windows) but not on fork
Linux where the tests run.  This rule rejects the failure statically:

* the worker argument of ``run_jobs(...)`` / ``pool.submit(...)`` must
  be a module-level function (not a lambda, not a nested ``def``);
* ``SimJob(...)`` construction must not embed lambdas in any field
  (e.g. a callable tag or progress hook smuggled into a spec);
* the factory registered with ``register_policy(name, factory)`` must
  be module-level: job specs carry policies *by name* and the worker
  rebuilds them from the registry, so a lambda or nested-def
  factory would resurrect the exact failure the name indirection
  exists to avoid.

The calls and argument positions are :data:`~repro.devtools.semantic
.summary.PICKLING_CALLS`; the file summaries record what is passed there.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.devtools.context import ProjectContext
from repro.devtools.findings import Finding
from repro.devtools.registry import LintRule, register
from repro.devtools.semantic.graph import file_summaries
from repro.devtools.semantic.summary import PICKLING_CALLS

__all__ = ["PicklabilityRule"]


#: (what the call pickles, whether a named def) -> message template.
_MESSAGES = {
    ("worker", False): (
        "lambda passed as {call}() worker cannot be pickled to pool "
        "processes; define a module-level function"
    ),
    ("worker", True): (
        "'{name}' is defined inside a function; pool workers must be "
        "module-level so pickle can resolve them by qualified name"
    ),
    ("field", False): (
        "lambda embedded in {call}(...) field; specs are pickled whole — "
        "pass data, not closures"
    ),
    ("factory", False): (
        "lambda registered as a policy factory via {call}(); job specs "
        "carry policies by name and workers rebuild them from the "
        "registry, so factories must be module-level functions"
    ),
    ("factory", True): (
        "'{name}' is defined inside a function; policy factories are "
        "resolved by qualified name in pool workers and must be "
        "module-level"
    ),
}


@register
class PicklabilityRule(LintRule):
    id = "R005"
    name = "picklability"
    rationale = "pool workers/specs resolve by qualified name; no lambdas or closures"

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        # Applies everywhere (tests included): a nested worker in a test
        # passes on fork-Linux CI and breaks users on spawn platforms.
        for ctx, summary in file_summaries(project):
            for site in summary.pickled:
                role = PICKLING_CALLS[site["call"]]
                message = _MESSAGES[role, site["name"] is not None]
                yield self.at(
                    str(ctx.relpath), site["line"], col=site["col"],
                    message=message.format(**site),
                )
