"""R011 — typed-core enforcement for ``repro.sim`` and ``repro.exec``.

The simulator core and the pool runner are the two layers everything
else builds on; their public call surfaces ship with ``py.typed`` and
must stay fully annotated so downstream code (and mypy, when present —
see :mod:`repro.devtools.semantic.typegate`) can actually check against
them.  The AST half of the contract lives here and needs no third-party
tooling: every *public* function and method in those packages must
annotate every parameter and its return type.

Scope decisions, so the rule stays about the public surface:

* private helpers (leading underscore) are exempt — they are free to
  rely on inference;
* ``self``/``cls`` receivers never need annotations;
* ``__init__`` must annotate its parameters (they *are* the constructor
  surface) but may omit the return annotation, matching mypy;
* other dunders follow their visibility: they are part of the type's
  protocol, so they are treated as public;
* nested functions are exempt (not callable from outside);
* public methods of *private* classes (``class _Foo``) are exempt — the
  class itself is not reachable from the public surface.

The file summaries record every definition with a bare parameter or
return (``FileSummary.untyped``); the rule filters them by visibility.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.devtools.context import ProjectContext, in_package
from repro.devtools.findings import Finding
from repro.devtools.registry import LintRule, register
from repro.devtools.semantic.graph import file_summaries

__all__ = ["TypedCoreRule", "TYPED_PACKAGES"]

#: The packages whose public surface must be fully annotated.
TYPED_PACKAGES = ("repro.sim", "repro.exec")


def _is_public(name: str) -> bool:
    return not name.startswith("_") or (
        name.startswith("__") and name.endswith("__")
    )


@register
class TypedCoreRule(LintRule):
    id = "R011"
    name = "typed-core"
    rationale = (
        "repro.sim and repro.exec ship py.typed: an unannotated public "
        "parameter or return silently erases type checking for every "
        "caller of that surface"
    )

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        for ctx, summary in file_summaries(project):
            if not in_package(ctx.module, *TYPED_PACKAGES):
                continue
            for record in summary.untyped:
                cls, _, name = record["qual"].rpartition(".")
                if (cls and not _is_public(cls) or not _is_public(name)
                        or name == "__init_subclass__"):
                    continue
                kind = "method" if cls else "function"
                where = str(ctx.relpath), record["line"]
                if record["missing"]:
                    missing = ", ".join(repr(m) for m in record["missing"])
                    yield self.at(
                        *where, col=record["col"],
                        message=f"public {kind} {name}() in a typed-core "
                        f"package leaves parameter(s) {missing} unannotated",
                    )
                if not record["returns"] and name != "__init__":
                    yield self.at(
                        *where, col=record["col"],
                        message=f"public {kind} {name}() in a typed-core "
                        "package has no return annotation",
                    )
