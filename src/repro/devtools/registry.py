"""The lint-rule registry.

Rules subclass :class:`LintRule` and register themselves with the
:func:`register` decorator; the linter driver instantiates every
registered rule per run.  Two scopes exist:

* ``file`` rules get one :meth:`~LintRule.check_file` call per parsed
  source file;
* ``project`` rules get one :meth:`~LintRule.check_project` call per
  lint invocation, with the full batch (used when an invariant spans
  files, like the cache-schema fingerprint).
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator
from typing import TYPE_CHECKING

from repro.devtools.findings import Finding, Severity

if TYPE_CHECKING:  # pragma: no cover
    import ast

    from repro.devtools.context import FileContext, ProjectContext

__all__ = ["LintRule", "register", "all_rules", "rule_by_id"]

_RULE_ID_RE = re.compile(r"^R\d{3}$")

#: id -> rule class, in registration order
_REGISTRY: dict[str, type["LintRule"]] = {}


class LintRule:
    """Base class for lint rules.

    Subclasses set ``id`` (``R0XX``), ``name`` (short slug shown in
    ``--list-rules``), ``rationale`` (one line), and optionally
    ``severity`` and ``scope``; then implement :meth:`check_file` or
    :meth:`check_project`.
    """

    id: str = ""
    name: str = ""
    rationale: str = ""
    severity: Severity = Severity.ERROR
    scope: str = "file"  # "file" | "project"

    def finding(
        self,
        ctx: "FileContext",
        node: "ast.AST | None",
        message: str,
        *,
        line: int | None = None,
        col: int | None = None,
    ) -> Finding:
        """Build a finding located at ``node`` (or explicit line/col)."""
        return Finding(
            rule=self.id,
            severity=self.severity,
            path=str(ctx.relpath),
            line=line if line is not None else getattr(node, "lineno", 1),
            col=col if col is not None else getattr(node, "col_offset", 0),
            message=message,
        )

    def at(self, path: str, line: int, message: str) -> Finding:
        """Build a finding at ``path:line`` (column 0), for project rules
        that locate findings from summaries rather than AST nodes."""
        return Finding(
            rule=self.id, severity=self.severity, path=path, line=line,
            col=0, message=message,
        )

    def check_file(self, ctx: "FileContext") -> Iterator[Finding]:
        return iter(())

    def check_project(self, project: "ProjectContext") -> Iterator[Finding]:
        return iter(())


def register(cls: type[LintRule]) -> type[LintRule]:
    """Class decorator: add ``cls`` to the rule registry."""
    if not _RULE_ID_RE.match(cls.id):
        raise ValueError(f"rule id {cls.id!r} does not match R0XX")
    if cls.id in _REGISTRY and _REGISTRY[cls.id] is not cls:
        raise ValueError(f"duplicate rule id {cls.id}")
    if cls.scope not in ("file", "project"):
        raise ValueError(f"{cls.id}: unknown scope {cls.scope!r}")
    _REGISTRY[cls.id] = cls
    return cls


def all_rules(select: Iterable[str] | None = None) -> list[LintRule]:
    """Instantiate the registered rules, ordered by id.

    ``select`` restricts to the given rule ids (unknown ids raise, so a
    typo in ``--select`` is loud rather than silently lint-nothing).
    """
    # Importing the rules package populates the registry on first use.
    import repro.devtools.rules  # noqa: F401  (import-for-effect)

    if select is not None:
        wanted = list(select)
        unknown = sorted(set(wanted) - set(_REGISTRY))
        if unknown:
            raise ValueError(
                f"unknown rule ids: {', '.join(unknown)} "
                f"(valid: {', '.join(sorted(_REGISTRY))})"
            )
        return [_REGISTRY[i]() for i in sorted(set(wanted))]
    return [_REGISTRY[i]() for i in sorted(_REGISTRY)]


def rule_by_id(rule_id: str) -> LintRule:
    import repro.devtools.rules  # noqa: F401  (import-for-effect)

    return _REGISTRY[rule_id]()
