"""The lint-rule registry.

Rules subclass :class:`LintRule` and register themselves with the
:func:`register` decorator; the linter driver instantiates every
registered rule per run and calls each one's
:meth:`~LintRule.check_project` once, with the whole batch.  Rules that
check one file at a time filter the batch's file summaries
(:func:`repro.devtools.semantic.graph.file_summaries`); a rule that
reads parse trees names their modules through
:meth:`~LintRule.reads_tree`.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator
from typing import TYPE_CHECKING

from repro.devtools.findings import Finding, Severity

if TYPE_CHECKING:  # pragma: no cover
    from repro.devtools.context import ProjectContext

__all__ = ["LintRule", "register", "all_rules"]

_RULE_ID_RE = re.compile(r"^R\d{3}$")

#: id -> rule class, in registration order
_REGISTRY: dict[str, type["LintRule"]] = {}


class LintRule:
    """Base class for lint rules.

    Subclasses set ``id`` (``R0XX``), ``name`` (short slug shown in
    ``--list-rules``), ``rationale`` (one line), and optionally
    ``severity``; then implement :meth:`check_project`.
    """

    id: str = ""
    name: str = ""
    rationale: str = ""
    severity: Severity = Severity.ERROR
    #: every rule checks the whole batch, so this is the only scope
    scope: str = "project"

    def at(
        self, path: str, line: int, message: str, *, col: int = 0,
        severity: Severity | None = None,
    ) -> Finding:
        """Build a finding at ``path:line:col`` (the rule's severity
        unless ``severity`` overrides it)."""
        return Finding(
            rule=self.id, severity=severity or self.severity, path=path,
            line=line, col=col, message=message,
        )

    def check_project(self, project: "ProjectContext") -> Iterator[Finding]:
        return iter(())

    def reads_tree(self, module: str | None) -> bool:
        """Whether :meth:`check_project` reads ``module``'s parse tree.

        A pass keeps a file's tree past its summary only for a rule
        that reads it; every other tree is dropped once summarized.
        """
        return False


def register(cls: type[LintRule]) -> type[LintRule]:
    """Class decorator: add ``cls`` to the rule registry."""
    if not _RULE_ID_RE.match(cls.id):
        raise ValueError(f"rule id {cls.id!r} does not match R0XX")
    if cls.id in _REGISTRY and _REGISTRY[cls.id] is not cls:
        raise ValueError(f"duplicate rule id {cls.id}")
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
