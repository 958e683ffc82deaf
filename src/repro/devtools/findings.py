"""Lint findings: what a rule reports, and how it is rendered.

A :class:`Finding` pins one defect to a file and line.  Findings sort
by location so output is stable across rule-execution order, which
keeps both the human and the JSON output diffable in CI logs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = ["Severity", "Finding"]


class Severity(enum.Enum):
    """How a finding affects the exit code.

    ``ERROR`` findings fail the lint run; ``WARNING`` findings are
    reported but do not (used while migrating a rule in, so CI can show
    the debt without blocking every PR at once).
    """

    WARNING = "warning"
    ERROR = "error"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str  #: rule id, e.g. ``"R001"``
    severity: Severity
    path: str  #: path as given to the linter (repo-relative in CI)
    line: int  #: 1-based line number
    col: int  #: 0-based column offset, as in :mod:`ast`
    message: str

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.rule, self.message)

    def render(self) -> str:
        """``path:line:col: R00X [severity] message`` (editor-clickable)."""
        return (
            f"{self.path}:{self.line}:{self.col + 1}: "
            f"{self.rule} [{self.severity.value}] {self.message}"
        )

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "severity": self.severity.value,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }
