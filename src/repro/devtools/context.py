"""Per-file and per-project context handed to lint rules.

A :class:`FileContext` bundles everything a file-scoped rule needs —
source text, parsed AST, and the file's *layer identity* (dotted module
name under ``src/``, or its ``tests``/``scripts``/``benchmarks`` role).
A :class:`ProjectContext` wraps the whole batch for project-scoped
rules (e.g. the cache-schema fingerprint check, which correlates
several files and a pinned artifact).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

from repro.devtools.suppressions import scan_noqa

__all__ = ["FileContext", "ProjectContext", "module_name_for"]


def module_name_for(relpath: Path) -> str | None:
    """Dotted module name for a repo-relative path, or ``None``.

    ``src/repro/sim/engine.py`` -> ``repro.sim.engine``;
    ``tests/test_exec.py`` -> ``tests.test_exec``;
    ``scripts/lint.py`` -> ``scripts.lint``.  Paths outside those
    roots have no layer identity and get ``None``.
    """
    parts = relpath.parts
    if not parts or relpath.suffix != ".py":
        return None
    if parts[0] == "src":
        parts = parts[1:]
    elif parts[0] not in ("tests", "scripts", "benchmarks", "examples"):
        return None
    if not parts:
        return None
    stem = parts[:-1] + ((parts[-1][: -len(".py")],) if parts[-1] != "__init__.py" else ())
    return ".".join(stem) if stem else None


@dataclass
class FileContext:
    """One parsed source file, as seen by file-scoped rules."""

    path: Path  #: absolute path on disk
    relpath: Path  #: path relative to the project root
    source: str
    tree: ast.Module

    @cached_property
    def lines(self) -> list[str]:
        return self.source.splitlines()

    @cached_property
    def noqa(self) -> tuple[dict[int, frozenset[str]], dict[int, str]]:
        """The file's ``# repro: noqa`` maps, scanned once per lint run:
        ``(suppressions, justifications)`` keyed by line number."""
        return scan_noqa(self.lines)

    @cached_property
    def module(self) -> str | None:
        """Dotted module name (``repro.sim.engine``), if resolvable."""
        return module_name_for(self.relpath)

    # --- layer predicates, used by rules to scope themselves -----------

    @property
    def is_test(self) -> bool:
        parts = self.relpath.parts
        name = self.path.name
        return (
            (bool(parts) and parts[0] == "tests")
            or name.startswith("test_")
            or name == "conftest.py"
        )

    @property
    def is_script(self) -> bool:
        parts = self.relpath.parts
        return bool(parts) and parts[0] in ("scripts", "benchmarks", "examples")

    def in_package(self, *prefixes: str) -> bool:
        """True if the file's module is (under) any of ``prefixes``."""
        mod = self.module
        if mod is None:
            return False
        return any(mod == p or mod.startswith(p + ".") for p in prefixes)

    def segment(self, node: ast.AST) -> str:
        """Source text of ``node`` (best effort; '' if unavailable)."""
        return ast.get_source_segment(self.source, node) or ""


@dataclass
class ProjectContext:
    """The whole lint batch, for project-scoped rules."""

    root: Path  #: project root (directory holding ``pyproject.toml``)
    files: list[FileContext] = field(default_factory=list)

    def file_for(self, relpath: str) -> FileContext | None:
        """The batch's context for ``relpath``, parsing from disk if the
        file exists but was not part of the linted path set."""
        target = (self.root / relpath).resolve()
        for ctx in self.files:
            if ctx.path == target:
                return ctx
        if not target.is_file():
            return None
        source = target.read_text()
        try:
            tree = ast.parse(source, filename=str(target))
        except SyntaxError:
            return None
        return FileContext(
            path=target,
            relpath=Path(relpath),
            source=source,
            tree=tree,
        )
