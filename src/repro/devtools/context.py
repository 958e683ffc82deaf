"""Per-file and per-project context handed to lint rules.

A :class:`FileContext` bundles what the rules need of one file — source
text, parsed AST (parsed on first use, so a file whose summary is
cached is parsed only if a rule needs its tree), and the file's *layer
identity* (dotted module name under ``src/``, or its
``tests``/``scripts``/``benchmarks`` role), by which the single-file
rules scope themselves.  A :class:`ProjectContext` wraps the whole
batch the rules check, and the rules of the pass, which decide whose
trees outlive their summaries.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING

from repro.devtools.suppressions import expand_to_statements, scan_noqa

if TYPE_CHECKING:  # pragma: no cover
    from repro.devtools.registry import LintRule

__all__ = ["FileContext", "ProjectContext", "in_package", "module_name_for"]


def in_package(module: str | None, *prefixes: str) -> bool:
    """True if ``module`` is, or is under, any of the dotted ``prefixes``."""
    return module is not None and any(
        module == p or module.startswith(p + ".") for p in prefixes
    )


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


class FileContext:
    """One source file of the lint batch."""

    def __init__(
        self,
        path: Path,
        relpath: Path,
        source: str,
        tree: ast.Module | None = None,
    ) -> None:
        self.path = path  #: absolute path on disk
        self.relpath = relpath  #: path relative to the project root
        self.source = source
        if tree is not None:
            self.__dict__["tree"] = tree  # pre-seeds the cached property

    @cached_property
    def tree(self) -> ast.Module:
        """The parsed module, parsed on first use (``SyntaxError`` if
        the source does not parse)."""
        return ast.parse(self.source, filename=str(self.path))

    @cached_property
    def digest(self) -> str:
        """The source's content digest, half of its summary's cache key."""
        from repro.devtools.semantic.cache import content_digest

        return content_digest(self.source)

    @cached_property
    def lines(self) -> list[str]:
        return self.source.splitlines()

    @cached_property
    def noqa(self) -> tuple[dict[int, frozenset[str]], dict[int, str]]:
        """The file's ``# repro: noqa`` maps, scanned once per lint run:
        ``(suppressions, justifications)`` keyed by line number."""
        return scan_noqa(self.lines)

    @cached_property
    def noqa_extents(self) -> tuple[dict[int, frozenset[str]], dict[int, str]]:
        """:attr:`noqa` expanded over statement extents, the maps
        findings are filtered through; parses the tree only when the
        file has a noqa comment."""
        suppressions, justifications = self.noqa
        if not suppressions:
            return suppressions, justifications
        return expand_to_statements(self.tree, suppressions, justifications)

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


@dataclass
class ProjectContext:
    """The whole lint batch."""

    root: Path  #: project root (directory holding ``pyproject.toml``)
    files: list[FileContext] = field(default_factory=list)
    #: the pass's rules (``None`` outside a pass, which keeps every tree)
    rules: list[LintRule] | None = None

    def keeps_tree(self, module: str | None) -> bool:
        """Whether ``module``'s parse tree outlives its summary: a rule
        of the pass reads it."""
        return self.rules is None or any(
            rule.reads_tree(module) for rule in self.rules
        )

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
