"""The lint driver: file discovery, rule execution, reporting.

``lint_paths`` is the library entry point (used by tests and the CLI);
``main`` is the argv-level entry behind ``python -m repro lint`` and
``scripts/lint.py``.  Exit codes: 0 clean, 1 error-severity findings,
2 usage/parse problems.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from collections.abc import Iterable, Sequence
from pathlib import Path
from typing import TYPE_CHECKING

from repro.devtools.context import FileContext, ProjectContext
from repro.devtools.findings import Finding, Severity
from repro.devtools.registry import all_rules
from repro.devtools.suppressions import filter_suppressed

if TYPE_CHECKING:  # pragma: no cover
    from repro.devtools.semantic.cache import AnalysisCache

__all__ = [
    "lint_paths",
    "changed_files",
    "add_arguments",
    "build_parser",
    "run",
    "main",
    "DEFAULT_PATHS",
]

#: What ``repro lint`` checks when no paths are given.
DEFAULT_PATHS = ("src", "tests", "scripts")

#: Directory names never descended into.
_SKIP_DIRS = frozenset({"__pycache__", ".git", ".venv", "results", "node_modules"})


def find_root(start: Path) -> Path:
    """Nearest ancestor holding ``pyproject.toml`` (else ``start``)."""
    start = start.resolve()
    base = start if start.is_dir() else start.parent
    for candidate in (base, *base.parents):
        if (candidate / "pyproject.toml").is_file():
            return candidate
    return base


def _walk_python_files(top: str) -> list[str]:
    """The ``.py`` entries under directory ``top``, in the order of
    ``sorted(Path(top).rglob("*.py"))``: by path parts, so ``a/x.py``
    comes before ``a-b/x.py``.  Like ``rglob``, the walk does not enter
    symlinked directories; unlike it, it never enters :data:`_SKIP_DIRS`."""
    found: list[tuple[list[str], str]] = []
    prefix = len(os.path.join(top, ""))
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames[:] = [d for d in dirnames if d not in _SKIP_DIRS]
        rel = dirpath[prefix:].split(os.sep) if dirpath != top else []
        for name in (*dirnames, *filenames):
            if name.endswith(".py"):
                found.append(([*rel, name], os.path.join(dirpath, name)))
    found.sort(key=lambda item: item[0])
    return [path for _, path in found]


def iter_python_files(paths: Iterable[Path]) -> list[Path]:
    """The ``.py`` files under ``paths``, resolved, each once, in the
    order they are first met; :data:`_SKIP_DIRS` are skipped below each
    walked directory (not above it: a checkout may live under a
    directory called ``results``)."""
    files: list[Path] = []
    seen: set[str] = set()
    for path in paths:
        if path.is_dir():
            found = _walk_python_files(str(path))
        elif path.suffix == ".py":
            found = [str(path)]
        else:
            continue
        for name in found:
            # Overlapping path arguments name a file twice.
            resolved = os.path.realpath(name)
            if resolved not in seen:
                seen.add(resolved)
                files.append(Path(resolved))
    return files


def _prune(cache: AnalysisCache, root: Path, digests: dict[str, str | None]) -> None:
    """Keep the summaries whose file, named by the summary's own
    ``path``, still holds the content it was keyed by: ``digests`` for
    this batch (``None`` when unparseable), the disk for other paths, so
    linting a subset keeps the rest of the tree's cache."""
    from repro.devtools.semantic.cache import content_digest

    def digest_now(doc: object) -> str | None:
        relpath = doc.get("path") if isinstance(doc, dict) else None
        if not isinstance(relpath, str):
            return None
        if relpath in digests:
            return digests[relpath]
        try:
            return content_digest((root / relpath).read_text())
        except (OSError, UnicodeDecodeError):
            return None

    cache.prune({
        key for key, doc in cache.items()
        if digest_now(doc) == key.rpartition(":")[2]
    })


def changed_files(root: Path, ref: str = "HEAD") -> set[str]:
    """Repo-relative paths of ``.py`` files changed since ``ref``.

    The set is git's view: ``git diff --name-only ref`` (staged and
    unstaged edits against the ref) plus untracked, non-ignored files.
    Raises :class:`RuntimeError` when git cannot answer (no repo, bad
    ref) — the CLI maps that to a usage error, exit code 2.
    """
    import subprocess

    changed: set[str] = set()
    for cmd in (
        ["git", "diff", "--name-only", ref, "--"],
        ["git", "ls-files", "--others", "--exclude-standard"],
    ):
        try:
            proc = subprocess.run(
                cmd, cwd=root, capture_output=True, text=True, check=False
            )
        except OSError as exc:  # git binary missing
            raise RuntimeError(f"cannot run git: {exc}") from exc
        if proc.returncode != 0:
            detail = proc.stderr.strip().splitlines()
            raise RuntimeError(
                f"`{' '.join(cmd)}` failed"
                + (f": {detail[0]}" if detail else "")
            )
        changed.update(
            line.strip()
            for line in proc.stdout.splitlines()
            if line.strip().endswith(".py")
        )
    return changed


def _unparseable(relpath: str, exc: Exception) -> Finding:
    """The E999 finding of a file that cannot be read or parsed."""
    return Finding(
        rule="E999",
        severity=Severity.ERROR,
        path=relpath,
        line=getattr(exc, "lineno", None) or 1,
        col=(getattr(exc, "offset", None) or 1) - 1,
        message=f"cannot parse: {exc.__class__.__name__}: {exc}",
    )


def _unsuppressed(finding: Finding, owner: FileContext) -> list[Finding]:
    """``finding``, unless a ``# repro: noqa`` in ``owner`` suppresses it.

    Statement extents only add suppressions to lines after a noqa
    comment, so the tree is parsed for them only when the comment scan
    leaves the finding standing and an earlier line carries a noqa.
    """
    suppressions, justifications = owner.noqa
    kept = filter_suppressed([finding], suppressions, justifications)
    if kept and any(line < finding.line for line in suppressions):
        kept = filter_suppressed(kept, *owner.noqa_extents)
    return kept


def lint_paths(
    paths: Sequence[str | Path],
    *,
    root: Path | None = None,
    select: Sequence[str] | None = None,
    semantic_cache: bool = True,
    changed: set[str] | None = None,
    _project_out: list[ProjectContext] | None = None,
) -> list[Finding]:
    """Lint ``paths`` (files or directories), returning sorted findings.

    Every rule reads the batch's file summaries, which the lint cache
    (``<root>/.lint-cache/``; off with ``semantic_cache=False``) keeps by
    content digest, beside the results of R009 and the units pass, kept
    by the digest of their inputs.  A file without a cached summary is
    parsed once, to summarize it, and its tree is kept only if a
    selected rule reads it (R009, the units pass); a tree is parsed
    again only if such a rule's result is not cached, or a finding needs
    the ``noqa`` extents of its statement.  So a pass over files
    unchanged since the last one parses none of them unless a finding
    needs an extent.  ``changed`` narrows the *report* to those
    repo-relative paths; the rules still see the whole batch.
    ``_project_out`` receives the built :class:`ProjectContext`, so
    ``--graph`` reuses its memoized graph.
    """
    # A batch builds parse trees and summaries that hold no reference
    # cycles, so a collection in it would traverse them all and free
    # nothing: the pass runs with the cyclic collector off and leaves
    # it as it found it.
    collecting = gc.isenabled()
    gc.disable()
    try:
        # Imported here: ``repro.cli`` imports this module for every command,
        # and the semantic package otherwise loads with the rules.
        from repro.devtools.semantic.graph import (
            analysis_cache_for,
            graph_for_project,
        )

        path_objs = [Path(p) for p in paths]
        if root is None:
            root = find_root(path_objs[0] if path_objs else Path.cwd())
        rules = all_rules(select)

        project = ProjectContext(root=root, rules=rules)
        if not semantic_cache:
            project.semantic_cache_path = None  # type: ignore[attr-defined]
        if _project_out is not None:
            _project_out.append(project)
        cache = analysis_cache_for(project)

        findings: list[Finding] = []
        digests: dict[str, str | None] = {}
        for path in iter_python_files(path_objs):
            try:
                relpath = str(path.relative_to(root))
            except ValueError:
                relpath = path.name
            try:
                ctx = FileContext(
                    path=path, relpath=Path(relpath), source=path.read_text()
                )
            except (UnicodeDecodeError, OSError) as exc:
                digests[relpath] = None
                if changed is None or relpath in changed:
                    findings.append(_unparseable(relpath, exc))
                continue
            digests[relpath] = ctx.digest
            project.files.append(ctx)
        if cache is not None:
            _prune(cache, root, digests)
        # Summarize before any rule runs: the build parses each file
        # without a cached summary, so one that does not parse is
        # reported on every run and leaves the batch the rules see.
        for ctx, exc in graph_for_project(project).unparsed:
            if changed is None or str(ctx.relpath) in changed:
                findings.append(_unparseable(str(ctx.relpath), exc))

        contexts = {str(ctx.relpath): ctx for ctx in project.files}
        for rule in rules:
            for finding in rule.check_project(project):
                if changed is not None and finding.path not in changed:
                    continue
                owner = contexts.get(finding.path)
                if owner is None:
                    findings.append(finding)
                else:
                    findings.extend(_unsuppressed(finding, owner))

        if cache is not None:
            # The pass's one write: new summaries and results together,
            # and none when nothing changed.
            cache.save()
        return sorted(findings, key=Finding.sort_key)
    finally:
        if collecting:
            gc.enable()


def _render_text(findings: list[Finding], n_files: int) -> str:
    lines = [f.render() for f in findings]
    errors = sum(1 for f in findings if f.severity is Severity.ERROR)
    warnings = len(findings) - errors
    lines.append(
        f"checked {n_files} file(s): {errors} error(s), {warnings} warning(s)"
    )
    return "\n".join(lines)


def _render_json(findings: list[Finding], n_files: int) -> str:
    return json.dumps(
        {
            "files_checked": n_files,
            "errors": sum(1 for f in findings if f.severity is Severity.ERROR),
            "warnings": sum(
                1 for f in findings if f.severity is Severity.WARNING
            ),
            "findings": [f.to_dict() for f in findings],
        },
        indent=2,
    )


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Install the lint options on ``parser`` (shared with ``repro lint``)."""
    parser.add_argument(
        "paths",
        nargs="*",
        default=list(DEFAULT_PATHS),
        help=f"files/directories to lint (default: {' '.join(DEFAULT_PATHS)})",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--root",
        type=Path,
        default=None,
        help="project root (default: nearest ancestor with pyproject.toml)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    parser.add_argument(
        "--types",
        action="store_true",
        help="additionally run the mypy baseline ratchet over the "
        "typed-core packages (skipped with a notice if mypy is not "
        "installed; see docs/devtools.md)",
    )
    parser.add_argument(
        "--update-type-baseline",
        action="store_true",
        help="with --types: rewrite the checked-in mypy baseline to the "
        "current diagnostics instead of failing on drift",
    )
    parser.add_argument(
        "--graph",
        action="store_true",
        help="dump the project import/call graph, the MemTxn "
        "stage-transition graph, unit signatures, and the R014-R016 "
        "effects graph as JSON (see --graph-dir)",
    )
    parser.add_argument(
        "--graph-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help="directory for --graph artifacts "
        "(default: <root>/results/lint)",
    )
    parser.add_argument(
        "--no-semantic-cache",
        action="store_true",
        help="disable the lint cache of file summaries (<root>/.lint-cache/)",
    )
    parser.add_argument(
        "--changed",
        nargs="?",
        const="HEAD",
        default=None,
        metavar="REF",
        help="only report findings in files changed since REF "
        "(git diff + untracked; REF defaults to HEAD). The rules still "
        "see the whole tree; only the report is narrowed.",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="AST-based invariant checker for the repro tree "
        "(determinism, layering, picklability, ...)",
    )
    add_arguments(parser)
    return parser


def run(args: argparse.Namespace) -> int:
    """Execute a lint invocation from a parsed namespace."""
    root = args.root.resolve() if args.root else None

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.id}  {rule.name:<20s} [{rule.severity.value}] "
                  f"{rule.rationale}")
        return 0

    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        print(f"error: no such path(s): {', '.join(missing)}", file=sys.stderr)
        return 2

    files = iter_python_files([Path(p) for p in args.paths])
    if not files:
        print(
            "error: no Python files found under: "
            + ", ".join(str(p) for p in args.paths),
            file=sys.stderr,
        )
        return 2

    select = None
    if args.select:
        select = [s.strip().upper() for s in args.select.split(",") if s.strip()]

    changed: set[str] | None = None
    if args.changed is not None:
        try:
            changed = changed_files(
                root or find_root(Path(args.paths[0])), args.changed
            )
        except RuntimeError as exc:
            print(f"error: --changed: {exc}", file=sys.stderr)
            return 2
        if not changed:
            print(
                f"no Python files changed since {args.changed}; "
                "nothing to lint"
            )
            return 0

    project_out: list[ProjectContext] = []
    try:
        findings = lint_paths(
            args.paths,
            root=root,
            select=select,
            semantic_cache=not args.no_semantic_cache,
            changed=changed,
            _project_out=project_out,
        )
    except ValueError as exc:  # unknown --select ids
        print(f"error: {exc}", file=sys.stderr)
        return 2

    render = _render_json if args.format == "json" else _render_text
    print(render(findings, len(files)))
    has_errors = any(f.severity is Severity.ERROR for f in findings)
    status = 1 if has_errors else 0

    if args.graph and project_out:
        written = _dump_graphs(project_out[0], args.graph_dir)
        for path in written:
            print(f"graph: wrote {path}")

    if args.types:
        from repro.devtools.semantic.typegate import run_type_gate

        gate = run_type_gate(
            root or find_root(Path.cwd()),
            update_baseline=args.update_type_baseline,
        )
        for message in gate.messages:
            print(message)
        if not gate.ok:
            status = max(status, 1)

    return status


def _dump_graphs(project: ProjectContext, graph_dir: Path | None) -> list[Path]:
    """Write the ``--graph`` JSON artifacts; returns the written paths.

    Artifacts go through :func:`repro.obs.io.atomic_write_text` — the
    default location is under ``results/``, where rule R006 reserves
    writes for the atomic helpers.
    """
    from repro.obs.io import atomic_write_text

    from repro.devtools.semantic.graph import graph_for_project
    from repro.devtools.semantic.lifecycle import analyze_engine

    out_dir = graph_dir if graph_dir is not None else project.root / "results" / "lint"
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    graph = graph_for_project(project)
    graph_path = out_dir / "project_graph.json"
    atomic_write_text(graph_path, json.dumps(graph.to_dict(), indent=2) + "\n")
    written.append(graph_path)

    engine_ctx = project.file_for("src/repro/sim/engine.py")
    if engine_ctx is not None:
        analysis = analyze_engine(engine_ctx.tree)
        stage_path = out_dir / "stage_graph.json"
        atomic_write_text(
            stage_path, json.dumps(analysis.to_dict(), indent=2) + "\n"
        )
        written.append(stage_path)

    from repro.devtools.semantic.units import units_graph_doc

    units_path = out_dir / "units_graph.json"
    atomic_write_text(
        units_path, json.dumps(units_graph_doc(project), indent=2) + "\n"
    )
    written.append(units_path)

    from repro.devtools.semantic.effects import effects_graph_doc

    effects_path = out_dir / "effects_graph.json"
    atomic_write_text(
        effects_path, json.dumps(effects_graph_doc(project), indent=2) + "\n"
    )
    written.append(effects_path)
    return written


def main(argv: Sequence[str] | None = None) -> int:
    return run(build_parser().parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
