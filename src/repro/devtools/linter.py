"""The lint driver: file discovery, rule execution, reporting.

``lint_paths`` is the library entry point (used by tests and the CLI);
``main`` is the argv-level entry behind ``python -m repro lint`` and
``scripts/lint.py``.  Exit codes: 0 clean, 1 error-severity findings,
2 usage/parse problems.
"""

from __future__ import annotations

import argparse
import json
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


def iter_python_files(paths: Iterable[Path]) -> list[Path]:
    """The ``.py`` files under ``paths``, skipping :data:`_SKIP_DIRS`
    below each walked directory (not above it: a checkout may live under
    a directory called ``results``)."""
    files: list[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(
                p
                for p in sorted(path.rglob("*.py"))
                if _SKIP_DIRS.isdisjoint(p.relative_to(path).parts)
            )
        elif path.suffix == ".py":
            files.append(path)
    # De-duplicate while preserving order (overlapping path arguments).
    seen: set[Path] = set()
    unique = []
    for p in files:
        rp = p.resolve()
        if rp not in seen:
            seen.add(rp)
            unique.append(p)
    return unique


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


def lint_paths(
    paths: Sequence[str | Path],
    *,
    root: Path | None = None,
    select: Sequence[str] | None = None,
    semantic_cache: bool = True,
    changed: set[str] | None = None,
    jobs: int | None = None,
    _project_out: list[ProjectContext] | None = None,
) -> list[Finding]:
    """Lint ``paths`` (files or directories), returning sorted findings.

    Every rule reads the batch's file summaries, which the lint cache
    (``<root>/.lint-cache/``; off with ``semantic_cache=False``) keeps by
    content digest, so a cached file is parsed only if a rule needs its
    tree (R003, R009, the units pass) or a finding its ``noqa`` extents.
    ``changed`` narrows the *report* to those repo-relative paths; the
    rules still see the whole batch.  ``jobs`` parallelizes
    summarization (same findings).  ``_project_out`` receives the built
    :class:`ProjectContext`, so ``--graph`` reuses its memoized graph.
    """
    # Imported here: ``repro.cli`` imports this module for every command,
    # and the semantic package otherwise loads with the rules.
    from repro.devtools.semantic.graph import analysis_cache_for, cache_key

    path_objs = [Path(p) for p in paths]
    if root is None:
        root = find_root(path_objs[0] if path_objs else Path.cwd())
    rules = all_rules(select)

    project = ProjectContext(root=root)
    if not semantic_cache:
        project.semantic_cache_path = None  # type: ignore[attr-defined]
    if jobs is not None:
        project.semantic_jobs = jobs  # type: ignore[attr-defined]
    if _project_out is not None:
        _project_out.append(project)
    cache = analysis_cache_for(project)

    findings: list[Finding] = []
    digests: dict[str, str | None] = {}
    for path in iter_python_files(path_objs):
        path = path.resolve()
        try:
            relpath = str(path.relative_to(root))
        except ValueError:
            relpath = path.name
        try:
            ctx = FileContext(path=path, relpath=Path(relpath), source=path.read_text())
            if cache is None or cache_key(ctx) not in cache:
                # Not summarized yet: parse now, so an unparseable file
                # is reported on every run and never reaches the rules.
                ctx.tree
        except (SyntaxError, UnicodeDecodeError, OSError) as exc:
            digests[relpath] = None
            if changed is None or relpath in changed:
                findings.append(Finding(
                    rule="E999",
                    severity=Severity.ERROR,
                    path=relpath,
                    line=getattr(exc, "lineno", None) or 1,
                    col=(getattr(exc, "offset", None) or 1) - 1,
                    message=f"cannot parse: {exc.__class__.__name__}: {exc}",
                ))
            continue
        digests[relpath] = ctx.digest
        project.files.append(ctx)
    # Prune before the rules run: the graph build then saves the cache
    # once, with its new summaries.
    if cache is not None:
        _prune(cache, root, digests)

    contexts = {str(ctx.relpath): ctx for ctx in project.files}
    for rule in rules:
        for finding in rule.check_project(project):
            if changed is not None and finding.path not in changed:
                continue
            owner = contexts.get(finding.path)
            if owner is None:
                findings.append(finding)
            else:
                findings.extend(filter_suppressed([finding], *owner.noqa_extents))

    if cache is not None:
        cache.save()  # a no-op when nothing changed, or the graph saved
    return sorted(findings, key=Finding.sort_key)


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
        "--update-cache-schema",
        action="store_true",
        help="re-pin the cached-result schema fingerprint (after a "
        "deliberate CACHE_FORMAT bump) and exit",
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
        "--update-effects-baseline",
        action="store_true",
        help="rewrite the checked-in R016 fingerprint-purity baseline "
        "(src/repro/devtools/effects_baseline.txt) to the current "
        "impurity set and exit",
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
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="parallelize semantic summarization over N worker "
        "processes (default: serial; findings are byte-identical "
        "either way)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="AST-based invariant checker for the repro tree "
        "(determinism, cache-schema drift, layering, ...)",
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

    if args.update_cache_schema:
        from repro.devtools.rules.cache_schema import write_pin

        try:
            pin = write_pin(root or find_root(Path.cwd()))
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"re-pinned cache schema at {pin}")
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

    if getattr(args, "update_effects_baseline", False):
        from repro.devtools.semantic.effects import update_baseline

        project_out = []
        lint_paths(
            args.paths,
            root=root,
            select=[],
            semantic_cache=not args.no_semantic_cache,
            jobs=args.jobs,
            _project_out=project_out,
        )
        baseline_path, entries = update_baseline(project_out[0])
        print(
            f"re-pinned effects baseline at {baseline_path} "
            f"({len(entries)} entr{'y' if len(entries) == 1 else 'ies'})"
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
            jobs=args.jobs,
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
