"""The project import/call graph, built from cached per-file summaries.

:func:`build_graph` turns a batch of parsed files into a
:class:`ProjectGraph`: an index of every function/method in the tree,
an import graph between project modules, and a best-effort call graph.
Resolution is intentionally static and conservative:

* ``f(...)`` resolves to the same module's ``f`` or through the import
  map (chasing package-facade re-exports, so ``from repro.exec import
  run_jobs`` reaches ``repro.exec.pool.run_jobs``);
* ``self.m(...)`` resolves to the enclosing class's method;
* ``obj.m(...)`` resolves when ``obj`` was constructed from a known
  class in the same function (``sim = Simulator(...); sim.run()``) or
  when ``obj`` is an imported module;
* anything else (duck-typed receivers, dynamic dispatch) resolves to
  nothing — the analysis under-approximates the call graph rather than
  inventing edges.

The *worker* analysis rides on top: any function reference passed to
``run_jobs(...)``, ``*.submit(...)`` or ``functools.partial(...)`` at a
resolvable call site is a pool-worker entry point, and
:meth:`ProjectGraph.worker_reachable` is the transitive closure those
entry points can execute **in a worker process** — the domain the R010
race detector polices.
"""

from __future__ import annotations

import ast
import hashlib
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.devtools.semantic.cache import AnalysisCache, summary_key
from repro.devtools.semantic.summary import FileSummary, FunctionInfo, summarize_file

if TYPE_CHECKING:  # pragma: no cover
    from repro.devtools.context import FileContext

__all__ = [
    "ProjectGraph",
    "analysis_cache_for",
    "analysis_versions",
    "build_graph",
    "cache_key",
    "file_summaries",
    "graph_for_project",
]

#: Cache location relative to the project root; *not* under results/
#: (the results tree is reserved for simulation products, R006).
CACHE_RELPATH = ".lint-cache/semantic.json"

#: Call names (resolved) that take a worker function as first argument.
_WORKER_SINKS = frozenset({
    "repro.exec.pool.run_jobs",
    "repro.exec.run_jobs",
})

#: Unresolved attribute-call tails that submit work to a process pool.
_SUBMIT_TAILS = ("submit",)


@dataclass
class ProjectGraph:
    """The resolved whole-program view of one lint batch."""

    #: every file's summary, in batch order (those outside the module
    #: roots included)
    files: list[FileSummary] = field(default_factory=list)
    #: module name -> its summary
    modules: dict[str, FileSummary] = field(default_factory=dict)
    #: "module.qualname" -> FunctionInfo, for every definition
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    #: "module.qualname" -> repo-relative path (for findings)
    paths: dict[str, str] = field(default_factory=dict)
    #: resolved call edges: caller key -> {callee keys}
    calls: dict[str, set[str]] = field(default_factory=dict)
    #: worker entry points: function keys handed to a pool
    workers: set[str] = field(default_factory=set)
    #: cache statistics of the build (hits, misses)
    cache_hits: int = 0
    cache_misses: int = 0

    # -- name resolution -----------------------------------------------

    def chase(self, dotted: str, depth: int = 8) -> str | None:
        """Resolve ``dotted`` through facade re-exports to a definition.

        ``repro.exec.run_jobs`` -> ``repro.exec.pool.run_jobs`` via the
        ``repro.exec`` package summary's import map.  Returns a key of
        :attr:`functions`, a module name, or None.
        """
        seen: set[str] = set()
        while depth > 0:
            depth -= 1
            if dotted in seen:
                return None
            seen.add(dotted)
            if dotted in self.functions or dotted in self.modules:
                return dotted
            mod, _, leaf = dotted.rpartition(".")
            if not mod:
                return None
            summary = self.modules.get(mod)
            if summary is None:
                # maybe "module.Class.method" with a two-level tail
                mod2, _, cls = mod.rpartition(".")
                summary2 = self.modules.get(mod2)
                if summary2 is not None and cls in summary2.imports:
                    dotted = f"{summary2.imports[cls]}.{leaf}"
                    continue
                return None
            if leaf in summary.imports:
                dotted = summary.imports[leaf]
                continue
            return None
        return None

    def resolve_call(
        self, caller_module: str, caller_qualname: str, name: str
    ) -> str | None:
        """Resolve a recorded call name from a caller's context."""
        summary = self.modules.get(caller_module)
        if summary is None:
            return None
        if name.startswith("self."):
            cls = caller_qualname.split(".")[0]
            method = name[len("self."):]
            key = f"{caller_module}.{cls}.{method}"
            return key if key in self.functions else None
        head, _, tail = name.partition(".")
        # Same-module definition (function, or Class.method via a
        # constructor-typed local already rewritten by the summary).
        key = f"{caller_module}.{name}"
        if key in self.functions:
            return key
        if head in summary.imports:
            target = summary.imports[head]
            dotted = f"{target}.{tail}" if tail else target
            return self.chase(dotted)
        return None

    # -- worker reachability --------------------------------------------

    def callees(self, key: str) -> set[str]:
        return self.calls.get(key, set())

    def worker_reachable(self) -> set[str]:
        """Every function the pool-worker entry points can execute."""
        frontier = list(self.workers)
        reached: set[str] = set()
        while frontier:
            key = frontier.pop()
            if key in reached:
                continue
            reached.add(key)
            frontier.extend(self.callees(key) - reached)
        return reached

    # -- serialization --------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """JSON document for ``repro lint --graph``."""
        import_edges = []
        for mod, summary in sorted(self.modules.items()):
            targets = set()
            for dotted in summary.imports.values():
                if dotted in self.modules:
                    targets.add(dotted)
                else:
                    owner = dotted.rpartition(".")[0]
                    if owner in self.modules:
                        targets.add(owner)
            for target in sorted(targets):
                import_edges.append({"from": mod, "to": target})
        call_edges = [
            {"from": caller, "to": callee}
            for caller in sorted(self.calls)
            for callee in sorted(self.calls[caller])
        ]
        return {
            "modules": sorted(self.modules),
            "functions": sorted(self.functions),
            "imports": import_edges,
            "calls": call_edges,
            "workers": sorted(self.workers),
            "worker_reachable": sorted(self.worker_reachable()),
            "cache": {"hits": self.cache_hits, "misses": self.cache_misses},
        }


def _devtools_digest() -> str:
    """SHA-256 over every ``.py`` file under ``repro/devtools/`` and the
    Python minor version (which decides what parses, and how)."""
    root = Path(__file__).resolve().parents[1]
    digest = hashlib.sha256(f"{sys.version_info[0]}.{sys.version_info[1]}".encode())
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def analysis_versions() -> dict[str, Any]:
    """The fingerprint the :class:`AnalysisCache` is keyed on: a digest
    of the devtools sources and the Python minor version.  Editing the
    summary extractor or any rule changes it and discards the cache
    wholesale, so nothing is served that a previous version computed.
    """
    return {"devtools": _devtools_digest()}


def cache_key(ctx: "FileContext") -> str:
    """The cache key of a file's summary: its module name (its path,
    outside the module roots) and the digest of its source."""
    return summary_key(ctx.module or str(ctx.relpath), ctx.digest)


def _summarize_source_job(spec: tuple[str, str, str]) -> dict:
    """Pool worker: summarize one file from raw source (picklable spec
    ``(module, path, source)``; the AST cannot cross the pickle
    boundary, so workers re-parse — the parse is the cheap part)."""
    module, path, source = spec
    return summarize_file(module, path, ast.parse(source)).to_dict()


def _load_cached_summary(doc: object, module: str | None) -> FileSummary | None:
    """Deserialize one cached entry, treating anything malformed as a
    miss.

    A cache written by a crashed or concurrent run can hold entries
    that are not dicts, dicts missing required keys, or summaries for a
    different module.  Any such entry degrades to ``None`` — the file
    is re-summarized and the fresh document overwrites the bad entry on
    save — instead of crashing the lint run or, worse, silently feeding
    a partial summary to the whole-program passes.
    """
    if not isinstance(doc, dict) or doc.get("module") != module:
        return None
    try:
        return FileSummary.from_dict(doc)
    except (KeyError, TypeError, ValueError, AttributeError):
        return None


def _summaries_for(
    files: "list[FileContext]",
    cache: AnalysisCache | None,
    jobs: int | None,
) -> tuple[list[FileSummary], int]:
    """Every file's summary, in batch order, cache-aware, and the number
    of cache misses (an entry that fails to load is a miss).

    Cache misses fan out over :func:`repro.exec.run_jobs` when ``jobs``
    asks for parallelism; ``run_jobs`` preserves spec order, so the
    result (and everything derived from it) is byte-identical to the
    serial path.

    Cache discipline: workers only ever *return* summary documents —
    every ``cache.put`` happens here in the parent, and the single
    resulting :meth:`AnalysisCache.save` goes through the atomic
    temp-file + replace path.  No child process holds a cache handle,
    so a parallel run cannot interleave partial writes.
    """
    summaries: list[Any] = [None] * len(files)
    misses: list[tuple[int, "FileContext", str]] = []
    for i, ctx in enumerate(files):
        key = cache_key(ctx)
        if cache is not None:
            cached = _load_cached_summary(cache.get(key), ctx.module)
            if cached is not None:
                summaries[i] = cached
                continue
        misses.append((i, ctx, key))
    if jobs is not None and jobs != 1 and len(misses) > 1:
        from repro.exec import run_jobs

        specs = [
            (ctx.module, str(ctx.relpath), ctx.source) for _, ctx, _ in misses
        ]
        docs = run_jobs(_summarize_source_job, specs, n_jobs=jobs)
        for (i, _ctx, key), doc in zip(misses, docs):
            if cache is not None:
                cache.put(key, doc)
            summaries[i] = FileSummary.from_dict(doc)
    else:
        for i, ctx, key in misses:
            summary = summarize_file(ctx.module, str(ctx.relpath), ctx.tree)
            if cache is not None:
                cache.put(key, summary.to_dict())
            summaries[i] = summary
    return summaries, len(misses)


def build_graph(
    files: "list[FileContext]",
    cache: AnalysisCache | None = None,
    jobs: int | None = None,
) -> ProjectGraph:
    """Build the :class:`ProjectGraph` for a batch of parsed files.

    Every file is summarized, but files outside the module roots (no
    layer identity) stay out of the module index and the call graph;
    test files participate so worker functions defined in tests resolve,
    but nothing forces them to.  ``jobs`` parallelizes summarization of
    cache misses (summaries are picklable JSON); findings built from
    the graph stay byte-identical to a serial build.
    """
    graph = ProjectGraph()
    graph.files, misses = _summaries_for(files, cache, jobs)
    for summary in graph.files:
        if summary.module is None:
            continue
        graph.modules[summary.module] = summary
        for qual, info in summary.functions.items():
            key = f"{summary.module}.{qual}"
            graph.functions[key] = info
            graph.paths[key] = summary.path
    if cache is not None:
        graph.cache_hits, graph.cache_misses = len(files) - misses, misses
        cache.save()

    # Resolve call edges and worker registrations.
    for mod, summary in graph.modules.items():
        for qual, info in summary.functions.items():
            caller = f"{mod}.{qual}"
            edges = graph.calls.setdefault(caller, set())
            for call in info.calls:
                name = call["name"]
                resolved = graph.resolve_call(mod, qual, name)
                if resolved is not None and resolved in graph.functions:
                    edges.add(resolved)
                tail = name.split(".")[-1]
                is_partial = tail == "partial"
                is_sink = (
                    resolved in _WORKER_SINKS
                    or (resolved is None and tail == "run_jobs")
                    or tail in _SUBMIT_TAILS
                )
                if not (is_partial or is_sink):
                    continue
                refs = call.get("arg_refs") or []
                if not refs:
                    continue
                worker_ref = graph.resolve_call(mod, qual, refs[0])
                if worker_ref is None or worker_ref not in graph.functions:
                    continue
                if is_partial:
                    # partial(f, ...) runs f wherever the partial runs:
                    # keep it as an ordinary call edge.
                    edges.add(worker_ref)
                else:
                    graph.workers.add(worker_ref)
    return graph


def analysis_cache_for(project: Any) -> AnalysisCache | None:
    """The one :class:`AnalysisCache` of a lint invocation, loaded on
    first use and stashed on the :class:`~repro.devtools.context
    .ProjectContext`, so the linter's pruning and the graph's summaries
    share one load and one save.  ``semantic_cache_path``,
    when set before first use, overrides ``<root>/.lint-cache/``
    (``None`` disables the cache, for ``--no-semantic-cache``).
    """
    if not hasattr(project, "_analysis_cache"):
        cache_path = getattr(
            project, "semantic_cache_path", project.root / CACHE_RELPATH
        )
        project._analysis_cache = (
            AnalysisCache(cache_path, versions=analysis_versions())
            if cache_path is not None
            else None
        )
    return project._analysis_cache


def graph_for_project(project: Any) -> ProjectGraph:
    """The (memoized) :class:`ProjectGraph` of one lint invocation.

    Both project-scoped semantic rules and the ``--graph`` dump need the
    graph; building it twice would double the parse work, so the first
    caller stashes it on the :class:`~repro.devtools.context
    .ProjectContext`.
    """
    cached = getattr(project, "_semantic_graph", None)
    if cached is not None:
        return cached
    jobs = getattr(project, "semantic_jobs", None)
    graph = build_graph(project.files, analysis_cache_for(project), jobs=jobs)
    project._semantic_graph = graph
    return graph


def file_summaries(project: Any) -> "list[tuple[FileContext, FileSummary]]":
    """Every file of the batch with its summary, in batch order: what the
    single-file rules filter (findings go to ``ctx.relpath``)."""
    return list(zip(project.files, graph_for_project(project).files))
