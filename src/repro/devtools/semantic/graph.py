"""The project import/call graph, built from cached per-file summaries.

:func:`build_graph` turns a batch of files into a
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

import hashlib
import sys
from collections.abc import Callable
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
    #: the batch's files that do not parse, with the error: left out of
    #: the graph, and reported as E999 by ``lint_paths``
    unparsed: list[tuple[FileContext, SyntaxError]] = field(default_factory=list)

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
    keep_tree: Callable[[str | None], bool] | None = None,
) -> "tuple[list[FileSummary], int, list[tuple[FileContext, SyntaxError]]]":
    """The summary of every file that parses, in batch order, cache-aware;
    the number of files summarized (an entry that fails to load is a
    miss); and the files that do not parse, with the error.

    A miss is parsed here, once, and summarized from that tree: the
    summary object goes to the graph and its document to the cache.
    The tree is then dropped unless ``keep_tree(module)`` says a rule
    reads it (no ``keep_tree`` keeps every tree); a dropped tree is
    parsed again only if something asks for it.
    """
    summaries: list[FileSummary] = []
    unparsed: list[tuple[FileContext, SyntaxError]] = []
    misses = 0
    for ctx in files:
        key = cache_key(ctx)
        if cache is not None:
            cached = _load_cached_summary(cache.get(key), ctx.module)
            if cached is not None:
                summaries.append(cached)
                continue
        try:
            tree = ctx.tree
        except SyntaxError as exc:
            unparsed.append((ctx, exc))
            continue
        summary = summarize_file(ctx.module, str(ctx.relpath), tree)
        if keep_tree is not None and not keep_tree(ctx.module):
            del ctx.tree  # empties the cached property's slot
        if cache is not None:
            cache.put(key, summary.to_dict())
        summaries.append(summary)
        misses += 1
    return summaries, misses, unparsed


def build_graph(
    files: "list[FileContext]",
    cache: AnalysisCache | None = None,
    keep_tree: Callable[[str | None], bool] | None = None,
) -> ProjectGraph:
    """Build the :class:`ProjectGraph` for a batch of files.

    Every file is summarized, but files outside the module roots (no
    layer identity) stay out of the module index and the call graph;
    test files participate so worker functions defined in tests resolve,
    but nothing forces them to.  A file that does not parse goes to
    :attr:`ProjectGraph.unparsed` instead; ``keep_tree`` is
    :func:`_summaries_for`'s.  New summaries go into ``cache`` but are
    not saved: its owner saves once, after the analyses that store
    results in it.
    """
    graph = ProjectGraph()
    graph.files, misses, graph.unparsed = _summaries_for(files, cache, keep_tree)
    for summary in graph.files:
        if summary.module is None:
            continue
        graph.modules[summary.module] = summary
        for qual, info in summary.functions.items():
            key = f"{summary.module}.{qual}"
            graph.functions[key] = info
            graph.paths[key] = summary.path
    if cache is not None:
        graph.cache_hits, graph.cache_misses = len(graph.files) - misses, misses

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
    .ProjectContext`, so the linter's pruning, the graph's summaries and
    the analyses' results share one load and one save.
    ``semantic_cache_path``,
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
    .ProjectContext`.  The build keeps the trees the project's rules
    read (:meth:`~repro.devtools.context.ProjectContext.keeps_tree`) and
    takes the files that do not parse out of ``project.files``, so the
    rules never see them.
    """
    cached = getattr(project, "_semantic_graph", None)
    if cached is not None:
        return cached
    graph = build_graph(
        project.files, analysis_cache_for(project), project.keeps_tree
    )
    if graph.unparsed:
        unparsed = {ctx for ctx, _ in graph.unparsed}
        project.files = [ctx for ctx in project.files if ctx not in unparsed]
    project._semantic_graph = graph
    return graph


def file_summaries(project: Any) -> "list[tuple[FileContext, FileSummary]]":
    """Every file of the batch with its summary, in batch order: what the
    single-file rules filter (findings go to ``ctx.relpath``)."""
    return list(zip(project.files, graph_for_project(project).files))
