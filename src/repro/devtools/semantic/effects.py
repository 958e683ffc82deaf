"""R001 and R014-R016 — whole-program effect & determinism inference.

Every reproduction claim in this tree rests on bit-identical
determinism: golden fixtures, serial-vs-pooled identity, cache hits
keyed by config fingerprints.  R001 reads the summaries' *direct*
sites (ambient draws, clock/entropy reads, set-ordered iteration);
this module also infers an **effect signature** for every function in
the project and propagates it transitively over the
:class:`~repro.devtools.semantic.graph.ProjectGraph` call graph, so a
``time.time()`` buried two helpers below a seed computation is found
interprocedurally.

Effect vocabulary (:data:`EFFECT_KINDS`):

``ambient-rng``
    a draw from the process-shared ``random`` / ``numpy.random`` module
    state — unseeded from the simulation's point of view;
``seeded-rng``
    a draw from an explicit stream (``random.Random(seed)``,
    ``np.random.default_rng(seed)``, or an ``rng``-named receiver) —
    deterministic, but *draw-order sensitive*;
``clock`` / ``entropy`` / ``env``
    wall-clock reads, OS entropy-pool reads (``os.urandom``, ``uuid4``,
    ``secrets``, ``SystemRandom``), and environment reads;
``state-mutation``
    in-place mutation or rebinding of module-level state;
``fs-write``
    direct file writes.

Per-function events come from the :class:`~repro.devtools.semantic.
summary.FileSummary` layer (so they are content-hash cached, and one
vocabulary decides what counts); this module only classifies them and
joins them over resolved call edges — augmented with constructor edges
(``PBSController(...)`` reaches ``PBSController.__init__``) so policy
factories are auditable.  :func:`direct_sites` is the one classifier of
state-mutation and fs-write sites, shared with R010
(:mod:`repro.devtools.semantic.races`).

The rules gated on the summaries and the inference:

* **R001 determinism** — direct sites, no propagation: ambient-RNG
  draws and ``from random import`` bindings anywhere in ``repro.*``;
  clock/entropy reads and set-ordered iteration in the simulation
  layers.
* **R014 determinism-taint** — unseeded entropy (``ambient-rng``,
  ``clock``, ``entropy``, ``env``) transitively reaching simulation
  state (any function in ``repro.sim``/``repro.core``/
  ``repro.workloads``), a pool-worker entry point (the producers of
  ``SimResult``), or cache-key/fingerprint computation.  Findings are
  located at the entropy *source* with the full file:line witness
  chain, so one justified ``repro: noqa[R014] -- reason`` comment at
  the source silences every path through it.  ``register_policy`` factories get
  the same audit: user policies run inside the deterministic engine.
* **R015 rng-draw-order** — RNG draws (any stream) performed under
  hash-ordered ``set`` iteration or under wall-clock/env-dependent
  control flow in the simulation layers: the exact hazard the
  fold-equivalence arguments assume away.
* **R016 fingerprint-purity** — every function reachable from
  config-fingerprint / cache-key computation must infer pure; accepted
  debt lives in ``src/repro/devtools/effects_baseline.txt`` and can
  only ratchet down (``repro lint --update-effects-baseline`` re-pins
  it deliberately).

Telemetry boundary: the observability and pool plumbing
(:data:`TELEMETRY_BOUNDARY`) reads clocks and environment by design —
host-side measurement that never feeds back into simulated state.
Clock/entropy/env effects do not propagate *out* of those modules (they
remain visible on the modules' own functions in
``effects_graph.json``); everything else (draws, mutations, writes)
propagates normally.
"""

from __future__ import annotations

from collections.abc import Iterator
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.devtools.findings import Finding
from repro.devtools.registry import LintRule, register
from repro.devtools.semantic.graph import ProjectGraph, graph_for_project

if TYPE_CHECKING:  # pragma: no cover
    from repro.devtools.context import ProjectContext
    from repro.devtools.semantic.summary import FileSummary, FunctionInfo

__all__ = [
    "ANALYSIS_VERSION",
    "EFFECT_KINDS",
    "TAINT_KINDS",
    "DRAW_KINDS",
    "IMPURE_KINDS",
    "TELEMETRY_BOUNDARY",
    "BASELINE_RELPATH",
    "EffectWorld",
    "direct_sites",
    "effects_world_for",
    "effects_graph_doc",
    "validate_effects_graph",
    "update_baseline",
    "DeterminismRule",
    "EffectTaintRule",
    "DrawOrderRule",
    "FingerprintPurityRule",
]

#: Version of the effect analysis, published as the ``analysis_version``
#: field of ``effects_graph.json``.
ANALYSIS_VERSION = 1

#: kind -> one-line description (also published in effects_graph.json).
EFFECT_KINDS: dict[str, str] = {
    "ambient-rng": "draw from the shared random/np.random module state",
    "seeded-rng": "draw from an explicit seeded stream (order-sensitive)",
    "clock": "wall-clock read (time.*, datetime.now, ...)",
    "entropy": "OS entropy read (os.urandom, uuid4, secrets, SystemRandom)",
    "env": "environment read (os.environ, os.getenv)",
    "state-mutation": "in-place mutation/rebinding of module-level state",
    "fs-write": "direct file write (open-for-write, write_text/bytes)",
}

#: Unseeded-entropy kinds: the R014 taint sources.
TAINT_KINDS = frozenset({"ambient-rng", "clock", "entropy", "env"})

#: Kinds that consume an RNG stream: the R015 draw set.
DRAW_KINDS = frozenset({"ambient-rng", "seeded-rng"})

#: Kinds that make a function impure for R016 fingerprint purity.
#: (``seeded-rng`` is excluded: a seeded draw is a deterministic
#: function of the config.)
IMPURE_KINDS = frozenset({
    "ambient-rng", "clock", "entropy", "env", "state-mutation", "fs-write",
})

#: Host-side measurement/plumbing modules: clock/entropy/env read there
#: is instrumentation of the run, not input to it, and does not
#: propagate to callers.  Kept deliberately short — a module earns its
#: place here only when its entropy can never reach simulated state.
TELEMETRY_BOUNDARY = frozenset({
    "repro.exec.pool",      # worker timing, REPRO_JOBS sizing
    "repro.obs.live",       # span timing, record timestamps, heartbeats
    "repro.obs.dashboard",  # render clock
    "repro.obs.chrome",     # trace-viewer timestamps
    "repro.obs.io",         # uuid-named temp files (atomic replace)
})

#: Effect kinds stopped at the telemetry boundary.
_BOUNDARY_MASKED = frozenset({"clock", "entropy", "env"})

#: Simulation-layer module prefixes (R014 sinks, R015 scope).
_SIM_LAYERS = ("repro.sim", "repro.core", "repro.workloads")

#: Function-key suffixes that compute cache keys / fingerprints (R016
#: roots, R014 sinks).
_FINGERPRINT_SUFFIXES = (
    "._fingerprint", "._key", "._profile_key", "._scheme_key",
    "._alone_key",
)

#: Checked-in R016 accepted-impurity baseline, relative to the root.
BASELINE_RELPATH = Path("src") / "repro" / "devtools" / "effects_baseline.txt"


def _in_package(module: str, *packages: str) -> bool:
    return any(
        module == package or module.startswith(package + ".")
        for package in packages
    )


def _in_sim_layer(module: str) -> bool:
    return _in_package(module, *_SIM_LAYERS)


def _is_fingerprint_root(key: str, module: str) -> bool:
    if not module.startswith("repro."):
        return False
    return key.split(".")[-1] == "config_fingerprint" or key.endswith(
        _FINGERPRINT_SUFFIXES
    )


def _event_kind(event: dict[str, Any]) -> str | None:
    """Map a summary effect event to an effect kind."""
    kind = event.get("kind")
    if kind == "rng-draw":
        stream = event.get("stream")
        if stream == "ambient":
            return "ambient-rng"
        if stream == "system":
            return "entropy"
        return "seeded-rng"  # "seeded" | "attr"
    if kind in ("clock", "entropy", "env"):
        return kind
    return None


def _global_target(
    graph: ProjectGraph, summary: "FileSummary", target: str
) -> str | None:
    """Resolve a mutation target to the ``module.NAME`` of a module-level
    mutable binding, or ``None`` if it is only ever local state."""
    head, _, tail = target.partition(".")
    if not tail:
        if target in summary.mutable_globals:
            return f"{summary.module}.{target}"
        return None
    # ``mod.NAME`` through a plain import, one attribute deep.
    if "." in tail:
        return None
    imported = summary.imports.get(head)
    if imported is None:
        return None
    owner = graph.modules.get(imported)
    if owner is not None and tail in owner.mutable_globals:
        return f"{owner.module}.{tail}"
    return None


def direct_sites(
    graph: ProjectGraph, summary: "FileSummary", info: "FunctionInfo"
) -> list[dict[str, Any]]:
    """Every direct ``state-mutation`` and ``fs-write`` site of one unit,
    mutations first, each in summary order.

    A mutation counts when it rebinds a ``global`` (``owner`` None) or
    mutates a module-level mutable binding, here or through an import
    (``owner`` is its ``module.NAME``).  Each site carries ``kind``,
    ``line`` and ``source``; mutation sites also the summary's
    mutation record.
    """
    sites: list[dict[str, Any]] = []
    for mut in info.mutations:
        owner = None
        if mut["op"] not in ("global-assign", "augassign"):
            owner = _global_target(graph, summary, mut["target"])
            if owner is None:
                continue
        sites.append({
            "kind": "state-mutation", "line": mut["line"],
            "source": f"{mut['op']} {mut['target']}",
            "mutation": mut, "owner": owner,
        })
    for write in info.writes:
        sites.append({
            "kind": "fs-write", "line": write["line"],
            "source": write["kind"],
        })
    return sites


class EffectWorld:
    """Per-function effect signatures, joined over the call graph.

    ``effects[key]`` maps effect kind -> origin record: either a direct
    origin ``{"path", "line", "source"}`` or an inherited one
    ``{"via": callee_key, "line": callsite_line}``; following ``via``
    links with :meth:`chain` yields the file:line witness path from a
    function down to the concrete source expression.
    """

    def __init__(self, graph: ProjectGraph) -> None:
        self.graph = graph
        #: function key -> owning module
        self.module_of: dict[str, str] = {}
        #: function key -> {kind: origin record}
        self.effects: dict[str, dict[str, dict[str, Any]]] = {}
        #: function key -> its :func:`direct_sites`
        self.sites: dict[str, list[dict[str, Any]]] = {}
        #: function key -> [(callee key, callsite line, unordered,
        #: clock_dep)] — resolved calls plus constructor edges.
        self.edges: dict[str, list[tuple[str, int, bool, bool]]] = {}
        self._collect_direct()
        self._propagate()

    # -- construction ---------------------------------------------------

    def _collect_direct(self) -> None:
        graph = self.graph
        for mod in sorted(graph.modules):
            summary = graph.modules[mod]
            for qual in sorted(summary.functions):
                key = f"{mod}.{qual}"
                info = summary.functions[qual]
                self.module_of[key] = mod
                eff = self.effects.setdefault(key, {})
                for event in info.effects:
                    kind = _event_kind(event)
                    if kind is not None and kind not in eff:
                        eff[kind] = {
                            "path": summary.path,
                            "line": event["line"],
                            "source": event.get("source", kind),
                        }
                self.sites[key] = direct_sites(graph, summary, info)
                for site in self.sites[key]:
                    eff.setdefault(site["kind"], {
                        "path": summary.path,
                        "line": site["line"],
                        "source": site["source"],
                    })
                edges: list[tuple[str, int, bool, bool]] = []
                for call in info.calls:
                    callee = self._resolve(summary, mod, qual, call["name"])
                    if callee is not None:
                        edges.append((
                            callee,
                            call["line"],
                            bool(call.get("unordered")),
                            bool(call.get("clock_dep")),
                        ))
                self.edges[key] = edges

    def _resolve(
        self, summary: "FileSummary", mod: str, qual: str, name: str
    ) -> str | None:
        """Resolve one recorded call, including constructor calls
        (``C(...)`` -> ``module.C.__init__``) the shared graph skips."""
        graph = self.graph
        resolved = graph.resolve_call(mod, qual, name)
        if resolved is not None and resolved in graph.functions:
            return resolved
        if name.startswith("self."):
            return None
        head, _, tail = name.partition(".")
        candidates = [f"{mod}.{name}.__init__"]
        if not tail:
            imported = summary.imports.get(name)
            if imported is not None:
                candidates.append(f"{imported}.__init__")
        else:
            imported = summary.imports.get(head)
            if imported is not None:
                candidates.append(f"{imported}.{tail}.__init__")
        for candidate in candidates:
            if candidate in graph.functions:
                return candidate
        return None

    def _propagate(self) -> None:
        """Fixpoint: callers inherit their callees' effect kinds.

        Deterministic by construction (sorted keys, call-site order,
        first origin wins), so serial and ``--jobs`` builds — which see
        identical summaries — produce byte-identical worlds.
        """
        keys = sorted(self.edges)
        changed = True
        while changed:
            changed = False
            for key in keys:
                eff = self.effects[key]
                for callee, line, _unordered, _clock_dep in self.edges[key]:
                    callee_eff = self.effects.get(callee)
                    if not callee_eff:
                        continue
                    masked = (
                        self.module_of.get(callee) in TELEMETRY_BOUNDARY
                    )
                    for kind in callee_eff:
                        if masked and kind in _BOUNDARY_MASKED:
                            continue
                        if kind not in eff:
                            eff[kind] = {"via": callee, "line": line}
                            changed = True

    # -- queries --------------------------------------------------------

    def chain(self, key: str, kind: str) -> list[tuple[str, int, str]]:
        """Witness path ``[(path, line, function key), ...]`` from
        ``key`` down to the direct source of ``kind`` (sink first)."""
        links: list[tuple[str, int, str]] = []
        seen: set[str] = set()
        current = key
        while current not in seen:
            seen.add(current)
            origin = self.effects.get(current, {}).get(kind)
            if origin is None:
                break
            if "via" in origin:
                links.append((
                    self.graph.paths.get(current, "?"),
                    origin["line"],
                    current,
                ))
                current = origin["via"]
            else:
                links.append((origin["path"], origin["line"], current))
                break
        return links

    def has_draw(self, key: str) -> bool:
        return bool(DRAW_KINDS & self.effects.get(key, {}).keys())

    # -- rule computations ----------------------------------------------

    def taint_records(self) -> list[dict[str, Any]]:
        """R014: entropy reaching a determinism sink, deduplicated to
        one record per (source location, kind) with the most direct
        sink as witness."""
        grouped: dict[tuple[str, int, str], dict[str, Any]] = {}
        workers = self.graph.workers
        for key in sorted(self.effects):
            module = self.module_of.get(key, "")
            if module in TELEMETRY_BOUNDARY:
                continue
            if _in_sim_layer(module):
                sink_what = "simulation state"
            elif _is_fingerprint_root(key, module):
                sink_what = "cache-key/fingerprint computation"
            elif key in workers and module.startswith("repro."):
                sink_what = "a pool-worker entry point"
            else:
                continue
            eff = self.effects[key]
            for kind in sorted(TAINT_KINDS & eff.keys()):
                links = self.chain(key, kind)
                if not links:
                    continue
                src_path, src_line, _src_key = links[-1]
                source = self.effects.get(
                    links[-1][2], {}
                ).get(kind, {}).get("source", kind)
                group = grouped.get((src_path, src_line, kind))
                record = {
                    "kind": kind,
                    "source": source,
                    "path": src_path,
                    "line": src_line,
                    "sink": key,
                    "sink_what": sink_what,
                    "chain": [
                        f"{p}:{ln} {k}" for p, ln, k in links
                    ],
                    "n_sinks": 1,
                }
                if group is None:
                    grouped[(src_path, src_line, kind)] = record
                else:
                    group["n_sinks"] += 1
                    if len(links) < len(group["chain"]):
                        n = group["n_sinks"]
                        record["n_sinks"] = n
                        grouped[(src_path, src_line, kind)] = record
        return [grouped[k] for k in sorted(grouped)]

    def draw_order_records(self) -> list[dict[str, Any]]:
        """R015: draws under hash-ordered iteration or entropy-dependent
        control flow in the simulation layers."""
        records: dict[tuple[str, int], dict[str, Any]] = {}

        def note(path: str, line: int, context: str, detail: str,
                 chain: list[str]) -> None:
            records.setdefault((path, line), {
                "path": path, "line": line, "context": context,
                "detail": detail, "chain": chain,
            })

        for key in sorted(self.effects):
            module = self.module_of.get(key, "")
            if not _in_sim_layer(module):
                continue
            info = self.graph.functions.get(key)
            if info is None:
                continue
            path = self.graph.paths.get(key, "?")
            for event in info.effects:
                if _event_kind(event) not in DRAW_KINDS:
                    continue
                if event.get("unordered"):
                    note(
                        path, event["line"], "unordered",
                        f"{key} draws {event.get('source', 'rng')} while "
                        "iterating a set (hash order)",
                        [f"{path}:{event['line']} {key}"],
                    )
                elif event.get("clock_dep"):
                    note(
                        path, event["line"], "clock-dep",
                        f"{key} draws {event.get('source', 'rng')} under "
                        "wall-clock/env-dependent control flow",
                        [f"{path}:{event['line']} {key}"],
                    )
            for callee, line, unordered, clock_dep in self.edges[key]:
                if not (unordered or clock_dep):
                    continue
                if not self.has_draw(callee):
                    continue
                kind = next(
                    k for k in ("seeded-rng", "ambient-rng")
                    if k in self.effects.get(callee, {})
                )
                links = self.chain(callee, kind)
                context = "unordered" if unordered else "clock-dep"
                how = (
                    "while iterating a set (hash order)"
                    if unordered
                    else "under wall-clock/env-dependent control flow"
                )
                note(
                    path, line, context,
                    f"{key} calls {callee} {how}, and {callee} "
                    "transitively draws from an RNG",
                    [f"{path}:{line} {key}"]
                    + [f"{p}:{ln} {k}" for p, ln, k in links],
                )
        return [records[k] for k in sorted(records)]

    def purity(self) -> dict[str, Any]:
        """R016: the fingerprint frontier and its impurity entries."""
        roots = sorted(
            key for key in self.effects
            if _is_fingerprint_root(key, self.module_of.get(key, ""))
        )
        frontier: set[str] = set()
        stack = list(roots)
        while stack:
            key = stack.pop()
            if key in frontier:
                continue
            frontier.add(key)
            stack.extend(
                callee for callee, _ln, _u, _c in self.edges.get(key, ())
                if callee not in frontier
            )
        entries: dict[str, dict[str, Any]] = {}
        for key in sorted(frontier):
            eff = self.effects.get(key, {})
            for kind in sorted(IMPURE_KINDS & eff.keys()):
                links = self.chain(key, kind)
                entries[f"{key}|{kind}"] = {
                    "function": key,
                    "kind": kind,
                    "path": self.graph.paths.get(key, "?"),
                    "line": self.graph.functions[key].lineno,
                    "chain": [f"{p}:{ln} {k}" for p, ln, k in links],
                }
        return {
            "roots": roots,
            "frontier": sorted(frontier),
            "entries": entries,
        }


def effects_world_for(project: "ProjectContext") -> EffectWorld:
    """The (memoized) :class:`EffectWorld` of one lint invocation."""
    cached = getattr(project, "_effects_world", None)
    if cached is not None:
        return cached
    world = EffectWorld(graph_for_project(project))
    project._effects_world = world  # type: ignore[attr-defined]
    return world


# -- policy-factory audit ----------------------------------------------------


def policy_audit(world: EffectWorld) -> list[dict[str, Any]]:
    """Effect audit of every ``register_policy(name, factory)`` site,
    from the summaries' call records (module level or in a function),
    with the factory reference resolved through the project graph."""
    records: list[dict[str, Any]] = []
    for module, summary in world.graph.modules.items():
        for qual, info in summary.functions.items():
            for call in info.calls:
                if "factory" not in call:
                    continue
                factory_key = world._resolve(
                    summary, module, qual, call["factory"]
                )
                if factory_key is None:
                    continue
                tainted = sorted(
                    TAINT_KINDS & world.effects.get(factory_key, {}).keys()
                )
                records.append({
                    "policy": call["policy"],
                    "factory": factory_key,
                    "path": summary.path,
                    "line": call["line"],
                    "taint": tainted,
                    "chains": {
                        kind: [
                            f"{p}:{ln} {k}"
                            for p, ln, k in world.chain(factory_key, kind)
                        ]
                        for kind in tainted
                    },
                })
    records.sort(key=lambda r: (r["path"], r["line"]))
    return records


# -- R016 baseline ratchet ---------------------------------------------------

_BASELINE_HEADER = (
    "# R016 fingerprint-purity baseline: accepted impurity entries\n"
    "# (function-key|effect-kind), one per line.  The gate fails on any\n"
    "# entry NOT listed here; re-pin deliberately with\n"
    "#   repro lint --update-effects-baseline\n"
)


def _read_baseline(root: Path) -> set[str]:
    path = root / BASELINE_RELPATH
    if not path.is_file():
        return set()
    entries: set[str] = set()
    for line in path.read_text().splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            entries.add(line)
    return entries


def _write_baseline(root: Path, entries: set[str]) -> Path:
    path = root / BASELINE_RELPATH
    path.parent.mkdir(parents=True, exist_ok=True)
    body = "".join(f"{entry}\n" for entry in sorted(entries))
    path.write_text(_BASELINE_HEADER + body)
    return path


def update_baseline(project: "ProjectContext") -> tuple[Path, set[str]]:
    """Rewrite the checked-in baseline to the current impurity set."""
    world = effects_world_for(project)
    entries = set(world.purity()["entries"])
    return _write_baseline(project.root, entries), entries


# -- the rules ---------------------------------------------------------------


@register
class DeterminismRule(LintRule):
    id = "R001"
    name = "determinism"
    rationale = (
        "all randomness flows from the run seed; no wall-clock or "
        "set-order leaks into simulation state"
    )

    def check_project(self, project: "ProjectContext") -> Iterator[Finding]:
        # Library code only: tests may use ambient randomness to build
        # fixtures, and scripts may time themselves with time.time().
        graph = graph_for_project(project)
        for module, summary in sorted(graph.modules.items()):
            if not _in_package(module, "repro"):
                continue
            in_sim_layer = _in_sim_layer(module)
            for binding in summary.random_imports:
                yield self.at(
                    summary.path, binding["line"],
                    f"'from random import {binding['name']}' binds the "
                    "module-level RNG; construct a seeded random.Random "
                    "instead",
                )
            for info in summary.functions.values():
                for event in info.effects:
                    kind = _event_kind(event)
                    if kind == "ambient-rng":
                        yield self.at(
                            summary.path, event["line"],
                            f"unseeded module-level RNG call "
                            f"'{event['source']}()'; draw from a "
                            "random.Random or np.random.default_rng "
                            "seeded from the run seed",
                        )
                    elif in_sim_layer and kind in ("clock", "entropy"):
                        yield self.at(
                            summary.path, event["line"],
                            f"'{event['source']}()' reads ambient "
                            "time/entropy inside the simulation layer; "
                            "derive everything from the run seed and "
                            "simulated clock",
                        )
                if in_sim_layer:
                    for line in info.unordered_iters:
                        yield self.at(
                            summary.path, line,
                            "iterating a set: iteration order is "
                            "process-salted; sort it (or use a dict) "
                            "before it can reach simulation state",
                        )


@register
class EffectTaintRule(LintRule):
    id = "R014"
    name = "determinism-taint"
    rationale = (
        "unseeded entropy (ambient RNG, clock, os entropy, env) must "
        "not transitively reach sim state, worker entry points, cache "
        "keys, or fingerprints — found interprocedurally"
    )

    def check_project(self, project: "ProjectContext") -> Iterator[Finding]:
        world = effects_world_for(project)
        for record in world.taint_records():
            extra = (
                f" (and {record['n_sinks'] - 1} more sink(s))"
                if record["n_sinks"] > 1
                else ""
            )
            yield self.at(
                record["path"], record["line"],
                f"determinism taint: {record['source']} ({record['kind']}) "
                f"reaches {record['sink_what']} via "
                f"{' -> '.join(reversed(record['chain']))} "
                f"[sink {record['sink']}]{extra}; seed explicitly or "
                "justify with `repro: noqa[R014] -- reason`",
            )
        for record in policy_audit(world):
            for kind in record["taint"]:
                chain = record["chains"][kind]
                yield self.at(
                    record["path"], record["line"],
                    f"policy factory {record['factory']} (registered "
                    f"as {record['policy']!r}) transitively reads "
                    f"{kind} via {' -> '.join(reversed(chain))} — "
                    "policies run inside the deterministic engine",
                )


@register
class DrawOrderRule(LintRule):
    id = "R015"
    name = "rng-draw-order"
    rationale = (
        "RNG draws under set-ordered iteration or clock/env-dependent "
        "control flow reorder the stream between runs even when seeded"
    )

    def check_project(self, project: "ProjectContext") -> Iterator[Finding]:
        world = effects_world_for(project)
        for record in world.draw_order_records():
            yield self.at(
                record["path"], record["line"],
                f"rng draw-order hazard: {record['detail']} "
                f"[{' -> '.join(record['chain'])}]; iterate a "
                "sorted() view or hoist the draw out of the "
                "entropy-dependent branch",
            )


@register
class FingerprintPurityRule(LintRule):
    id = "R016"
    name = "fingerprint-purity"
    rationale = (
        "functions reachable from cache-key/fingerprint computation "
        "must infer pure; accepted debt is baselined and ratchets down"
    )

    def check_project(self, project: "ProjectContext") -> Iterator[Finding]:
        world = effects_world_for(project)
        baseline = _read_baseline(project.root)
        purity = world.purity()
        for entry in sorted(purity["entries"]):
            if entry in baseline:
                continue
            record = purity["entries"][entry]
            yield self.at(
                record["path"], record["line"],
                f"fingerprint impurity: {record['function']} is "
                "reachable from cache-key/fingerprint computation "
                f"but has effect {record['kind']} via "
                f"{' -> '.join(record['chain'])}; make it pure or "
                "re-pin with --update-effects-baseline",
            )


# -- effects_graph.json ------------------------------------------------------

#: Schema identifier of the ``--graph`` artifact.
GRAPH_SCHEMA = "repro.effects_graph/v1"


def _suppression_records(project: "ProjectContext") -> list[dict[str, Any]]:
    """Every R014-R016 noqa in the tree, with its justification (from
    the per-file maps the linter already scanned)."""
    from repro.devtools.suppressions import JUSTIFIED_RULES

    records: list[dict[str, Any]] = []
    for ctx in project.files:
        suppressions, justifications = ctx.noqa
        for lineno in sorted(suppressions):
            ids = suppressions[lineno]
            covered = sorted(
                JUSTIFIED_RULES & ids
                if "*" not in ids
                else JUSTIFIED_RULES
            )
            if "*" not in ids and not covered:
                continue
            records.append({
                "path": str(ctx.relpath),
                "line": lineno,
                "rules": sorted(ids),
                "covers": covered,
                "justification": justifications.get(lineno),
            })
    records.sort(key=lambda r: (r["path"], r["line"]))
    return records


def effects_graph_doc(project: "ProjectContext") -> dict[str, Any]:
    """The ``effects_graph.json`` document for ``repro lint --graph``."""
    world = effects_world_for(project)
    purity = world.purity()
    baseline = _read_baseline(project.root)
    entries = set(purity["entries"])
    functions: dict[str, Any] = {}
    for key in sorted(world.effects):
        eff = world.effects[key]
        if not eff:
            continue
        rendered: dict[str, Any] = {}
        for kind in sorted(eff):
            origin = eff[kind]
            if "via" in origin:
                rendered[kind] = {
                    "via": origin["via"],
                    "line": origin["line"],
                }
            else:
                rendered[kind] = {
                    "origin": f"{origin['path']}:{origin['line']}",
                    "source": origin["source"],
                }
        functions[key] = {
            "path": world.graph.paths.get(key, "?"),
            "effects": rendered,
        }
    return {
        "schema": GRAPH_SCHEMA,
        "analysis_version": ANALYSIS_VERSION,
        "vocabulary": dict(EFFECT_KINDS),
        "boundaries": sorted(TELEMETRY_BOUNDARY),
        "n_functions": len(world.effects),
        "functions": functions,
        "taint": world.taint_records(),
        "draw_order": world.draw_order_records(),
        "policies": policy_audit(world),
        "purity": {
            "roots": purity["roots"],
            "frontier": purity["frontier"],
            "impure": sorted(entries),
            "baseline": sorted(baseline),
            "new": sorted(entries - baseline),
            "stale": sorted(baseline - entries),
        },
        "suppressions": _suppression_records(project),
    }


def validate_effects_graph(doc: Any) -> list[str]:
    """Structural validation of an ``effects_graph.json`` document;
    returns a list of problems (empty when valid)."""
    problems: list[str] = []
    if not isinstance(doc, dict):
        return ["document is not an object"]
    if doc.get("schema") != GRAPH_SCHEMA:
        problems.append(f"schema is {doc.get('schema')!r}, not {GRAPH_SCHEMA}")
    for field in ("vocabulary", "functions", "purity"):
        if not isinstance(doc.get(field), dict):
            problems.append(f"missing/invalid object field {field!r}")
    for field in ("boundaries", "taint", "draw_order", "policies",
                  "suppressions"):
        if not isinstance(doc.get(field), list):
            problems.append(f"missing/invalid array field {field!r}")
    if isinstance(doc.get("vocabulary"), dict):
        missing = set(EFFECT_KINDS) - set(doc["vocabulary"])
        if missing:
            problems.append(f"vocabulary missing kinds: {sorted(missing)}")
    if isinstance(doc.get("functions"), dict):
        for key, entry in doc["functions"].items():
            if not isinstance(entry, dict) or "effects" not in entry:
                problems.append(f"functions[{key!r}] lacks effects")
                break
            for kind in entry["effects"]:
                if kind not in EFFECT_KINDS:
                    problems.append(
                        f"functions[{key!r}] has unknown kind {kind!r}"
                    )
                    break
    purity = doc.get("purity")
    if isinstance(purity, dict):
        for field in ("roots", "frontier", "impure", "baseline", "new"):
            if not isinstance(purity.get(field), list):
                problems.append(f"purity.{field} missing/invalid")
    return problems
