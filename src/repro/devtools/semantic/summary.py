"""Per-file semantic summaries: the cacheable unit of whole-program analysis.

A :class:`FileSummary` is everything the cross-file passes need to know
about one source file, extracted in a single AST walk and serializable
as plain JSON (so :class:`~repro.devtools.semantic.cache.AnalysisCache`
can key it by content hash):

* the import map (local alias -> dotted target), which the graph
  builder chases through package facades;
* every function/method definition, with the calls it makes, the
  function references it passes as arguments (``run_jobs(worker, ...)``,
  ``partial(f, ...)``), the module-level names it mutates, the file
  writes it performs, its effect events and its set-ordered iteration
  sites — plus one ``<module>`` unit (:data:`MODULE_UNIT`) for the code
  that runs at import time;
* the module-level *mutable* bindings (dict/list/set displays and
  constructor calls) — the state the R010 race detector cares about;
* the ``from random import X`` bindings of the module-level RNG.

This module is the one vocabulary of ambient RNG draws, clock/entropy
reads, set-ordered iteration, state mutation and file writes: R001,
R010 and R014–R016 all read these records and parse nothing themselves.

Resolution is deliberately deferred: a summary records ``self.foo`` and
``mod.bar`` textually; :mod:`repro.devtools.semantic.graph` resolves
them against the whole project, so editing one file never invalidates
another file's summary.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "ANALYSIS_VERSION",
    "FileSummary",
    "FunctionInfo",
    "MODULE_UNIT",
    "extract_unit_sigs",
    "summarize_file",
]

#: Version of the summary extraction itself; part of the AnalysisCache
#: key (see :mod:`repro.devtools.semantic.cache`), so changing what a
#: summary records re-summarizes every file instead of serving stale
#: cached documents.
#:
#: v3: per-function *effect events* (RNG draws tagged with stream
#: origin, wall-clock/entropy/env reads, unordered-iteration and
#: clock-dependent-control-flow context flags) for the R014–R016
#: effect-inference pass (:mod:`repro.devtools.semantic.effects`).
#:
#: v4: the ``<module>`` unit, set-ordered iteration sites,
#: ``from random import`` bindings, and ``register_policy`` name/factory
#: on call records — what R001, R010 and the policy audit read.
ANALYSIS_VERSION = 4

#: Qualname of the per-file unit holding import-time code: top-level
#: statements, class bodies, and the decorators and default arguments of
#: top-level functions and methods.
MODULE_UNIT = "<module>"

#: Methods that mutate their receiver in place (dict/list/set/deque).
_MUTATING_METHODS = frozenset({
    "append", "extend", "insert", "add", "update", "setdefault",
    "pop", "popitem", "remove", "discard", "clear",
    "appendleft", "extendleft", "__setitem__",
})

#: Constructor calls whose result is module-level mutable state.
_MUTABLE_CONSTRUCTORS = frozenset({
    "dict", "list", "set", "defaultdict", "OrderedDict", "Counter",
    "deque",
})

#: ``open`` modes that write.
_WRITE_MODE_CHARS = frozenset("wax+")

# --- effect-event vocabularies (v3, for R014-R016) -------------------------
#
# Summaries record effect *events* textually and locally, like calls:
# classification of a dotted name happens against the module's own
# import map only, and cross-function propagation is deferred to
# :mod:`repro.devtools.semantic.effects`.

#: Draw methods on ``random.Random`` / numpy ``Generator`` receivers.
_RNG_DRAW_METHODS = frozenset({
    "random", "randint", "randrange", "choice", "choices", "sample",
    "shuffle", "uniform", "triangular", "betavariate", "expovariate",
    "gammavariate", "gauss", "lognormvariate", "normalvariate",
    "vonmisesvariate", "paretovariate", "weibullvariate", "getrandbits",
    "randbytes",
    # numpy Generator draws
    "integers", "standard_normal", "normal", "poisson", "exponential",
    "permutation", "permuted", "bytes",
})

#: ``random.X`` attributes that are *not* ambient-stream use (stream
#: construction and state plumbing, vs drawing from module state).
_AMBIENT_RNG_OK = frozenset({"Random", "SystemRandom"})

#: ``numpy.random.X`` attributes that are explicit-stream constructors.
_NP_AMBIENT_RNG_OK = frozenset({
    "default_rng", "Generator", "SeedSequence", "PCG64", "Philox",
    "SFC64", "MT19937", "BitGenerator",
})

#: Wall-clock reads, by normalized dotted name.
_CLOCK_CALLS = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "time.process_time_ns", "time.localtime", "time.gmtime",
    "time.strftime", "time.ctime", "time.asctime",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

#: OS/entropy-pool reads, by normalized dotted name.
_ENTROPY_CALLS = frozenset({
    "os.urandom", "os.getrandom", "uuid.uuid1", "uuid.uuid4",
    "secrets.token_bytes", "secrets.token_hex", "secrets.token_urlsafe",
    "secrets.randbelow", "secrets.randbits", "secrets.choice",
})

#: Constructors/methods whose result iterates in hash order.
_UNORDERED_CONSTRUCTORS = frozenset({"set", "frozenset"})
_UNORDERED_METHODS = frozenset({
    "intersection", "union", "difference", "symmetric_difference",
})

#: Bound-draw naming convention: a call like ``self._random()`` whose
#: leaf strips to one of these is treated as a draw on an explicit
#: stream bound elsewhere (``self._random = rng.random``).
_BOUND_DRAW_LEAVES = frozenset({
    "random", "randrange", "randint", "rand", "getrandbits",
})


def _ambient_kind(norm: str) -> str | None:
    """``"clock"`` / ``"entropy"`` / ``"env"`` for a normalized dotted
    name that reads ambient process state, else None."""
    if norm in _CLOCK_CALLS:
        return "clock"
    if norm in _ENTROPY_CALLS:
        return "entropy"
    if norm == "os.getenv" or norm.startswith("os.environ"):
        return "env"
    return None


def _looks_like_rng(receiver: str) -> bool:
    """Naming convention for RNG receivers the walker cannot type
    locally (``rng`` parameters, ``self._rng`` attributes bound in
    ``__init__``): assumed to be explicitly seeded streams."""
    leaf = receiver.split(".")[-1].lstrip("_").lower()
    return leaf == "rng" or leaf.endswith("rng") or leaf == "random"


@dataclass
class FunctionInfo:
    """One function or method definition, flattened.

    ``qualname`` is ``"f"`` for module-level functions and
    ``"Class.method"`` for methods.  Events from *nested* functions are
    folded into the enclosing definition: for reachability purposes the
    outer function is the unit that runs.
    """

    qualname: str
    lineno: int
    #: calls made: ``{"name": "self.push" | "mod.f" | "f", "line": int,
    #: "arg_refs": ["dotted", ...]}`` — arg_refs are Name/Attribute
    #: arguments, recorded so worker functions handed to
    #: ``run_jobs``/``submit``/``partial`` can be resolved later.
    calls: list[dict[str, Any]] = field(default_factory=list)
    #: in-place mutations of dotted targets: ``{"target": "X" | "mod.X",
    #: "op": "method" | "subscript" | "augassign" | "global-assign",
    #: "method": "append" | None, "line": int}``
    mutations: list[dict[str, Any]] = field(default_factory=list)
    #: file-writing operations: ``{"kind": "open" | "write_text" |
    #: "write_bytes", "line": int}``
    writes: list[dict[str, Any]] = field(default_factory=list)
    #: effect events (v3): ``{"kind": "clock" | "entropy" | "env",
    #: "source": "time.time", "line": int}`` and ``{"kind": "rng-draw",
    #: "stream": "seeded" | "ambient" | "system" | "attr", ...}``.
    #: Events carry ``"unordered": true`` when they fire inside
    #: set-ordered iteration and ``"clock_dep": true`` under wall-clock/
    #: env-dependent control flow; call records get the same flags.
    #: ``register_policy`` call records also carry ``"policy"`` (the
    #: name constant, or None) and ``"factory"`` (the dotted reference).
    effects: list[dict[str, Any]] = field(default_factory=list)
    #: lines of set-ordered (hash-order) iteration: ``for`` loops and
    #: comprehension generators over sets.
    unordered_iters: list[int] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        return {
            "qualname": self.qualname,
            "lineno": self.lineno,
            "calls": self.calls,
            "mutations": self.mutations,
            "writes": self.writes,
            "effects": self.effects,
            "unordered_iters": self.unordered_iters,
        }

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "FunctionInfo":
        return cls(
            qualname=doc["qualname"],
            lineno=doc["lineno"],
            calls=list(doc.get("calls", ())),
            mutations=list(doc.get("mutations", ())),
            writes=list(doc.get("writes", ())),
            effects=list(doc.get("effects", ())),
            unordered_iters=list(doc.get("unordered_iters", ())),
        )


@dataclass
class FileSummary:
    """The semantic summary of one source file."""

    module: str  #: dotted module name (``repro.exec.pool``)
    path: str  #: repo-relative path, for findings
    #: local alias -> dotted target; from-imports record the full object
    #: path (``run_jobs`` -> ``repro.exec.pool.run_jobs``), plain
    #: imports the module (``np`` -> ``numpy``).
    imports: dict[str, str] = field(default_factory=dict)
    #: module-level names bound to mutable displays/constructors.
    mutable_globals: dict[str, int] = field(default_factory=dict)
    #: qualname -> info, for every function and method in the file.
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    #: class name -> method names (for method resolution).
    classes: dict[str, list[str]] = field(default_factory=dict)
    #: annotation texts for the unit checker (see
    #: :func:`extract_unit_sigs`): ``{"functions": {qual: {"params":
    #: {name: text}, "returns": text}}, "attrs": {Cls: {attr: text}},
    #: "consts": {name: text | "__scalar__"}}``.
    unit_sigs: dict[str, Any] = field(default_factory=dict)
    #: ``from random import X`` bindings of the module-level RNG, anywhere
    #: in the file: ``{"name": "choice", "line": int}``.
    random_imports: list[dict[str, Any]] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        return {
            "module": self.module,
            "path": self.path,
            "imports": self.imports,
            "mutable_globals": self.mutable_globals,
            "functions": {q: f.to_dict() for q, f in self.functions.items()},
            "classes": self.classes,
            "unit_sigs": self.unit_sigs,
            "random_imports": self.random_imports,
        }

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "FileSummary":
        return cls(
            module=doc["module"],
            path=doc["path"],
            imports=dict(doc.get("imports", {})),
            mutable_globals=dict(doc.get("mutable_globals", {})),
            functions={
                q: FunctionInfo.from_dict(f)
                for q, f in doc.get("functions", {}).items()
            },
            classes={k: list(v) for k, v in doc.get("classes", {}).items()},
            unit_sigs=dict(doc.get("unit_sigs", {})),
            random_imports=list(doc.get("random_imports", ())),
        )


def _dotted(node: ast.expr) -> str | None:
    """``a.b.c`` as a string, for Name/Attribute chains (else None)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _is_mutable_value(value: ast.expr) -> bool:
    if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.DictComp,
                          ast.ListComp, ast.SetComp)):
        return True
    if isinstance(value, ast.Call):
        name = _dotted(value.func)
        if name is not None and name.split(".")[-1] in _MUTABLE_CONSTRUCTORS:
            return True
    return False


def _open_writes(call: ast.Call) -> bool:
    """Does this ``open(...)`` call open for writing?"""
    mode: ast.expr | None = None
    if len(call.args) >= 2:
        mode = call.args[1]
    for kw in call.keywords:
        if kw.arg == "mode":
            mode = kw.value
    if mode is None:
        return False  # default "r"
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return any(c in _WRITE_MODE_CHARS for c in mode.value)
    return True  # dynamic mode: assume it can write


class _FunctionWalker(ast.NodeVisitor):
    """Collect one definition's calls/mutations/writes/effects (nested
    defs flattened into the same :class:`FunctionInfo`)."""

    def __init__(
        self,
        info: FunctionInfo,
        class_names: set[str],
        imports: dict[str, str] | None = None,
    ) -> None:
        self.info = info
        self.class_names = class_names
        self.imports = imports or {}
        #: local name -> class name it was constructed from
        #: (``sim = Simulator(...)`` => ``{"sim": "Simulator"}``), for
        #: one-level method-call resolution.
        self._constructed: dict[str, str] = {}
        self._globals: set[str] = set()
        #: local/attr name -> RNG stream kind ("seeded" | "system") for
        #: receivers constructed in this very function.
        self._rng_locals: dict[str, str] = {}
        #: locals bound to set displays/constructors (hash-ordered).
        self._set_locals: set[str] = set()
        #: >0 while visiting code that runs per-element of set-ordered
        #: iteration / under entropy-dependent control flow.
        self._unordered = 0
        self._clock_dep = 0

    def _normalize(self, name: str) -> str:
        """Resolve the leading alias through the module's import map
        (``np.random.default_rng`` -> ``numpy.random.default_rng``,
        ``perf_counter`` -> ``time.perf_counter``)."""
        head, _, rest = name.partition(".")
        target = self.imports.get(head)
        if target is None:
            return name
        return f"{target}.{rest}" if rest else target

    # -- declarations --------------------------------------------------

    def visit_Global(self, node: ast.Global) -> None:
        self._globals.update(node.names)

    def visit_Assign(self, node: ast.Assign) -> None:
        value = node.value
        if isinstance(value, ast.Call):
            callee = _dotted(value.func)
            if callee in self.class_names:
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self._constructed[target.id] = callee
            stream = self._rng_stream_of(callee)
            if stream is not None:
                for target in node.targets:
                    dotted = _dotted(target)
                    if dotted is not None:
                        self._rng_locals[dotted] = stream
        if self._iter_is_unordered(value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self._set_locals.add(target.id)
        for target in node.targets:
            self._note_store(target)
        self.generic_visit(node)

    def _rng_stream_of(self, callee: str | None) -> str | None:
        """Stream kind when ``callee`` constructs an RNG, else None."""
        if callee is None:
            return None
        norm = self._normalize(callee)
        if norm == "random.Random":
            return "seeded"
        if norm == "random.SystemRandom":
            return "system"
        if norm.split(".")[-1] == "default_rng":
            return "seeded"
        return None

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None and isinstance(node.target, ast.Name):
            if isinstance(node.value, ast.Call):
                stream = self._rng_stream_of(_dotted(node.value.func))
                if stream is not None:
                    self._rng_locals[node.target.id] = stream
            if self._iter_is_unordered(node.value):
                self._set_locals.add(node.target.id)
        self._note_store(node.target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        target = node.target
        if isinstance(target, ast.Name) and target.id in self._globals:
            self.info.mutations.append({
                "target": target.id, "op": "augassign", "method": None,
                "line": node.lineno,
            })
        else:
            self._note_store(target)
        self.generic_visit(node)

    def _note_store(self, target: ast.expr) -> None:
        """Record stores that mutate a named container or a global."""
        if isinstance(target, ast.Subscript):
            dotted = _dotted(target.value)
            if dotted is not None and not dotted.startswith("self."):
                self.info.mutations.append({
                    "target": dotted, "op": "subscript", "method": None,
                    "line": target.lineno,
                })
        elif isinstance(target, ast.Name) and target.id in self._globals:
            self.info.mutations.append({
                "target": target.id, "op": "global-assign", "method": None,
                "line": target.lineno,
            })

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._note_store(target)
        self.generic_visit(node)

    # -- control-flow context (R015) -----------------------------------

    def _iter_is_unordered(self, node: ast.expr) -> bool:
        """Does iterating ``node`` visit elements in hash order?"""
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in self._set_locals
        if isinstance(node, ast.Call):
            name = _dotted(node.func)
            if name is None:
                return False
            leaf = name.split(".")[-1]
            return (
                leaf in _UNORDERED_CONSTRUCTORS
                or leaf in _UNORDERED_METHODS
            )
        return False

    def _test_is_entropy_dep(self, test: ast.expr) -> bool:
        """Does this branch condition read clock/env/entropy?"""
        for sub in ast.walk(test):
            if isinstance(sub, ast.Call):
                name = _dotted(sub.func)
                if name is not None and _ambient_kind(self._normalize(name)):
                    return True
            elif isinstance(sub, ast.Subscript):
                dotted = _dotted(sub.value)
                if dotted is not None and self._normalize(
                    dotted
                ).startswith("os.environ"):
                    return True
        return False

    def visit_For(self, node: ast.For | ast.AsyncFor) -> None:
        self.visit(node.iter)
        unordered = self._iter_is_unordered(node.iter)
        if unordered:
            self.info.unordered_iters.append(node.iter.lineno)
            self._unordered += 1
        for stmt in (*node.body, *node.orelse):
            self.visit(stmt)
        if unordered:
            self._unordered -= 1

    visit_AsyncFor = visit_For

    def _visit_branch(self, node: ast.If | ast.While) -> None:
        self.visit(node.test)
        clocked = self._test_is_entropy_dep(node.test)
        if clocked:
            self._clock_dep += 1
        for stmt in (*node.body, *node.orelse):
            self.visit(stmt)
        if clocked:
            self._clock_dep -= 1

    visit_If = _visit_branch
    visit_While = _visit_branch

    def _visit_comprehension(
        self,
        node: ast.ListComp | ast.SetComp | ast.GeneratorExp | ast.DictComp,
    ) -> None:
        sites = [
            gen.iter.lineno for gen in node.generators
            if self._iter_is_unordered(gen.iter)
        ]
        self.info.unordered_iters.extend(sites)
        unordered = bool(sites)
        for gen in node.generators:
            self.visit(gen.iter)
        if unordered:
            self._unordered += 1
        for gen in node.generators:
            for cond in gen.ifs:
                self.visit(cond)
        if isinstance(node, ast.DictComp):
            self.visit(node.key)
            self.visit(node.value)
        else:
            self.visit(node.elt)
        if unordered:
            self._unordered -= 1

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension
    visit_DictComp = _visit_comprehension

    # -- effect events (R014-R016) -------------------------------------

    def _note_event(self, event: dict[str, Any], line: int) -> None:
        event["line"] = line
        if self._unordered:
            event["unordered"] = True
        if self._clock_dep:
            event["clock_dep"] = True
        self.info.effects.append(event)

    def _classify_effect(self, raw: str, line: int) -> None:
        """Record the effect event of one dotted call, if any."""
        norm = self._normalize(raw)
        kind = _ambient_kind(norm)
        if kind is not None:
            self._note_event({"kind": kind, "source": norm}, line)
            return
        head, _, rest = norm.partition(".")
        leaf = norm.split(".")[-1]
        if (head == "random" and rest and leaf not in _AMBIENT_RNG_OK) or (
            norm.startswith("numpy.random.") and leaf not in _NP_AMBIENT_RNG_OK
        ):
            self._note_event(
                {"kind": "rng-draw", "stream": "ambient", "source": norm},
                line,
            )
            return
        if "." in raw:
            receiver, method = raw.rsplit(".", 1)
            if method in _RNG_DRAW_METHODS:
                stream = self._rng_locals.get(receiver)
                if stream is None and _looks_like_rng(receiver):
                    stream = "attr"
                if stream is not None:
                    self._note_event(
                        {"kind": "rng-draw", "stream": stream,
                         "source": raw},
                        line,
                    )
                return
            # Bound-method convention: ``self._random()`` where the
            # draw method was bound off an explicit stream elsewhere.
            if (
                method.startswith("_")
                and method.lstrip("_") in _BOUND_DRAW_LEAVES
            ):
                self._note_event(
                    {"kind": "rng-draw", "stream": "attr", "source": raw},
                    line,
                )

    def visit_Subscript(self, node: ast.Subscript) -> None:
        dotted = _dotted(node.value)
        if (
            dotted is not None
            and isinstance(node.ctx, ast.Load)
            and self._normalize(dotted).startswith("os.environ")
        ):
            self._note_event(
                {"kind": "env", "source": f"{self._normalize(dotted)}[...]"},
                node.lineno,
            )
        self.generic_visit(node)

    # -- calls ---------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        name = _dotted(func)
        if name is not None:
            head, _, tail = name.partition(".")
            if head in self._constructed and tail:
                name = f"{self._constructed[head]}.{tail}"
            arg_refs = []
            for arg in node.args:
                ref = _dotted(arg)
                if ref is not None:
                    arg_refs.append(ref)
            for kw in node.keywords:
                ref = _dotted(kw.value)
                if ref is not None:
                    arg_refs.append(ref)
            record: dict[str, Any] = {
                "name": name, "line": node.lineno, "arg_refs": arg_refs,
            }
            if self._unordered:
                record["unordered"] = True
            if self._clock_dep:
                record["clock_dep"] = True
            last = name.split(".")[-1]
            if last == "register_policy":
                _note_policy(node, record)
            self.info.calls.append(record)
            self._classify_effect(name, node.lineno)
            if last in _MUTATING_METHODS and "." in name:
                receiver = name.rsplit(".", 1)[0]
                if not receiver.startswith("self."):
                    self.info.mutations.append({
                        "target": receiver, "op": "method", "method": last,
                        "line": node.lineno,
                    })
            if last == "open" and _open_writes(node):
                self.info.writes.append({"kind": "open", "line": node.lineno})
            elif last in ("write_text", "write_bytes"):
                self.info.writes.append({"kind": last, "line": node.lineno})
        self.generic_visit(node)

    def visit_header(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        """Visit what a ``def`` evaluates where it stands: its decorators
        and default arguments (the body runs only when called)."""
        args = node.args
        for expr in (*node.decorator_list, *args.defaults, *args.kw_defaults):
            if expr is not None:
                self.visit(expr)


def _note_policy(call: ast.Call, record: dict[str, Any]) -> None:
    """Add the policy name constant and the factory reference of one
    ``register_policy(name, factory)`` call to its call record."""
    factory = call.args[1] if len(call.args) >= 2 else None
    for kw in call.keywords:
        if kw.arg == "factory":
            factory = kw.value
    ref = _dotted(factory) if factory is not None else None
    if ref is None:
        return  # lambdas and computed factories: R005's business
    name = call.args[0] if call.args else None
    record["policy"] = (
        name.value
        if isinstance(name, ast.Constant) and isinstance(name.value, str)
        else None
    )
    record["factory"] = ref


def _walk_definition(
    node: ast.FunctionDef | ast.AsyncFunctionDef,
    qualname: str,
    class_names: set[str],
    imports: dict[str, str] | None = None,
) -> FunctionInfo:
    info = FunctionInfo(qualname=qualname, lineno=node.lineno)
    walker = _FunctionWalker(info, class_names, imports)
    for stmt in node.body:
        walker.visit(stmt)
    return info


def _sig_of(node: ast.FunctionDef | ast.AsyncFunctionDef) -> dict[str, Any]:
    """Annotation texts of one definition (empty dict when bare)."""
    args = node.args
    params: dict[str, str] = {}
    for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
        if arg.annotation is not None:
            params[arg.arg] = ast.unparse(arg.annotation)
    sig: dict[str, Any] = {}
    if params:
        sig["params"] = params
    if node.returns is not None:
        sig["returns"] = ast.unparse(node.returns)
    return sig


def extract_unit_sigs(tree: ast.Module) -> dict[str, Any]:
    """Harvest annotation *texts* for the unit checker (R012/R013).

    Resolution is deferred exactly as for calls: the texts are matched
    against the vocabulary/import map by
    :class:`repro.devtools.semantic.units.UnitWorld`, so the summary
    stays a purely local (and cacheable) artifact.  Collected:

    * parameter/return annotations of every function and method;
    * class attribute declarations — class-body ``x: T`` fields *and*
      ``self.x: T = ...`` statements anywhere in the class's methods;
    * module-level ``NAME: T = ...`` constants, plus bare numeric
      ``NAME = 1e-12`` constants recorded as the sentinel
      ``"__scalar__"`` (they adapt to any unit, like literals).
    """
    functions: dict[str, Any] = {}
    attrs: dict[str, dict[str, str]] = {}
    consts: dict[str, str] = {}
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            sig = _sig_of(stmt)
            if sig:
                functions[stmt.name] = sig
        elif isinstance(stmt, ast.ClassDef):
            cls_attrs: dict[str, str] = {}
            for sub in stmt.body:
                if isinstance(sub, ast.AnnAssign) and isinstance(
                    sub.target, ast.Name
                ):
                    cls_attrs[sub.target.id] = ast.unparse(sub.annotation)
                elif isinstance(sub, (ast.FunctionDef,
                                      ast.AsyncFunctionDef)):
                    sig = _sig_of(sub)
                    if sig:
                        functions[f"{stmt.name}.{sub.name}"] = sig
                    for inner in ast.walk(sub):
                        if (
                            isinstance(inner, ast.AnnAssign)
                            and isinstance(inner.target, ast.Attribute)
                            and isinstance(inner.target.value, ast.Name)
                            and inner.target.value.id == "self"
                        ):
                            cls_attrs.setdefault(
                                inner.target.attr,
                                ast.unparse(inner.annotation),
                            )
            if cls_attrs:
                attrs[stmt.name] = cls_attrs
        elif isinstance(stmt, ast.AnnAssign) and isinstance(
            stmt.target, ast.Name
        ):
            consts[stmt.target.id] = ast.unparse(stmt.annotation)
        elif isinstance(stmt, ast.Assign):
            if (
                isinstance(stmt.value, ast.Constant)
                and isinstance(stmt.value.value, (int, float))
                and not isinstance(stmt.value.value, bool)
            ):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        consts[target.id] = "__scalar__"
    sigs: dict[str, Any] = {}
    if functions:
        sigs["functions"] = functions
    if attrs:
        sigs["attrs"] = attrs
    if consts:
        sigs["consts"] = consts
    return sigs


def summarize_file(module: str, path: str, tree: ast.Module) -> FileSummary:
    """Extract the :class:`FileSummary` of one parsed source file."""
    summary = FileSummary(module=module, path=path)
    summary.unit_sigs = extract_unit_sigs(tree)

    class_names: set[str] = {
        n.name for n in tree.body if isinstance(n, ast.ClassDef)
    }

    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                summary.imports[local] = alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.module is None or node.level:
                continue  # relative imports are not used in this tree
            for alias in node.names:
                if node.module == "random" and alias.name not in _AMBIENT_RNG_OK:
                    summary.random_imports.append(
                        {"name": alias.name, "line": node.lineno}
                    )
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                summary.imports[local] = f"{node.module}.{alias.name}"
            # A from-import also marks imported *classes* as resolvable
            # constructor names for one-level method resolution.
            class_names.update(
                alias.asname or alias.name
                for alias in node.names
                if alias.name[:1].isupper()
            )

    module_unit = FunctionInfo(qualname=MODULE_UNIT, lineno=1)
    at_import = _FunctionWalker(module_unit, class_names, summary.imports)
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            at_import.visit_header(stmt)
        elif not isinstance(stmt, ast.ClassDef):
            at_import.visit(stmt)
        if isinstance(stmt, ast.Assign) and _is_mutable_value(stmt.value):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    summary.mutable_globals[target.id] = stmt.lineno
        elif (
            isinstance(stmt, ast.AnnAssign)
            and stmt.value is not None
            and _is_mutable_value(stmt.value)
            and isinstance(stmt.target, ast.Name)
        ):
            summary.mutable_globals[stmt.target.id] = stmt.lineno
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info = _walk_definition(
                stmt, stmt.name, class_names, summary.imports
            )
            summary.functions[info.qualname] = info
        elif isinstance(stmt, ast.ClassDef):
            for expr in (*stmt.decorator_list, *stmt.bases, *stmt.keywords):
                at_import.visit(expr)
            methods: list[str] = []
            for sub in stmt.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    methods.append(sub.name)
                    qual = f"{stmt.name}.{sub.name}"
                    summary.functions[qual] = _walk_definition(
                        sub, qual, class_names, summary.imports
                    )
                    at_import.visit_header(sub)
                else:
                    at_import.visit(sub)
            summary.classes[stmt.name] = methods

    if (
        module_unit.calls or module_unit.mutations or module_unit.writes
        or module_unit.effects or module_unit.unordered_iters
    ):
        summary.functions[MODULE_UNIT] = module_unit
    return summary
