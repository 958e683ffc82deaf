"""Per-file summaries: the one walk every lint rule reads.

A :class:`FileSummary` is everything the rules need to know about one
source file, extracted in a single pass over its tree and serializable
as plain JSON (so :class:`~repro.devtools.semantic.cache.AnalysisCache`
can key it by content hash):

* the import map (local alias -> dotted target), which the graph
  resolution chases through package facades, and the import statements
  themselves, for the layering rule (R004);
* every function/method definition, with the calls it makes, the
  function references it passes as arguments (``run_jobs(worker, ...)``,
  ``partial(f, ...)``), the module-level names it mutates, the file
  writes it performs (tagged when the path mentions ``results``), its
  effect events and its set-ordered iteration sites — plus one
  ``<module>`` unit (:data:`MODULE_UNIT`) for the code that runs at
  import time;
* the module-level *mutable* bindings (dict/list/set displays and
  constructor calls) — the state the R010 race detector cares about;
* the ``from random import X`` bindings of the module-level RNG;
* the sites the single-file rules filter: float ``==``/``!=``
  comparisons (R002), lambdas and nested defs handed to pickling calls
  (R005), ``print`` calls (R007), closures created per call and classes
  without ``__slots__`` (R008), and unannotated parameters and returns
  (R011).

This module is the one vocabulary of ambient RNG draws, clock/entropy
reads, set-ordered iteration, state mutation and file writes, and every
rule but R009 and the units pass (R012/R013) reads only these
records.  Files outside the module roots get a summary too (with no
module name), since R005 checks every file.

Resolution is deliberately deferred: a summary records ``self.foo`` and
``mod.bar`` textually; :mod:`repro.devtools.semantic.graph` resolves
them against the whole project, so editing one file never invalidates
another file's summary.
"""

from __future__ import annotations

import ast
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "FileSummary",
    "FunctionInfo",
    "MODULE_UNIT",
    "PICKLING_CALLS",
    "extract_unit_sigs",
    "iter_statements",
    "summarize_file",
]

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

#: Callee leaf name -> what it pickles to pool processes: the worker
#: (first argument), every field of a job spec, or a policy factory.
PICKLING_CALLS = {
    "run_jobs": "worker", "submit": "worker",
    "SimJob": "field", "OpenSimJob": "field",
    "register_policy": "factory",
}

# --- effect-event vocabularies (R014-R016) ---------------------------------
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


#: Record-list fields and the keys every record of each carries (the
#: rules read them as ``record[key]``); ``unordered_iters`` holds line
#: numbers instead.
_RECORD_KEYS: dict[str, frozenset[str]] = {
    "import_stmts": frozenset({"line", "col", "modules"}),
    "random_imports": frozenset({"name", "line"}),
    "float_eqs": frozenset({"line", "col", "end_line", "end_col"}),
    "pickled": frozenset({"line", "col", "call", "name"}),
    "prints": frozenset({"line", "col"}),
    "closures": frozenset({"line", "col", "kind"}),
    "unslotted": frozenset({"line", "col", "name"}),
    "untyped": frozenset({"line", "col", "qual", "missing", "returns"}),
    "calls": frozenset({"name", "line", "arg_refs"}),
    "mutations": frozenset({"target", "op", "method", "line"}),
    "writes": frozenset({"line", "col", "kind"}),
    "effects": frozenset({"kind", "source", "line"}),
}


def _fill(obj: Any, doc: dict[str, Any]) -> None:
    """Set ``obj``'s container fields from ``doc``, each copied into the
    type of its default (``TypeError``/``ValueError`` if malformed,
    including a record that is not a dict with its :data:`_RECORD_KEYS`)."""
    for name, empty in vars(obj).items():
        if name in doc and isinstance(empty, (dict, list)):
            value = type(empty)(doc[name])
            if value:  # most lists are empty: they cost no lookup
                keys = _RECORD_KEYS.get(name)
                if keys is not None:
                    for record in value:
                        if type(record) is not dict or not record.keys() >= keys:
                            raise ValueError(f"malformed {name} record")
                elif name == "unordered_iters":
                    if not all(type(line) is int for line in value):
                        raise ValueError("malformed unordered_iters line")
            setattr(obj, name, value)


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
    #: file-writing calls (see :func:`_write_of`): ``{"kind": "open" |
    #: "write_text" | "write_bytes", "line": int, "col": int}``, plus
    #: ``"results": true`` when the path expression mentions a
    #: ``results`` string or a module-level name bound to one.
    writes: list[dict[str, Any]] = field(default_factory=list)
    #: effect events: ``{"kind": "clock" | "entropy" | "env",
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
        return dict(vars(self))

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "FunctionInfo":
        info = cls(qualname=doc["qualname"], lineno=doc["lineno"])
        _fill(info, doc)
        return info


@dataclass
class FileSummary:
    """The summary of one source file.  Site records locate findings
    with ``"line"`` and ``"col"`` (0-based, as in :mod:`ast`)."""

    #: dotted module name (``repro.exec.pool``); None outside the roots
    module: str | None
    path: str  #: repo-relative path, for findings
    #: local alias -> dotted target; from-imports record the full object
    #: path (``run_jobs`` -> ``repro.exec.pool.run_jobs``), plain
    #: imports the module (``np`` -> ``numpy``).
    imports: dict[str, str] = field(default_factory=dict)
    #: absolute import statements: ``{"line", "col", "modules": [dotted,
    #: ...]}``, plus ``"type_checking": true`` under ``if TYPE_CHECKING:``;
    #: a ``from P import a, b`` has ``"modules": [P], "names": ["a", "b"]``.
    import_stmts: list[dict[str, Any]] = field(default_factory=list)
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
    #: extents of ``==``/``!=`` comparisons with a float-like operand:
    #: ``{"line", "col", "end_line", "end_col"}``.
    float_eqs: list[dict[str, Any]] = field(default_factory=list)
    #: lambdas and nested defs passed where :data:`PICKLING_CALLS` pickle
    #: them: ``{"line", "col", "call": "run_jobs", "name": "f" | None}``.
    pickled: list[dict[str, Any]] = field(default_factory=list)
    #: bare ``print(...)`` calls: ``{"line", "col"}``.
    prints: list[dict[str, Any]] = field(default_factory=list)
    #: lambdas and defs made per call of a def other than ``__init__``:
    #: ``{"line", "col", "kind": "lambda" | "nested function definition"}``.
    closures: list[dict[str, Any]] = field(default_factory=list)
    #: classes declaring neither ``__slots__`` nor
    #: ``@dataclass(slots=True)``: ``{"name", "line", "col"}``.
    unslotted: list[dict[str, Any]] = field(default_factory=list)
    #: top-level functions and methods of top-level classes with a bare
    #: parameter or return: ``{"qual": "f" | "Cls.m", "line", "col",
    #: "missing": [param, "*args", ...], "returns": bool}`` (receivers
    #: are never missing).
    untyped: list[dict[str, Any]] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        doc = dict(vars(self))
        doc["functions"] = {q: f.to_dict() for q, f in self.functions.items()}
        return doc

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "FileSummary":
        summary = cls(module=doc["module"], path=doc["path"])
        _fill(summary, doc)
        summary.functions = {
            q: FunctionInfo.from_dict(f) for q, f in summary.functions.items()
        }
        return summary


#: The fields through which statements nest: a statement, an ``except``
#: handler or a ``case`` sits only in one of these lists, never inside
#: an expression.
_BLOCK_FIELDS = frozenset({"body", "handlers", "orelse", "finalbody", "cases"})


def iter_statements(tree: ast.Module | ast.stmt) -> Iterator[ast.AST]:
    """The nodes of ``tree`` that are ``ast.mod``, ``ast.stmt``,
    ``ast.excepthandler`` or ``ast.match_case``, in :func:`ast.walk`'s
    breadth-first order, without visiting a single expression (most of
    a tree's nodes), so a scan that looks for statements walks only
    statements.
    """
    todo: deque[ast.AST] = deque([tree])
    while todo:
        node = todo.popleft()
        for name in node._fields:
            if name in _BLOCK_FIELDS:
                todo.extend(getattr(node, name))
        yield node


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


def _write_of(
    call: ast.Call, imports: dict[str, str]
) -> tuple[str, ast.expr | None] | None:
    """``(kind, path expression)`` when ``call`` writes a file, else None.

    Writes are ``path.write_text``/``write_bytes`` on any receiver, and
    a writing ``open``: ``open(path, mode)``, a module's
    ``gzip.open(path, mode)``, or a path object's ``path.open(mode)``.
    A mode that is not a string constant is assumed to write.
    """
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr in ("write_text", "write_bytes"):
        return func.attr, func.value
    if isinstance(func, ast.Name) and func.id == "open" or (
        isinstance(func, ast.Attribute) and func.attr == "open"
        and isinstance(func.value, ast.Name) and func.value.id in imports
    ):
        mode_pos, target = 1, call.args[0] if call.args else None
    elif isinstance(func, ast.Attribute) and func.attr == "open":
        mode_pos, target = 0, func.value
    else:
        return None
    mode = call.args[mode_pos] if len(call.args) > mode_pos else next(
        (kw.value for kw in call.keywords if kw.arg == "mode"), None
    )
    if mode is None or (
        isinstance(mode, ast.Constant) and isinstance(mode.value, str)
        and not _WRITE_MODE_CHARS.intersection(mode.value)
    ):
        return None  # the default "r", or a reading mode
    return "open", target


def _mentions_results(node: ast.AST, names: set[str]) -> bool:
    """Does ``node`` hold a string mentioning ``results``, or one of
    ``names``?"""
    return any(
        isinstance(sub, ast.Constant) and isinstance(sub.value, str)
        and "results" in sub.value
        or isinstance(sub, ast.Name) and sub.id in names
        for sub in ast.walk(node)
    )


def _results_names(tree: ast.Module) -> set[str]:
    """Module-level names whose value mentions ``results``, plus names
    assigned from such names (a second pass follows simple chains)."""
    tainted: set[str] = set()
    for _ in range(2):
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign):
                value, targets = stmt.value, stmt.targets
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                value, targets = stmt.value, [stmt.target]
            else:
                continue
            if _mentions_results(value, tainted):
                tainted.update(t.id for t in targets if isinstance(t, ast.Name))
    return tainted


def _is_floatlike(node: ast.expr) -> bool:
    """A float literal, ``float(...)``, or ``math``/``np``'s inf or nan
    (possibly negated)."""
    if isinstance(node, ast.UnaryOp):
        return _is_floatlike(node.operand)
    if isinstance(node, ast.Attribute) and node.attr in ("inf", "nan"):
        return getattr(node.value, "id", None) in ("math", "np", "numpy")
    return isinstance(node, ast.Constant) and isinstance(node.value, float) or (
        isinstance(node, ast.Call) and getattr(node.func, "id", None) == "float"
    )


def _has_slots(node: ast.ClassDef) -> bool:
    """True if the class declares ``__slots__`` one way or another."""
    for stmt in node.body:
        targets: list[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
        if any(isinstance(t, ast.Name) and t.id == "__slots__" for t in targets):
            return True
    # @dataclass(slots=True), possibly spelled dataclasses.dataclass
    return any(
        kw.arg == "slots" and isinstance(kw.value, ast.Constant)
        and kw.value.value is True
        for dec in node.decorator_list if isinstance(dec, ast.Call)
        for kw in dec.keywords
    )


def _site(node: ast.AST, **extra: Any) -> dict[str, Any]:
    return {"line": node.lineno, "col": node.col_offset, **extra}


def _note_untyped(
    summary: FileSummary,
    node: ast.FunctionDef | ast.AsyncFunctionDef,
    qual: str,
    is_method: bool,
) -> None:
    """Add ``node``'s :attr:`FileSummary.untyped` record, if it has one."""
    args = node.args
    params = [*args.posonlyargs, *args.args][1 if is_method else 0:]
    missing = [a.arg for a in (*params, *args.kwonlyargs) if a.annotation is None]
    for star, arg in (("*", args.vararg), ("**", args.kwarg)):
        if arg is not None and arg.annotation is None:
            missing.append(star + arg.arg)
    if missing or node.returns is None:
        summary.untyped.append(_site(
            node, qual=qual, missing=missing, returns=node.returns is not None,
        ))


def _note_class(summary: FileSummary, node: ast.ClassDef) -> None:
    if not _has_slots(node):
        summary.unslotted.append(_site(node, name=node.name))


@dataclass
class _FileSites:
    """What the walkers of one file share while extracting its summary."""

    summary: FileSummary
    class_names: set[str]
    #: names of defs made inside another def's body
    nested: set[str] = field(default_factory=set)
    #: names passed to pickling calls, kept if :attr:`nested` has them
    pickled_names: list[dict[str, Any]] = field(default_factory=list)
    #: write records with their path expressions, tagged at the end
    write_paths: list[tuple[dict, ast.expr | None]] = field(default_factory=list)
    #: lines inside ``if TYPE_CHECKING:`` blocks
    guarded: set[int] = field(default_factory=set)


#: Node classes :class:`_FunctionWalker` skips besides those with no
#: fields (contexts, operators): nothing under them reaches a handler.
_SKIPPED = frozenset({ast.Constant, ast.Name})


def _handler_for(walker: type, cls: type) -> Any:
    """What ``walker.visit`` calls for a node of class ``cls``: None for
    a skipped class, else its ``visit_*`` method or ``generic_visit``."""
    if not cls._fields or cls in _SKIPPED:
        return None
    return getattr(walker, f"visit_{cls.__name__}", walker.generic_visit)


class _FunctionWalker:
    """Collect one definition's calls/mutations/writes/effects (nested
    defs flattened into the same :class:`FunctionInfo`), and the file's
    sites in it.  ``body_of`` is the definition whose body is walked
    (None for the ``<module>`` unit).

    It visits the nodes :class:`ast.NodeVisitor` would, in its order,
    but finds each handler in a table filled once per node class."""

    #: node class -> its handler, as :func:`_handler_for` gives it (a
    #: subclass that overrides handlers needs a table of its own)
    _handlers: dict[type, Any] = {}

    def visit(self, node: ast.AST) -> None:
        cls = node.__class__
        try:
            handler = self._handlers[cls]
        except KeyError:
            handler = self._handlers[cls] = _handler_for(type(self), cls)
        if handler is not None:
            handler(self, node)

    def generic_visit(self, node: ast.AST) -> None:
        """Visit the child nodes, field by field in ``_fields`` order."""
        for name in node._fields:
            value = getattr(node, name, None)
            if isinstance(value, list):
                for item in value:
                    if isinstance(item, ast.AST):
                        self.visit(item)
            elif isinstance(value, ast.AST):
                self.visit(value)

    def __init__(
        self,
        info: FunctionInfo,
        sites: _FileSites,
        body_of: ast.FunctionDef | ast.AsyncFunctionDef | None = None,
    ) -> None:
        self.info = info
        self.sites = sites
        self.class_names = sites.class_names
        self.imports = sites.summary.imports
        #: inside some def's body (a def here is nested), and inside a
        #: body that runs per call (any def's but ``__init__``'s)
        self._in_def = body_of is not None
        self._per_call = body_of is not None and body_of.name != "__init__"
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

    def visit_If(self, node: ast.If) -> None:
        test = node.test
        if getattr(test, "id", getattr(test, "attr", None)) == "TYPE_CHECKING":
            for stmt in node.body:
                self.sites.guarded.update(
                    range(stmt.lineno, (stmt.end_lineno or stmt.lineno) + 1)
                )
        self._visit_branch(node)

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
        leaf = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if leaf == "print" and isinstance(func, ast.Name):
            self.sites.summary.prints.append(_site(node))
        elif leaf in PICKLING_CALLS:
            self._note_pickled(node, leaf)
        written = _write_of(node, self.imports)
        if written is not None:
            write = _site(node, kind=written[0])
            self.info.writes.append(write)
            self.sites.write_paths.append((write, written[1]))
        self.generic_visit(node)

    def _note_pickled(self, node: ast.Call, callee: str) -> None:
        """Record the lambdas, and the names that may be nested defs, a
        pickling call ships (positions as :data:`PICKLING_CALLS` says)."""
        role = PICKLING_CALLS[callee]
        if role == "worker":
            shipped = node.args[:1]
        elif role == "field":
            shipped = [*node.args, *(kw.value for kw in node.keywords)]
        else:
            shipped = [_factory_of(node)]
        for arg in shipped:
            if isinstance(arg, ast.Lambda):
                self.sites.summary.pickled.append(_site(arg, call=callee, name=None))
            elif isinstance(arg, ast.Name) and role != "field":
                self.sites.pickled_names.append(_site(arg, call=callee, name=arg.id))

    # -- definitions (R005, R008) --------------------------------------

    def _note_closure(self, node: ast.AST, kind: str) -> None:
        if self._per_call:
            self.sites.summary.closures.append(_site(node, kind=kind))

    def visit_FunctionDef(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        """A def inside a body: nested, and a closure if that body runs
        per call.  Fields are visited in :meth:`generic_visit`'s order."""
        if self._in_def:
            self.sites.nested.add(node.name)
        self._note_closure(node, "nested function definition")
        self.visit(node.args)
        outer = self._in_def, self._per_call
        self._in_def = True
        self._per_call = self._per_call or node.name != "__init__"
        for stmt in node.body:
            self.visit(stmt)
        self._in_def, self._per_call = outer
        for expr in node.decorator_list:
            self.visit(expr)
        if node.returns is not None:
            self.visit(node.returns)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._note_closure(node, "lambda")
        self.generic_visit(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        _note_class(self.sites.summary, node)
        self.generic_visit(node)

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        if any(
            isinstance(op, (ast.Eq, ast.NotEq))
            and (_is_floatlike(left) or _is_floatlike(right))
            for op, left, right in zip(node.ops, operands, operands[1:])
        ):
            self.sites.summary.float_eqs.append(_site(
                node, end_line=node.end_lineno, end_col=node.end_col_offset,
            ))
        self.generic_visit(node)

    def visit_header(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        """Visit what a ``def`` evaluates where it stands: its decorators
        and default arguments (the body runs only when called)."""
        args = node.args
        for expr in (*node.decorator_list, *args.defaults, *args.kw_defaults):
            if expr is not None:
                self.visit(expr)


def _factory_of(call: ast.Call) -> ast.expr | None:
    """The factory argument of a ``register_policy(name, factory)`` call."""
    if len(call.args) >= 2:
        return call.args[1]
    return next((kw.value for kw in reversed(call.keywords)
                 if kw.arg == "factory"), None)


def _note_policy(call: ast.Call, record: dict[str, Any]) -> None:
    """Add the policy name constant and the factory reference of one
    ``register_policy(name, factory)`` call to its call record."""
    factory = _factory_of(call)
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
    node: ast.FunctionDef | ast.AsyncFunctionDef, qualname: str, sites: _FileSites
) -> FunctionInfo:
    info = FunctionInfo(qualname=qualname, lineno=node.lineno)
    walker = _FunctionWalker(info, sites, body_of=node)
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
                    for inner in iter_statements(sub):
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


def summarize_file(module: str | None, path: str, tree: ast.Module) -> FileSummary:
    """Extract the :class:`FileSummary` of one parsed source file."""
    summary = FileSummary(module=module, path=path)
    summary.unit_sigs = extract_unit_sigs(tree)
    sites = _FileSites(summary, {
        n.name for n in tree.body if isinstance(n, ast.ClassDef)
    })

    for node in iter_statements(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                summary.imports[local] = alias.name
            summary.import_stmts.append(
                _site(node, modules=[alias.name for alias in node.names])
            )
        elif isinstance(node, ast.ImportFrom):
            if node.module is None or node.level:
                continue  # relative imports are not used in this tree
            names = [alias.name for alias in node.names]
            summary.import_stmts.append(
                _site(node, modules=[node.module], names=names)
            )
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
            sites.class_names.update(
                alias.asname or alias.name
                for alias in node.names
                if alias.name[:1].isupper()
            )

    module_unit = FunctionInfo(qualname=MODULE_UNIT, lineno=1)
    at_import = _FunctionWalker(module_unit, sites)
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
            info = _walk_definition(stmt, stmt.name, sites)
            summary.functions[info.qualname] = info
            _note_untyped(summary, stmt, stmt.name, False)
        elif isinstance(stmt, ast.ClassDef):
            _note_class(summary, stmt)
            for expr in (*stmt.decorator_list, *stmt.bases, *stmt.keywords):
                at_import.visit(expr)
            methods: list[str] = []
            for sub in stmt.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    methods.append(sub.name)
                    qual = f"{stmt.name}.{sub.name}"
                    summary.functions[qual] = _walk_definition(sub, qual, sites)
                    _note_untyped(summary, sub, qual, True)
                    at_import.visit_header(sub)
                else:
                    at_import.visit(sub)
            summary.classes[stmt.name] = methods

    if (
        module_unit.calls or module_unit.mutations or module_unit.writes
        or module_unit.effects or module_unit.unordered_iters
    ):
        summary.functions[MODULE_UNIT] = module_unit
    summary.pickled += [s for s in sites.pickled_names if s["name"] in sites.nested]
    for stmt in summary.import_stmts:
        if stmt["line"] in sites.guarded:
            stmt["type_checking"] = True
    if sites.write_paths:
        names = _results_names(tree)
        for write, target in sites.write_paths:
            if target is not None and _mentions_results(target, names):
                write["results"] = True
    return summary
