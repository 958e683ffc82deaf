"""R012 unit-confusion: flow-sensitive unit inference over the quantity algebra.

The simulator's fidelity rests on a small dimensional algebra: cycles,
DRAM lines, bytes, instructions, wall-clock time, and the dimensionless
ratios derived from them (IPC = inst/cycle, BW as a fraction of peak,
CMR, EB = BW/CMR).  This pass assigns a *unit* to every expression it
can, by propagating from three seed sources:

* ``typing.Annotated`` aliases from :mod:`repro.units` on parameters,
  returns, dataclass fields and ``self.x: Cycles = ...`` declarations
  (harvested into each :class:`FileSummary`'s ``unit_sigs`` and resolved
  cross-module through the :class:`ProjectGraph` import maps);
* name conventions (``*_cycles``, ``*_bw``, ``*_frac``, ...) as a weak
  fallback where no annotation exists;
* a table of known external signatures (``time.perf_counter`` is wall
  seconds).

Units flow through assignments, arithmetic, calls (annotated return
types, including constructors — a value of a known class exposes that
class's annotated attribute units) and containers (``list[Cycles]``
elements survive ``sum``/iteration/indexing).  The algebra:

* ``+``/``-``/comparisons require the same dimensions — ``Cycles +
  WallSeconds``, ``Bytes + Lines`` or ``FractionOfPeak > LinesPerCycle``
  is an **error** (R012; cross-clock mixes are reported as R013 by
  :mod:`repro.devtools.semantic.clockdomains`);
* ``*`` and ``/`` *derive* compound units — the conversion table is the
  dimension arithmetic itself (``Lines * BytesPerLine -> Bytes``,
  ``Lines / Cycles -> LinesPerCycle``, ``Insts / Cycles -> Ipc``);
* numeric literals adapt to either side; an unknown operand silences
  the check (the pass under-approximates: it never guesses).

``FractionOfPeak`` is dimensionless with a tag: it mixes freely with
other dimensionless ratios (so ``bw / cmr`` stays consistent with the
conservation identity ``bw * cycles * peak == dram_lines``) but can
never be added to or compared against any *dimensioned* quantity.

Scope: only modules under :data:`UNIT_SCOPE` are checked — the layers
that own the paper's arithmetic — so unrelated code can use these
variable names freely.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.devtools.findings import Finding, Severity
from repro.devtools.registry import LintRule, register
from repro.devtools.semantic.graph import ProjectGraph, graph_for_project
from repro.devtools.semantic.summary import MODULE_UNIT

if TYPE_CHECKING:  # pragma: no cover
    from repro.devtools.context import ProjectContext

__all__ = [
    "ANALYSIS_VERSION",
    "UNIT_SCOPE",
    "Unit",
    "UnitConfusionRule",
    "units_analysis",
    "units_graph_doc",
]

#: Version of the unit-inference pass, published as the ``version``
#: field of ``units_graph.json``.
ANALYSIS_VERSION = 1

#: Module prefixes whose files are unit-checked.
UNIT_SCOPE = ("repro.sim", "repro.metrics", "repro.core", "repro.obs")


# --------------------------------------------------------------------------
# The unit algebra
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Unit:
    """A product of base dimensions with integer exponents.

    ``dims`` is a sorted tuple of ``(dimension, exponent)`` pairs;
    ``frac`` tags the dimensionless fraction-of-peak family; ``scalar``
    marks a bare numeric literal (adapts to any unit under ``+``/``-``/
    comparison, acts dimensionless under ``*``/``/``).
    """

    dims: tuple[tuple[str, int], ...] = ()
    frac: bool = False
    scalar: bool = False

    def __str__(self) -> str:
        if self.scalar:
            return "number"
        if not self.dims:
            return "frac-of-peak" if self.frac else "1"
        num = [
            d if e == 1 else f"{d}^{e}" for d, e in self.dims if e > 0
        ]
        den = [
            d if e == -1 else f"{d}^{-e}" for d, e in self.dims if e < 0
        ]
        head = "·".join(num) if num else "1"
        return f"{head}/{'·'.join(den)}" if den else head


def _u(*dims: tuple[str, int], frac: bool = False) -> Unit:
    return Unit(dims=tuple(sorted(d for d in dims if d[1])), frac=frac)


SCALAR = Unit(scalar=True)
DIMLESS = _u()
FRAC_OF_PEAK = _u(frac=True)
CYCLES = _u(("cycle", 1))
WALL = _u(("wall", 1))
TICKS = _u(("tick", 1))
BYTES = _u(("byte", 1))
LINES = _u(("line", 1))
INSTS = _u(("inst", 1))

#: Annotation alias name (in :mod:`repro.units`) -> unit.
VOCAB: dict[str, Unit] = {
    "Cycles": CYCLES,
    "WholeCycles": CYCLES,
    "WallSeconds": WALL,
    "WallMicroseconds": WALL,
    "TraceTicks": TICKS,
    "Bytes": BYTES,
    "Lines": LINES,
    "Insts": INSTS,
    "Count": DIMLESS,
    "Fraction": DIMLESS,
    "FractionOfPeak": FRAC_OF_PEAK,
    "Ipc": _u(("inst", 1), ("cycle", -1)),
    "InstsPerCycle": _u(("inst", 1), ("cycle", -1)),
    "LinesPerCycle": _u(("line", 1), ("cycle", -1)),
    "BytesPerLine": _u(("byte", 1), ("line", -1)),
    "BytesPerCycle": _u(("byte", 1), ("cycle", -1)),
}

#: Exact variable/attribute names -> unit (convention fallback).
_EXACT_NAMES: dict[str, Unit] = {
    "cycles": CYCLES,
    "bw": FRAC_OF_PEAK,
    "eb": FRAC_OF_PEAK,
    "ipc": VOCAB["Ipc"],
    "cmr": DIMLESS,
    "dram_lines": LINES,
}

#: Name suffixes -> unit (convention fallback); first match wins.
_SUFFIXES: tuple[tuple[str, Unit], ...] = (
    ("_cycles", CYCLES),
    ("_latency", CYCLES),
    ("_bw", FRAC_OF_PEAK),
    ("_frac", FRAC_OF_PEAK),
    ("_eb", FRAC_OF_PEAK),
    ("_ipc", VOCAB["Ipc"]),
    ("_bytes", BYTES),
    ("_lines", LINES),
    ("_insts", INSTS),
    ("_us", WALL),
    ("_s", WALL),
)

#: External callables with known return units.
_EXTERNAL_SIGS: dict[str, Unit] = {
    "time.perf_counter": WALL,
    "time.monotonic": WALL,
    "time.time": WALL,
}


def convention_unit(name: str) -> Unit | None:
    """The unit a bare name suggests, or None."""
    unit = _EXACT_NAMES.get(name)
    if unit is not None:
        return unit
    for suffix, sunit in _SUFFIXES:
        if name.endswith(suffix) and len(name) > len(suffix):
            return sunit
    return None


def _merge_dims(a: Unit, b: Unit, sign: int) -> Unit:
    acc = dict(a.dims)
    for dim, exp in b.dims:
        acc[dim] = acc.get(dim, 0) + sign * exp
    dims = tuple(sorted((d, e) for d, e in acc.items() if e))
    frac = (a.frac or b.frac) and not dims
    return Unit(dims=dims, frac=frac)


def mul_units(a: Unit, b: Unit) -> Unit:
    if a.scalar:
        return b
    if b.scalar:
        return a
    return _merge_dims(a, b, 1)


def div_units(a: Unit, b: Unit) -> Unit:
    if b.scalar:
        return a
    if a.scalar:
        a = DIMLESS
    return _merge_dims(a, b, -1)


def compatible(a: Unit, b: Unit) -> bool:
    """May ``a`` and ``b`` meet under ``+``/``-``/comparison?"""
    return a.scalar or b.scalar or a.dims == b.dims


def clock_domains(unit: Unit) -> set[str]:
    """Which clock domains a unit touches ({'sim'}, {'wall'}, ...)."""
    domains: set[str] = set()
    for dim, _exp in unit.dims:
        if dim == "cycle":
            domains.add("sim")
        elif dim == "wall":
            domains.add("wall")
    return domains


def crosses_clock(a: Unit, b: Unit) -> bool:
    """True when an operation over ``a`` and ``b`` mixes sim cycles
    with wall-clock time (in either direction)."""
    da, db = clock_domains(a), clock_domains(b)
    return bool(({"sim"} & da and {"wall"} & db)
                or ({"wall"} & da and {"sim"} & db))


# --------------------------------------------------------------------------
# Abstract values
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class AV:
    """What the checker knows about one expression's value.

    At most one of the facets is usually set: ``unit`` for scalar
    quantities, ``elem`` for containers of quantities (the abstract
    value obtained by indexing/iterating/summing), ``cls`` for instances
    of a project class with annotated attributes (``"module.ClassName"``).
    """

    unit: Unit | None = None
    elem: "AV | None" = None
    cls: str | None = None
    is_map: bool = False


UNKNOWN = AV()

#: Container annotation heads whose single argument is the element.
_SEQ_HEADS = frozenset({
    "list", "List", "set", "Set", "frozenset", "FrozenSet",
    "Sequence", "Iterable", "Iterator", "Collection", "MutableSequence",
    "deque", "Deque",
})
_MAP_HEADS = frozenset({
    "dict", "Dict", "Mapping", "MutableMapping", "defaultdict",
    "DefaultDict", "OrderedDict",
})
_WRAP_HEADS = frozenset({"Optional", "Final", "ClassVar", "Annotated"})


def _ann_tail(node: ast.expr) -> str | None:
    """Trailing identifier of a Name/Attribute annotation head."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


# --------------------------------------------------------------------------
# The project-wide signature world
# --------------------------------------------------------------------------


class UnitWorld:
    """Resolved unit signatures for one project graph.

    Wraps the per-file ``unit_sigs`` harvested into each
    :class:`FileSummary` and resolves annotation *strings* against the
    defining module's import map: aliases from :mod:`repro.units`
    become units, project class names become attribute tables, and
    container annotations become element values.
    """

    def __init__(self, graph: ProjectGraph) -> None:
        self.graph = graph
        self._ann_cache: dict[tuple[str, str], AV] = {}
        self._cls_cache: dict[tuple[str, str], str | None] = {}

    # -- class resolution ----------------------------------------------

    def class_key(self, module: str, dotted: str) -> str | None:
        """Resolve a class name used in ``module`` to ``"mod.Cls"``."""
        memo_key = (module, dotted)
        if memo_key in self._cls_cache:
            return self._cls_cache[memo_key]
        result = self._class_key_uncached(module, dotted)
        self._cls_cache[memo_key] = result
        return result

    def _class_key_uncached(self, module: str, dotted: str) -> str | None:
        summary = self.graph.modules.get(module)
        head, _, tail = dotted.partition(".")
        # Same-module class.
        if not tail and summary is not None and head in summary.classes:
            return f"{module}.{head}"
        if summary is None or head not in summary.imports:
            return None
        target = summary.imports[head]
        dotted = f"{target}.{tail}" if tail else target
        # Chase one facade hop at most: "pkg.Cls" re-exported from
        # "pkg.impl.Cls".
        for _hop in range(4):
            owner, _, cls = dotted.rpartition(".")
            owner_summary = self.graph.modules.get(owner)
            if owner_summary is not None:
                if cls in owner_summary.classes:
                    return f"{owner}.{cls}"
                if cls in owner_summary.imports:
                    dotted = owner_summary.imports[cls]
                    continue
            return None
        return None

    # -- annotation resolution -----------------------------------------

    def ann_av(self, module: str, text: str | None) -> AV:
        """Abstract value of an annotation string in ``module``."""
        if not text:
            return UNKNOWN
        key = (module, text)
        cached = self._ann_cache.get(key)
        if cached is not None:
            return cached
        try:
            node = ast.parse(text, mode="eval").body
        except SyntaxError:
            av = UNKNOWN
        else:
            av = self._ann_node(module, node)
        self._ann_cache[key] = av
        return av

    def _ann_node(self, module: str, node: ast.expr) -> AV:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            # Quoted forward reference: re-parse the string.
            return self.ann_av(module, node.value)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            # "X | None" — take whichever side is not None.
            for side in (node.left, node.right):
                if not (isinstance(side, ast.Constant) and side.value is None):
                    return self._ann_node(module, side)
            return UNKNOWN
        if isinstance(node, ast.Subscript):
            head = _ann_tail(node.value)
            sl = node.slice
            if head in _WRAP_HEADS:
                inner = sl.elts[0] if isinstance(sl, ast.Tuple) else sl
                return self._ann_node(module, inner)
            if head in _SEQ_HEADS:
                inner = sl
                if isinstance(sl, ast.Tuple):
                    # tuple[X, ...] homogeneous; anything else: unknown.
                    if (
                        len(sl.elts) == 2
                        and isinstance(sl.elts[1], ast.Constant)
                        and sl.elts[1].value is Ellipsis
                    ):
                        inner = sl.elts[0]
                    else:
                        return UNKNOWN
                elem = self._ann_node(module, inner)
                if elem is UNKNOWN:
                    return UNKNOWN
                return AV(elem=elem)
            if head == "tuple" or head == "Tuple":
                if (
                    isinstance(sl, ast.Tuple)
                    and len(sl.elts) == 2
                    and isinstance(sl.elts[1], ast.Constant)
                    and sl.elts[1].value is Ellipsis
                ):
                    elem = self._ann_node(module, sl.elts[0])
                    if elem is not UNKNOWN:
                        return AV(elem=elem)
                return UNKNOWN
            if head in _MAP_HEADS and isinstance(sl, ast.Tuple) \
                    and len(sl.elts) == 2:
                value = self._ann_node(module, sl.elts[1])
                if value is UNKNOWN:
                    return UNKNOWN
                return AV(elem=value, is_map=True)
            return UNKNOWN
        tail = _ann_tail(node)
        if tail is None:
            return UNKNOWN
        summary = self.graph.modules.get(module)
        if summary is not None and isinstance(node, ast.Name) \
                and node.id in summary.imports:
            target = summary.imports[node.id]
            owner, _, leaf = target.rpartition(".")
            if owner == "repro.units" and leaf in VOCAB:
                return AV(unit=VOCAB[leaf])
            key = self.class_key(module, node.id)
            if key is not None:
                return AV(cls=key)
            return UNKNOWN
        if isinstance(node, ast.Attribute):
            dotted = _dotted(node)
            if dotted is not None:
                key = self.class_key(module, dotted)
                if key is not None:
                    return AV(cls=key)
        if tail in VOCAB:
            # Bare vocabulary name (unimported: fixtures, docstrings).
            return AV(unit=VOCAB[tail])
        key = self.class_key(module, tail)
        if key is not None:
            return AV(cls=key)
        return UNKNOWN

    # -- signature lookups ---------------------------------------------

    def _sigs(self, module: str) -> dict[str, Any]:
        summary = self.graph.modules.get(module)
        return summary.unit_sigs if summary is not None else {}

    def return_av(self, key: str) -> AV:
        """Declared return value of ``"module.qualname"``."""
        module, qualname = self._split_key(key)
        if module is None:
            return UNKNOWN
        sig = self._sigs(module).get("functions", {}).get(qualname)
        if sig is None:
            return UNKNOWN
        return self.ann_av(module, sig.get("returns"))

    def attr_av(self, class_key: str, attr: str) -> AV:
        """Declared (or convention) unit of ``Cls.attr``."""
        owner, _, cls = class_key.rpartition(".")
        attrs = self._sigs(owner).get("attrs", {}).get(cls, {})
        text = attrs.get(attr)
        if text is not None:
            av = self.ann_av(owner, text)
            if av is not UNKNOWN:
                return av
        unit = convention_unit(attr)
        return AV(unit=unit) if unit is not None else UNKNOWN

    def const_av(self, module: str, name: str) -> AV:
        consts = self._sigs(module).get("consts", {})
        text = consts.get(name)
        if text is None:
            return UNKNOWN
        if text == "__scalar__":
            return AV(unit=SCALAR)
        return self.ann_av(module, text)

    def _split_key(self, key: str) -> tuple[str | None, str]:
        """Split ``"module.qualname"`` on the module boundary."""
        parts = key.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            module = ".".join(parts[:cut])
            if module in self.graph.modules:
                return module, ".".join(parts[cut:])
        return None, key


def _dotted(node: ast.expr) -> str | None:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


# --------------------------------------------------------------------------
# The flow-sensitive checker
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class UnitFinding:
    """One raw finding, before rule packaging."""

    kind: str  #: "unit" (R012) or "clock" (R013)
    path: str
    line: int
    col: int
    message: str


#: Ops R012 checks for dimension equality.
_ADDITIVE = (ast.Add, ast.Sub)
#: Comparison ops that demand commensurable operands.
_ORDERED_CMP = (ast.Lt, ast.LtE, ast.Gt, ast.GtE, ast.Eq, ast.NotEq)
#: Ops R013 scans for cross-clock operands (any arithmetic counts:
#: even cycles *divided by* wall seconds needs a declared boundary).
_CLOCK_OPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv, ast.Mod)

#: Modules where cross-clock arithmetic is a *declared* conversion
#: boundary (Chrome export maps sim cycles onto the trace's µs axis:
#: 1 cycle = 1 µs).
CLOCK_BOUNDARY_MODULES = frozenset({"repro.obs.chrome"})

_OP_SYMBOL = {
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/",
    ast.FloorDiv: "//", ast.Mod: "%", ast.Lt: "<", ast.LtE: "<=",
    ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
}

#: Builtins whose result keeps the (sole) argument's unit.
_PASSTHROUGH_BUILTINS = frozenset({"float", "int", "abs", "round"})


class _Checker:
    """Walk one module's functions, tracking units per local name."""

    def __init__(self, world: UnitWorld, module: str, path: str,
                 findings: list[UnitFinding]) -> None:
        self.world = world
        self.module = module
        self.path = path
        self.findings = findings
        self.summary = world.graph.modules.get(module)
        self._qualname = ""
        self._cls: str | None = None
        self._declared_return = UNKNOWN
        self._module_env: dict[str, AV] = {}

    # -- entry ----------------------------------------------------------

    def check_module(self, tree: ast.Module) -> None:
        if self.summary is not None:
            consts = self.summary.unit_sigs.get("consts", {})
            for name in consts:
                self._module_env[name] = self.world.const_av(
                    self.module, name
                )
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.check_function(stmt, stmt.name, None)
            elif isinstance(stmt, ast.ClassDef):
                for sub in stmt.body:
                    if isinstance(sub, (ast.FunctionDef,
                                        ast.AsyncFunctionDef)):
                        self.check_function(
                            sub, f"{stmt.name}.{sub.name}", stmt.name
                        )

    def check_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef,
                       qualname: str, cls: str | None,
                       outer_env: dict[str, AV] | None = None) -> None:
        prev = (self._qualname, self._cls, self._declared_return)
        self._qualname, self._cls = qualname, cls
        env: dict[str, AV] = dict(outer_env or ())
        args = node.args
        all_args = [*args.posonlyargs, *args.args, *args.kwonlyargs]
        for i, arg in enumerate(all_args):
            if i == 0 and cls is not None and arg.arg in ("self", "cls"):
                env[arg.arg] = AV(cls=f"{self.module}.{cls}")
                continue
            av = UNKNOWN
            if arg.annotation is not None:
                av = self._ann(arg.annotation)
            if av is UNKNOWN:
                unit = convention_unit(arg.arg)
                av = AV(unit=unit) if unit is not None else UNKNOWN
            env[arg.arg] = av
        self._declared_return = (
            self._ann(node.returns) if node.returns is not None else UNKNOWN
        )
        self._exec_block(node.body, env)
        self._qualname, self._cls, self._declared_return = prev

    def _ann(self, node: ast.expr) -> AV:
        return self.world._ann_node(self.module, node)

    # -- statements -----------------------------------------------------

    def _exec_block(self, body: list[ast.stmt],
                    env: dict[str, AV]) -> None:
        for stmt in body:
            self._exec(stmt, env)

    def _exec(self, stmt: ast.stmt, env: dict[str, AV]) -> None:
        if isinstance(stmt, ast.Assign):
            value = self._eval(stmt.value, env)
            for target in stmt.targets:
                self._bind(target, value, stmt.value, env)
        elif isinstance(stmt, ast.AnnAssign):
            declared = self._ann(stmt.annotation)
            if stmt.value is not None:
                value = self._eval(stmt.value, env)
                self._check_store(declared, value, stmt.value)
            if isinstance(stmt.target, ast.Name):
                env[stmt.target.id] = (
                    declared if declared is not UNKNOWN else UNKNOWN
                )
        elif isinstance(stmt, ast.AugAssign):
            target_av = self._eval(stmt.target, env)
            value = self._eval(stmt.value, env)
            result = self._combine(stmt.op, target_av, value, stmt)
            if isinstance(stmt.target, ast.Name):
                env[stmt.target.id] = result
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                value = self._eval(stmt.value, env)
                self._check_store(self._declared_return, value, stmt.value)
        elif isinstance(stmt, ast.Expr):
            self._eval(stmt.value, env)
        elif isinstance(stmt, ast.If):
            self._eval(stmt.test, env)
            then_env, else_env = dict(env), dict(env)
            self._exec_block(stmt.body, then_env)
            self._exec_block(stmt.orelse, else_env)
            self._merge_into(env, then_env, else_env)
        elif isinstance(stmt, ast.For):
            iter_av = self._eval(stmt.iter, env)
            body_env = dict(env)
            elem = UNKNOWN
            if iter_av.elem is not None and not iter_av.is_map:
                elem = iter_av.elem
            self._bind(stmt.target, elem, None, body_env)
            self._exec_block(stmt.body, body_env)
            self._exec_block(stmt.orelse, body_env)
            self._merge_into(env, env, body_env)
        elif isinstance(stmt, ast.While):
            self._eval(stmt.test, env)
            body_env = dict(env)
            self._exec_block(stmt.body, body_env)
            self._exec_block(stmt.orelse, body_env)
            self._merge_into(env, env, body_env)
        elif isinstance(stmt, ast.With):
            for item in stmt.items:
                self._eval(item.context_expr, env)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, UNKNOWN, None, env)
            self._exec_block(stmt.body, env)
        elif isinstance(stmt, ast.Try):
            body_env = dict(env)
            self._exec_block(stmt.body, body_env)
            handler_envs = []
            for handler in stmt.handlers:
                h_env = dict(env)
                if handler.name:
                    h_env[handler.name] = UNKNOWN
                self._exec_block(handler.body, h_env)
                handler_envs.append(h_env)
            self._exec_block(stmt.orelse, body_env)
            for h_env in handler_envs:
                self._merge_into(body_env, body_env, h_env)
            env.clear()
            env.update(body_env)
            self._exec_block(stmt.finalbody, env)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self.check_function(
                stmt, f"{self._qualname}.{stmt.name}", self._cls,
                outer_env=env,
            )
        elif isinstance(stmt, ast.Assert):
            self._eval(stmt.test, env)
            if stmt.msg is not None:
                self._eval(stmt.msg, env)
        elif isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self._eval(stmt.exc, env)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    env.pop(target.id, None)
        # Pass/Break/Continue/Import/Global/Nonlocal/ClassDef: nothing
        # to track (nested classes are out of the v1 scope).

    def _bind(self, target: ast.expr, value: AV,
              value_node: ast.expr | None, env: dict[str, AV]) -> None:
        if isinstance(target, ast.Name):
            env[target.id] = value
        elif isinstance(target, (ast.Tuple, ast.List)):
            if (
                value_node is not None
                and isinstance(value_node, ast.Tuple)
                and len(value_node.elts) == len(target.elts)
            ):
                for t, v in zip(target.elts, value_node.elts):
                    self._bind(t, self._eval(v, env), v, env)
            else:
                elem = value.elem if value.elem is not None else UNKNOWN
                for t in target.elts:
                    self._bind(t, elem, None, env)
        elif isinstance(target, ast.Attribute):
            declared = self._attr_declared(target, env)
            if declared is not UNKNOWN and value_node is not None:
                self._check_store(declared, value, value_node)
        elif isinstance(target, ast.Starred):
            self._bind(target.value, UNKNOWN, None, env)
        # Subscript stores: untyped, nothing to check.

    def _attr_declared(self, node: ast.Attribute,
                       env: dict[str, AV]) -> AV:
        """Declared unit of an attribute store target (``self.x = ...``)."""
        receiver = self._eval(node.value, env)
        if receiver.cls is not None:
            owner, _, cls = receiver.cls.rpartition(".")
            attrs = self.world._sigs(owner).get("attrs", {}).get(cls, {})
            text = attrs.get(node.attr)
            if text is not None:
                return self.world.ann_av(owner, text)
        return UNKNOWN

    def _merge_into(self, dest: dict[str, AV], a: dict[str, AV],
                    b: dict[str, AV]) -> None:
        merged = {
            name: av for name, av in a.items() if b.get(name) == av
        }
        dest.clear()
        dest.update(merged)

    # -- expressions ----------------------------------------------------

    def _eval(self, node: ast.expr, env: dict[str, AV]) -> AV:
        if isinstance(node, ast.Constant):
            value = node.value
            if isinstance(value, bool) or not isinstance(
                value, (int, float)
            ):
                return UNKNOWN
            return AV(unit=SCALAR)
        if isinstance(node, ast.Name):
            av = env.get(node.id)
            if av is not None and av is not UNKNOWN:
                return av
            av = self._module_env.get(node.id)
            if av is not None and av is not UNKNOWN:
                return av
            unit = convention_unit(node.id)
            return AV(unit=unit) if unit is not None else UNKNOWN
        if isinstance(node, ast.Attribute):
            return self._eval_attribute(node, env)
        if isinstance(node, ast.Call):
            return self._eval_call(node, env)
        if isinstance(node, ast.BinOp):
            left = self._eval(node.left, env)
            right = self._eval(node.right, env)
            return self._combine(node.op, left, right, node)
        if isinstance(node, ast.UnaryOp):
            operand = self._eval(node.operand, env)
            if isinstance(node.op, (ast.USub, ast.UAdd)):
                return operand
            return UNKNOWN
        if isinstance(node, ast.Compare):
            left = self._eval(node.left, env)
            for op, comparator in zip(node.ops, node.comparators):
                right = self._eval(comparator, env)
                if isinstance(op, _ORDERED_CMP):
                    self._check_pair(op, left, right, node)
                left = right
            return UNKNOWN
        if isinstance(node, ast.BoolOp):
            avs = [self._eval(v, env) for v in node.values]
            return self._join(avs)
        if isinstance(node, ast.IfExp):
            self._eval(node.test, env)
            return self._join([
                self._eval(node.body, env), self._eval(node.orelse, env)
            ])
        if isinstance(node, ast.Subscript):
            value = self._eval(node.value, env)
            if isinstance(node.slice, ast.Slice):
                for part in (node.slice.lower, node.slice.upper,
                             node.slice.step):
                    if part is not None:
                        self._eval(part, env)
                # A slice of a container is the same kind of container.
                return value if value.elem is not None else UNKNOWN
            self._eval(node.slice, env)
            return value.elem if value.elem is not None else UNKNOWN
        if isinstance(node, (ast.List, ast.Set, ast.Tuple)):
            elems = [self._eval(e, env) for e in node.elts]
            uniform = self._uniform(elems)
            return AV(elem=uniform) if uniform is not None else UNKNOWN
        if isinstance(node, ast.Dict):
            for key in node.keys:
                if key is not None:
                    self._eval(key, env)
            values = [self._eval(v, env) for v in node.values]
            uniform = self._uniform(values)
            if uniform is not None:
                return AV(elem=uniform, is_map=True)
            return UNKNOWN
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            comp_env = dict(env)
            self._exec_comprehensions(node.generators, comp_env)
            elt = self._eval(node.elt, comp_env)
            if elt is not UNKNOWN:
                return AV(elem=elt)
            return UNKNOWN
        if isinstance(node, ast.DictComp):
            comp_env = dict(env)
            self._exec_comprehensions(node.generators, comp_env)
            self._eval(node.key, comp_env)
            value = self._eval(node.value, comp_env)
            if value is not UNKNOWN:
                return AV(elem=value, is_map=True)
            return UNKNOWN
        if isinstance(node, ast.NamedExpr):
            value = self._eval(node.value, env)
            if isinstance(node.target, ast.Name):
                env[node.target.id] = value
            return value
        if isinstance(node, ast.Starred):
            return self._eval(node.value, env)
        if isinstance(node, ast.JoinedStr):
            for part in node.values:
                if isinstance(part, ast.FormattedValue):
                    self._eval(part.value, env)
            return UNKNOWN
        if isinstance(node, ast.Lambda):
            lam_env = dict(env)
            for arg in node.args.args:
                lam_env[arg.arg] = UNKNOWN
            self._eval(node.body, lam_env)
            return UNKNOWN
        if isinstance(node, (ast.Await, ast.YieldFrom)):
            self._eval(node.value, env)
            return UNKNOWN
        if isinstance(node, ast.Yield):
            if node.value is not None:
                self._eval(node.value, env)
            return UNKNOWN
        return UNKNOWN

    def _exec_comprehensions(self, generators: list[ast.comprehension],
                             env: dict[str, AV]) -> None:
        for gen in generators:
            iter_av = self._eval(gen.iter, env)
            elem = UNKNOWN
            if iter_av.elem is not None and not iter_av.is_map:
                elem = iter_av.elem
            self._bind(gen.target, elem, None, env)
            for cond in gen.ifs:
                self._eval(cond, env)

    def _eval_attribute(self, node: ast.Attribute,
                        env: dict[str, AV]) -> AV:
        # Module-level name accessed through an imported module alias?
        if isinstance(node.value, ast.Name) and self.summary is not None:
            target = self.summary.imports.get(node.value.id)
            if target is not None and target in self.world.graph.modules \
                    and node.value.id not in env:
                av = self.world.const_av(target, node.attr)
                if av is not UNKNOWN:
                    return av
        receiver = self._eval(node.value, env)
        if receiver.cls is not None:
            return self.world.attr_av(receiver.cls, node.attr)
        unit = convention_unit(node.attr)
        return AV(unit=unit) if unit is not None else UNKNOWN

    def _eval_call(self, node: ast.Call, env: dict[str, AV]) -> AV:
        arg_avs = [self._eval(a, env) for a in node.args]
        for kw in node.keywords:
            self._eval(kw.value, env)
        func = node.func
        name = _dotted(func)
        if name is None:
            if isinstance(func, (ast.Attribute, ast.Call, ast.Subscript)):
                self._eval(func, env)
            return UNKNOWN
        head, _, tail = name.partition(".")
        # Builtins with unit-transparent results.
        if not tail and head in _PASSTHROUGH_BUILTINS and arg_avs:
            return AV(unit=arg_avs[0].unit) if arg_avs[0].unit else UNKNOWN
        if not tail and head in ("min", "max"):
            if len(arg_avs) == 1:
                container = arg_avs[0]
                if container.elem is not None and not container.is_map:
                    return container.elem
                return UNKNOWN
            return self._join(arg_avs, strict=True)
        if not tail and head == "sum" and arg_avs:
            container = arg_avs[0]
            if container.elem is not None and not container.is_map:
                return container.elem
            return UNKNOWN
        if not tail and head == "len":
            return AV(unit=DIMLESS)
        # Known external signatures (time.perf_counter -> wall seconds).
        if self.summary is not None and tail:
            target = self.summary.imports.get(head)
            if target is not None:
                dotted = f"{target}.{tail}"
                if dotted in _EXTERNAL_SIGS:
                    return AV(unit=_EXTERNAL_SIGS[dotted])
        # Method call on a receiver of known class.
        if isinstance(func, ast.Attribute):
            receiver = self._eval(func.value, env)
            if receiver.cls is not None:
                return self.world.return_av(f"{receiver.cls}.{func.attr}")
        # Constructor of a project class.
        cls_key = self.world.class_key(self.module, name)
        if cls_key is not None:
            return AV(cls=cls_key)
        # Project function/method via the call graph.
        resolved = self.world.graph.resolve_call(
            self.module, self._qualname, name
        )
        if resolved is not None:
            return self.world.return_av(resolved)
        return UNKNOWN

    # -- op checking ----------------------------------------------------

    def _uniform(self, avs: list[AV]) -> AV | None:
        """The shared abstract value of a literal collection's elements,
        or None when they are unknown or disagree."""
        joined = self._join(avs)
        return joined if joined is not UNKNOWN else None

    def _join(self, avs: list[AV], strict: bool = False) -> AV:
        """Abstract value of 'one of these' (BoolOp, IfExp, min/max).

        Scalars are absorbed by a known unit; any disagreement (or, when
        ``strict`` and something is unknown) degrades to UNKNOWN.
        """
        result: AV | None = None
        for av in avs:
            if av.unit is not None and av.unit.scalar:
                continue
            if av is UNKNOWN:
                if strict:
                    return UNKNOWN
                continue
            if result is None:
                result = av
            elif result != av:
                return UNKNOWN
        return result if result is not None else UNKNOWN

    def _at_clock_boundary(self) -> bool:
        return self.module in CLOCK_BOUNDARY_MODULES

    def _report(self, kind: str, node: ast.AST, message: str) -> None:
        self.findings.append(UnitFinding(
            kind=kind,
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        ))

    def _check_store(self, declared: AV, value: AV,
                     node: ast.AST) -> None:
        """Check a store into a declared target (AnnAssign, typed
        attribute, return against the annotated return type)."""
        du, vu = declared.unit, value.unit
        if du is None or vu is None:
            return
        if crosses_clock(du, vu):
            if not self._at_clock_boundary():
                self._report(
                    "clock", node,
                    f"clock-domain mix: storing '{vu}' into a target "
                    f"declared '{du}' crosses the sim-cycle / wall-clock "
                    "boundary; convert at a declared boundary "
                    "(repro.obs.chrome) or fix the declaration",
                )
            return
        if not compatible(du, vu):
            self._report(
                "unit", node,
                f"unit confusion: storing '{vu}' into a target declared "
                f"'{du}' — the dimensions disagree (multiply/divide to "
                "convert, or fix the annotation)",
            )

    def _check_pair(self, op: ast.AST, left: AV, right: AV,
                    node: ast.AST) -> None:
        lu, ru = left.unit, right.unit
        if lu is None or ru is None:
            return
        sym = _OP_SYMBOL.get(type(op), "?")
        if crosses_clock(lu, ru):
            if not self._at_clock_boundary():
                self._report(
                    "clock", node,
                    f"clock-domain mix: '{lu}' {sym} '{ru}' combines "
                    "sim-cycle and wall-clock quantities; convert at a "
                    "declared boundary (repro.obs.chrome) or keep the "
                    "domains apart",
                )
            return
        if not compatible(lu, ru):
            self._report(
                "unit", node,
                f"unit confusion: '{lu}' {sym} '{ru}' — operands of "
                f"'{sym}' must have the same dimensions (multiply/divide "
                "to convert, e.g. lines * bytes-per-line -> bytes)",
            )

    def _combine(self, op: ast.AST, left: AV, right: AV,
                 node: ast.AST) -> AV:
        lu, ru = left.unit, right.unit
        if lu is None or ru is None:
            return UNKNOWN
        if isinstance(op, _CLOCK_OPS) and crosses_clock(lu, ru):
            if not self._at_clock_boundary():
                sym = _OP_SYMBOL.get(type(op), "?")
                self._report(
                    "clock", node,
                    f"clock-domain mix: '{lu}' {sym} '{ru}' combines "
                    "sim-cycle and wall-clock quantities; convert at a "
                    "declared boundary (repro.obs.chrome) or keep the "
                    "domains apart",
                )
            return UNKNOWN
        if isinstance(op, _ADDITIVE):
            if not compatible(lu, ru):
                sym = _OP_SYMBOL.get(type(op), "?")
                self._report(
                    "unit", node,
                    f"unit confusion: '{lu}' {sym} '{ru}' — operands of "
                    f"'{sym}' must have the same dimensions "
                    "(multiply/divide to convert, e.g. lines * "
                    "bytes-per-line -> bytes)",
                )
                return UNKNOWN
            return AV(unit=ru if lu.scalar else lu)
        if isinstance(op, ast.Mult):
            return AV(unit=mul_units(lu, ru))
        if isinstance(op, (ast.Div, ast.FloorDiv)):
            return AV(unit=div_units(lu, ru))
        if isinstance(op, ast.Mod):
            if compatible(lu, ru):
                return AV(unit=ru if lu.scalar else lu)
            return UNKNOWN
        # Pow, shifts, bitwise, matmul: no unit statement.
        return UNKNOWN


# --------------------------------------------------------------------------
# Project-level orchestration
# --------------------------------------------------------------------------


def _in_scope(module: str | None) -> bool:
    return module is not None and any(
        module == p or module.startswith(p + ".") for p in UNIT_SCOPE
    )


def units_analysis(project: "ProjectContext") -> dict[str, Any]:
    """Run (memoized) unit inference over the project's in-scope files.

    Returns ``{"findings": [UnitFinding, ...], "checked": [module, ...],
    "world": UnitWorld}`` — R012 and R013 split the findings by kind,
    and ``--graph`` dumps the world.
    """
    cached = getattr(project, "_units_analysis", None)
    if cached is not None:
        return cached
    graph = graph_for_project(project)
    world = UnitWorld(graph)
    findings: list[UnitFinding] = []
    checked: list[str] = []
    contexts = [
        ctx for ctx in project.files if _in_scope(ctx.module)
    ]
    contexts.sort(key=lambda ctx: str(ctx.relpath))
    for ctx in contexts:
        checker = _Checker(world, ctx.module, str(ctx.relpath), findings)
        checker.check_module(ctx.tree)
        checked.append(ctx.module)
    result = {"findings": findings, "checked": checked, "world": world}
    project._units_analysis = result
    return result


@register
class UnitConfusionRule(LintRule):
    id = "R012"
    name = "unit-confusion"
    rationale = (
        "bandwidth math must be dimensionally consistent: no adding "
        "cycles to seconds, bytes to lines, or comparing fractions of "
        "peak against absolute rates"
    )
    severity = Severity.ERROR

    def check_project(self, project: "ProjectContext") -> Iterator[Finding]:
        for uf in units_analysis(project)["findings"]:
            if uf.kind != "unit":
                continue
            yield Finding(
                rule=self.id, severity=self.severity, path=uf.path,
                line=uf.line, col=uf.col, message=uf.message,
            )


# --------------------------------------------------------------------------
# --graph artifact
# --------------------------------------------------------------------------


def units_graph_doc(project: "ProjectContext") -> dict[str, Any]:
    """The ``units_graph.json`` document for ``repro lint --graph``.

    Per checked module: the annotation-derived unit signatures
    (functions and class attributes, rendered as dimension formulas)
    plus coverage counts, so reviewers can see exactly which surfaces
    the checker trusts.
    """
    analysis = units_analysis(project)
    world: UnitWorld = analysis["world"]
    graph = world.graph
    modules: dict[str, Any] = {}
    total_fns = annotated_fns = 0
    for module in analysis["checked"]:
        summary = graph.modules.get(module)
        if summary is None:
            continue
        sigs = summary.unit_sigs
        fn_doc: dict[str, Any] = {}
        for qual, sig in sorted(sigs.get("functions", {}).items()):
            params = {
                p: str(av.unit)
                for p, text in sorted(sig.get("params", {}).items())
                if (av := world.ann_av(module, text)).unit is not None
            }
            ret = world.ann_av(module, sig.get("returns"))
            entry: dict[str, Any] = {}
            if params:
                entry["params"] = params
            if ret.unit is not None:
                entry["returns"] = str(ret.unit)
            elif ret.cls is not None:
                entry["returns"] = f"instance:{ret.cls}"
            if entry:
                fn_doc[qual] = entry
        cls_doc: dict[str, Any] = {}
        for cls, attrs in sorted(sigs.get("attrs", {}).items()):
            rendered = {
                a: str(av.unit)
                for a, text in sorted(attrs.items())
                if (av := world.ann_av(module, text)).unit is not None
            }
            if rendered:
                cls_doc[cls] = rendered
        n_fns = len(summary.functions.keys() - {MODULE_UNIT})
        total_fns += n_fns
        annotated_fns += len(fn_doc)
        modules[module] = {
            "functions": fn_doc,
            "classes": cls_doc,
            "functions_total": n_fns,
        }
    by_kind = {"unit": 0, "clock": 0}
    for uf in analysis["findings"]:
        by_kind[uf.kind] = by_kind.get(uf.kind, 0) + 1
    return {
        "version": ANALYSIS_VERSION,
        "vocabulary": {k: str(u) for k, u in sorted(VOCAB.items())},
        "conventions": {
            "exact": {k: str(u) for k, u in sorted(_EXACT_NAMES.items())},
            "suffixes": {s: str(u) for s, u in _SUFFIXES},
        },
        "clock_boundaries": {"modules": sorted(CLOCK_BOUNDARY_MODULES)},
        "checked_modules": analysis["checked"],
        "coverage": {
            "functions_total": total_fns,
            "functions_with_units": annotated_fns,
        },
        "findings": by_kind,
        "modules": modules,
    }
