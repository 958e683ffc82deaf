"""R009: pooled-object lifecycle verification of the engine stage machine.

The PR-4 hot path recycles :class:`~repro.sim.engine.MemTxn` and
``DRAMRequest`` objects through free-list pools.  The bug class this
enables is nasty precisely because it does not crash: a transaction
appended to its pool and then mutated (use-after-release) corrupts
whatever simulation the pool hands it to next, a transaction appended
twice (double-release) aliases two in-flight events, and a transaction
that reaches ``return`` still owned (a leak) silently degrades the pool
back to per-event allocation.  All three change EB/WS/FI numbers without
raising anything.

This module extracts the stage machine from ``repro.sim.engine`` and
verifies, per function, an abstract ownership state for every
pool-managed variable:

``OWNED`` --release--> ``RELEASED`` (``<pool>.append(v)``)
``OWNED`` --park-----> ``PARKED``   (``<deferred queue>.append(v)``)
``OWNED`` --push-----> ``PUSHED``   (``push(t, v)`` / ``heappush(.., (t, seq, v))``)
``OWNED`` --escape---> ``ESCAPED``  (passed to a call / stored away)

Violations:

* any reference to a variable in ``RELEASED``/``PARKED`` state
  (use-after-release / use-after-park, including re-dispatch);
* a release while already ``RELEASED`` (double-release) or ``PARKED``
  (park+release);
* in ``Simulator._dispatch``, a path through a *pooled* stage's branch
  that returns with the transaction still ``OWNED`` (leak);
* a pool release of a *warp-owned* transaction (the recurring
  compute/response records owned by warps must never enter the pool).

Stages are classified **pooled** vs **warp-owned** by observation, not
configuration: a stage carried by variables that originate from
``pool.pop()`` / a bare constructor is pooled; a stage only ever
attached by a constructor whose result is stored onto an owner
attribute (``warp.compute_txn = MemTxn(...)``) is warp-owned.

Receiver classification is name-based and documented: an attribute
chain ending in ``pool`` is a free-list, one containing ``deferred`` is
a backpressure parking queue, and ``push``/``heappush``/``_push`` are
event-queue pushes.  Single-level aliases (``pool = self._txn_pool``)
are followed.

The same extraction feeds ``repro lint --graph``: the declared stages,
their pooled/owned classification, and every observed stage transition
with its disposition are dumped as a JSON artifact (see
``docs/devtools.md``).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.devtools.context import ProjectContext
from repro.devtools.findings import Finding, Severity
from repro.devtools.registry import LintRule, register
from repro.devtools.semantic.cache import inputs_digest
from repro.devtools.semantic.graph import analysis_cache_for
from repro.devtools.semantic.summary import iter_statements

__all__ = ["EngineAnalysis", "analyze_engine", "LifecycleRule"]

#: The module the stage machine lives in.
ENGINE_MODULE = "repro.sim.engine"
#: The transaction class whose integer class attributes declare stages.
TXN_CLASS = "MemTxn"
#: Pool-managed constructors.
POOLED_CLASSES = ("MemTxn", "DRAMRequest")
#: The single stage-machine consumer.
DISPATCH_METHOD = "_dispatch"

_PUSH_NAMES = frozenset({"push", "heappush", "_push"})

# -- ownership states ---------------------------------------------------
_OWNED = "owned"
_RELEASED = "released"
_PARKED = "parked"
_PUSHED = "pushed"
_ESCAPED = "escaped"
#: joined from branches that disagree; tracking stops, nothing flagged
_CONFLICT = "conflict"

_DISPOSED = frozenset({_RELEASED, _PARKED, _PUSHED, _ESCAPED})


def _attr_chain(node: ast.expr) -> str | None:
    """Dotted receiver chain, looking through subscripts.

    ``self._l1_deferred[cid]`` -> ``"self._l1_deferred"``;
    ``ev._wheel[slot & mask]`` -> ``"ev._wheel"``.
    """
    parts: list[str] = []
    while True:
        if isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        elif isinstance(node, ast.Subscript):
            node = node.value
        elif isinstance(node, ast.Name):
            parts.append(node.id)
            return ".".join(reversed(parts))
        else:
            return None


@dataclass
class EngineAnalysis:
    """Everything R009 and ``--graph`` extract from the engine module."""

    #: declared stage constants: name -> integer value
    stages: dict[str, int] = field(default_factory=dict)
    #: module-level aliases: local name -> stage name
    aliases: dict[str, str] = field(default_factory=dict)
    #: stages compared against in ``_dispatch``
    handled: set[str] = field(default_factory=set)
    #: stages observed on pool-origin / freshly built transactions
    pooled: set[str] = field(default_factory=set)
    #: stages only ever attached to owner-stored constructor results
    warp_owned: set[str] = field(default_factory=set)
    #: observed transitions: {"function", "from", "to", "via", "line"}
    transitions: list[dict[str, Any]] = field(default_factory=list)
    findings: list[tuple[int, int, str]] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        """The ``--graph`` stage-machine artifact."""
        return {
            "stages": {
                name: {
                    "value": value,
                    "pooled": name in self.pooled,
                    "warp_owned": name in self.warp_owned,
                    "handled_in_dispatch": name in self.handled,
                }
                for name, value in sorted(self.stages.items())
            },
            "transitions": sorted(
                self.transitions,
                key=lambda t: (t["function"], t["line"]),
            ),
        }

    def note(self, node: ast.AST, message: str) -> None:
        self.findings.append(
            (getattr(node, "lineno", 1), getattr(node, "col_offset", 0), message)
        )


class _StageIndex:
    """Stage declarations plus recognizers for stage references."""

    def __init__(self, tree: ast.Module, analysis: EngineAnalysis) -> None:
        self.analysis = analysis
        for stmt in tree.body:
            if isinstance(stmt, ast.ClassDef) and stmt.name == TXN_CLASS:
                for sub in stmt.body:
                    if (
                        isinstance(sub, ast.Assign)
                        and len(sub.targets) == 1
                        and isinstance(sub.targets[0], ast.Name)
                        and sub.targets[0].id.isupper()
                        and isinstance(sub.value, ast.Constant)
                        and isinstance(sub.value.value, int)
                        and not isinstance(sub.value.value, bool)
                    ):
                        analysis.stages[sub.targets[0].id] = sub.value.value
        for stmt in tree.body:
            if (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and isinstance(stmt.value, ast.Attribute)
                and isinstance(stmt.value.value, ast.Name)
                and stmt.value.value.id == TXN_CLASS
                and stmt.value.attr in analysis.stages
            ):
                analysis.aliases[stmt.targets[0].id] = stmt.value.attr

    def stage_of(self, node: ast.expr) -> str | None:
        """Stage name referenced by ``node`` (alias, ``MemTxn.X``), or None."""
        if isinstance(node, ast.Name):
            return self.analysis.aliases.get(node.id)
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == TXN_CLASS
            and node.attr in self.analysis.stages
        ):
            return node.attr
        return None


@dataclass
class _VarState:
    state: str
    #: stage most recently assigned to this variable (for transitions)
    stage: str | None = None
    #: line of the disposing event, for diagnostics
    disposed_at: int = 0


class _FunctionChecker:
    """Abstract ownership interpretation of one function body."""

    def __init__(
        self,
        name: str,
        args: ast.arguments,
        body: list[ast.stmt],
        index: _StageIndex,
        analysis: EngineAnalysis,
        *,
        context_stage: str | None = None,
        forbid_release_of: str | None = None,
    ) -> None:
        self.name = name
        self.args = args
        self.body = body
        self.index = index
        self.analysis = analysis
        self.context_stage = context_stage
        #: parameter name whose pool release is itself a bug (the
        #: transaction of a warp-owned dispatch branch)
        self.forbid_release_of = forbid_release_of
        #: simple aliases: local name -> attribute chain it stands for
        self.aliases: dict[str, str] = {}
        #: names bound from an intrusive ``.link`` chain read (stride
        #: batching folds same-instant records into one event; the walk
        #: advances via ``nxt = txn.link`` / ``txn = nxt``).  Chain
        #: followers inherit the head's ownership obligations.
        self.link_derived: set[str] = set()
        #: (env, return-or-terminal node) at each return statement
        self.returns: list[tuple[dict[str, _VarState], ast.AST]] = []

    # -- receiver classification ---------------------------------------

    def _resolve(self, chain: str | None) -> str:
        if chain is None:
            return ""
        head, _, rest = chain.partition(".")
        if head in self.aliases:
            chain = self.aliases[head] + ("." + rest if rest else "")
        return chain

    def _is_pool(self, chain: str | None) -> bool:
        chain = self._resolve(chain)
        return chain.split(".")[-1].endswith("pool")

    def _is_deferred(self, chain: str | None) -> bool:
        chain = self._resolve(chain)
        return "deferred" in chain

    # -- entry ----------------------------------------------------------

    def initial_env(self) -> dict[str, _VarState]:
        env: dict[str, _VarState] = {}
        for arg in self.args.args + self.args.kwonlyargs:
            if arg.arg in ("self", "cls"):
                continue
            ann = ast.unparse(arg.annotation) if arg.annotation else ""
            if (
                arg.arg in ("txn", "req", "request")
                or any(c in ann for c in POOLED_CLASSES)
            ):
                env[arg.arg] = _VarState(_OWNED, stage=self.context_stage)
        return env

    def run(self) -> dict[str, _VarState]:
        env = self.initial_env()
        terminated = self._walk(self.body, env)
        if not terminated and self.body:
            # Fall-out of the function end is an implicit return.
            self.returns.append((dict(env), self.body[-1]))
        return env

    # -- statement walk --------------------------------------------------

    def _walk(self, stmts: list[ast.stmt], env: dict[str, _VarState]) -> bool:
        """Interpret a statement list in ``env``; True if every path
        through it terminates (return/raise/continue/break)."""
        for stmt in stmts:
            if isinstance(stmt, ast.Return):
                if stmt.value is not None:
                    self._check_uses(stmt.value, env)
                self.returns.append((dict(env), stmt))
                return True
            if isinstance(stmt, ast.Raise):
                return True
            if isinstance(stmt, (ast.Continue, ast.Break)):
                return True
            if isinstance(stmt, ast.If):
                self._check_uses(stmt.test, env)
                then_env = {k: _VarState(v.state, v.stage, v.disposed_at)
                            for k, v in env.items()}
                then_term = self._walk(stmt.body, then_env)
                else_env = {k: _VarState(v.state, v.stage, v.disposed_at)
                            for k, v in env.items()}
                else_term = self._walk(stmt.orelse, else_env)
                if then_term and else_term:
                    return True
                if then_term:
                    env.clear()
                    env.update(else_env)
                elif else_term:
                    env.clear()
                    env.update(then_env)
                else:
                    self._merge(env, then_env, else_env)
                continue
            if isinstance(stmt, (ast.For, ast.While)):
                if isinstance(stmt, ast.For):
                    self._check_uses(stmt.iter, env)
                else:
                    self._check_uses(stmt.test, env)
                body_env = {k: _VarState(v.state, v.stage, v.disposed_at)
                            for k, v in env.items()}
                self._walk(stmt.body, body_env)
                self._walk(stmt.orelse, body_env)
                self._merge(env, env, body_env)
                continue
            if isinstance(stmt, (ast.With, ast.Try)):
                inner: list[ast.stmt] = []
                if isinstance(stmt, ast.With):
                    inner = stmt.body
                else:
                    inner = (
                        stmt.body
                        + [s for h in stmt.handlers for s in h.body]
                        + stmt.orelse
                        + stmt.finalbody
                    )
                body_env = {k: _VarState(v.state, v.stage, v.disposed_at)
                            for k, v in env.items()}
                self._walk(inner, body_env)
                self._merge(env, env, body_env)
                continue
            self._simple(stmt, env)
        return False

    @staticmethod
    def _merge(
        env: dict[str, _VarState],
        a: dict[str, _VarState],
        b: dict[str, _VarState],
    ) -> None:
        merged: dict[str, _VarState] = {}
        for name in set(a) | set(b):
            sa, sb = a.get(name), b.get(name)
            if sa is None or sb is None:
                merged[name] = _VarState(_CONFLICT)
            elif sa.state == sb.state:
                merged[name] = _VarState(sa.state, sa.stage, sa.disposed_at)
            elif {sa.state, sb.state} <= _DISPOSED:
                # disposed differently on each path — equally final
                merged[name] = _VarState(_ESCAPED, sa.stage)
            else:
                merged[name] = _VarState(_CONFLICT)
        env.clear()
        env.update(merged)

    # -- one simple statement --------------------------------------------

    def _simple(self, stmt: ast.stmt, env: dict[str, _VarState]) -> None:
        # Rebinding assignments reset tracking for their target before
        # use-checking (the old object is gone; reusing the name is not
        # a use of the released object).
        rebound: str | None = None
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
        ):
            rebound = stmt.targets[0].id

        for value in self._stmt_exprs(stmt):
            self._check_uses(value, env, skip=rebound)

        if rebound is not None:
            assert isinstance(stmt, ast.Assign)
            self._rebind(rebound, stmt.value, env, stmt)
            return

        for call in self._calls_of(stmt):
            self._apply_call(call, env)

        # Attribute stores: `v.stage = X` records a transition target;
        # `obj.attr = v` escapes v.
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id in env
            ):
                var = env[target.value.id]
                if target.attr == "stage":
                    stage = self.index.stage_of(stmt.value)
                    if stage is not None:
                        var.stage = stage
            elif isinstance(stmt.value, ast.Name) and stmt.value.id in env:
                var = env[stmt.value.id]
                if var.state == _OWNED:
                    var.state = _ESCAPED

    def _stmt_exprs(self, stmt: ast.stmt) -> Iterator[ast.expr]:
        for node in ast.iter_child_nodes(stmt):
            if isinstance(node, ast.expr):
                yield node

    def _calls_of(self, stmt: ast.stmt) -> Iterator[ast.Call]:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call):
                yield node

    def _rebind(
        self,
        name: str,
        value: ast.expr,
        env: dict[str, _VarState],
        stmt: ast.stmt,
    ) -> None:
        # Process calls inside the value first (e.g. pool.pop()).
        for call in self._calls_of(stmt):
            self._apply_call(call, env, rebound=name)
        env.pop(name, None)
        if isinstance(value, ast.Call):
            chain = _attr_chain(value.func)
            if chain is not None:
                if chain.endswith(".pop") and self._is_pool(
                    chain.rsplit(".", 1)[0]
                ):
                    env[name] = _VarState(_OWNED)
                    return
                if chain in POOLED_CLASSES:
                    stage = (
                        self.index.stage_of(value.args[0])
                        if value.args else None
                    )
                    env[name] = _VarState(_OWNED, stage=stage)
                    if stage is not None:
                        self.analysis.pooled.add(stage)
                    return
        elif isinstance(value, ast.Attribute):
            chain = _attr_chain(value)
            if chain is not None:
                self.aliases[name] = chain
                # `nxt = txn.link`: reading the intrusive chain pointer
                # off a tracked record hands this name the follower of
                # a same-instant stride chain.  The follower is a live
                # record in the same stage as the head, so ownership
                # tracking (release/park/use checks) must continue
                # through it instead of going blind at the chain walk.
                if value.attr == "link":
                    base = chain.rsplit(".", 1)[0]
                    src = env.get(base)
                    if src is not None and src.state == _OWNED:
                        env[name] = _VarState(_OWNED, stage=src.stage)
                        self.link_derived.add(name)
        elif isinstance(value, ast.Name) and value.id in self.link_derived:
            src = env.get(value.id)
            if src is not None:
                # Chain-walk advance (`txn = nxt`): the record's
                # obligations follow it under the new name — including
                # the warp-owned never-release rule when the walk
                # rebinds the dispatch parameter itself.
                env[name] = _VarState(src.state, src.stage, src.disposed_at)
                self.link_derived.add(name)

    # -- events -----------------------------------------------------------

    def _tracked_arg(
        self, call: ast.Call, env: dict[str, _VarState]
    ) -> str | None:
        """A tracked variable passed to ``call``, directly or in a tuple."""
        for arg in call.args:
            if isinstance(arg, ast.Name) and arg.id in env:
                return arg.id
            if isinstance(arg, ast.Tuple):
                for elt in arg.elts:
                    if isinstance(elt, ast.Name) and elt.id in env:
                        return elt.id
        return None

    def _apply_call(
        self,
        call: ast.Call,
        env: dict[str, _VarState],
        rebound: str | None = None,
    ) -> None:
        chain = _attr_chain(call.func)
        if chain is None:
            return
        leaf = chain.split(".")[-1]
        name = self._tracked_arg(call, env)
        if name is None or name == rebound:
            return
        var = env[name]
        if var.state == _CONFLICT:
            return
        line = call.lineno

        if leaf == "append":
            receiver = chain.rsplit(".", 1)[0]
            if self._is_pool(receiver):
                if var.state == _RELEASED:
                    self.analysis.note(
                        call,
                        f"double-release: {name!r} was already returned to "
                        f"the pool on line {var.disposed_at} and is appended "
                        "again here",
                    )
                elif var.state == _PARKED:
                    self.analysis.note(
                        call,
                        f"park+release: {name!r} was parked on a deferred "
                        f"queue on line {var.disposed_at} and is also "
                        "released to the pool — two owners will re-drive it",
                    )
                elif self.forbid_release_of is not None and (
                    name == self.forbid_release_of
                    or name in self.link_derived
                ):
                    self.analysis.note(
                        call,
                        f"warp-owned transaction {name!r} (stage "
                        f"{self.context_stage}) must never be released to "
                        "the pool: warps reuse it every iteration",
                    )
                var.state = _RELEASED
                var.disposed_at = line
                self._transition(var, "pool", line)
            elif self._is_deferred(receiver):
                if var.state == _RELEASED:
                    self.analysis.note(
                        call,
                        f"release+park: {name!r} was returned to the pool on "
                        f"line {var.disposed_at} and is parked here — the "
                        "pool and the deferred queue now share it",
                    )
                var.state = _PARKED
                var.disposed_at = line
                self._transition(var, "park", line)
            else:
                var.state = _ESCAPED
        elif leaf in _PUSH_NAMES:
            var.state = _PUSHED
            var.disposed_at = line
            self._transition(var, "push", line)
        else:
            # Handed to another function: ownership moves with it.
            var.state = _ESCAPED
            self._transition(var, "call:" + leaf, line)

    def _transition(self, var: _VarState, via: str, line: int) -> None:
        self.analysis.transitions.append({
            "function": self.name,
            "from": self.context_stage or f"<{self.name}>",
            "to": var.stage or "?",
            "via": via,
            "line": line,
        })

    # -- use-after-release -----------------------------------------------

    def _check_uses(
        self,
        node: ast.expr,
        env: dict[str, _VarState],
        skip: str | None = None,
    ) -> None:
        for sub in ast.walk(node):
            if not isinstance(sub, ast.Name) or sub.id == skip:
                continue
            var = env.get(sub.id)
            if var is None:
                continue
            if var.state == _RELEASED:
                self.analysis.note(
                    sub,
                    f"use-after-release: {sub.id!r} was returned to the "
                    f"pool on line {var.disposed_at}; reading, mutating or "
                    "re-dispatching it here corrupts whatever transaction "
                    "the pool hands out next",
                )
                var.state = _CONFLICT  # one finding per release site
            elif var.state == _PARKED:
                self.analysis.note(
                    sub,
                    f"use-after-park: {sub.id!r} was parked on a deferred "
                    f"queue on line {var.disposed_at} and is owned by the "
                    "backpressure drain from that point on",
                )
                var.state = _CONFLICT


def _iter_stage_branches(
    dispatch: ast.FunctionDef, index: _StageIndex
) -> Iterator[tuple[str, list[ast.stmt], ast.If]]:
    """Yield ``(stage, body, if-node)`` for each stage test in
    ``_dispatch`` — flat ``if`` sequences and ``elif`` chains alike."""

    def tested_stage(test: ast.expr) -> str | None:
        if (
            isinstance(test, ast.Compare)
            and len(test.ops) == 1
            and isinstance(test.ops[0], ast.Eq)
        ):
            for side in (test.left, test.comparators[0]):
                stage = index.stage_of(side)
                if stage is not None:
                    return stage
        return None

    def scan(stmts: list[ast.stmt]) -> Iterator[tuple[str, list[ast.stmt], ast.If]]:
        for stmt in stmts:
            if isinstance(stmt, ast.If):
                stage = tested_stage(stmt.test)
                if stage is not None:
                    yield stage, stmt.body, stmt
                yield from scan(stmt.orelse)

    yield from scan(dispatch.body)


def analyze_engine(tree: ast.Module) -> EngineAnalysis:
    """Run the full lifecycle analysis over the engine module's AST."""
    analysis = EngineAnalysis()
    index = _StageIndex(tree, analysis)
    if not analysis.stages:
        return analysis

    # Classify warp-owned stages: constructor results stored straight
    # onto an owner attribute (`warp.compute_txn = MemTxn(STAGE, ...)`).
    for node in iter_statements(tree):
        if (
            isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Call)
            and _attr_chain(node.value.func) in POOLED_CLASSES
            and node.value.args
        ):
            stage = index.stage_of(node.value.args[0])
            if stage is None:
                continue
            if all(isinstance(t, ast.Attribute) for t in node.targets):
                analysis.warp_owned.add(stage)
            else:
                analysis.pooled.add(stage)

    # Locate the class holding _dispatch and analyze all of its methods.
    dispatch: ast.FunctionDef | None = None
    methods: list[ast.FunctionDef] = []
    for stmt in tree.body:
        if not isinstance(stmt, ast.ClassDef):
            continue
        cls_methods = [
            s for s in stmt.body if isinstance(s, ast.FunctionDef)
        ]
        if any(m.name == DISPATCH_METHOD for m in cls_methods):
            methods = cls_methods
            dispatch = next(
                m for m in cls_methods if m.name == DISPATCH_METHOD
            )
            break
    if dispatch is None:
        analysis.note(
            tree,
            f"no {DISPATCH_METHOD} method found alongside {TXN_CLASS}: the "
            "lifecycle verifier cannot see the stage machine",
        )
        return analysis

    # Handled stages, and stage assignments anywhere (`v.stage = X`
    # marks X pooled: only pool-domain objects are re-staged in place).
    for _stage, _body, node in _iter_stage_branches(dispatch, index):
        analysis.handled.add(_stage)
    for node in iter_statements(tree):
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Attribute)
            and node.targets[0].attr == "stage"
        ):
            stage = index.stage_of(node.value)
            if stage is not None:
                analysis.pooled.add(stage)

    analysis.pooled -= analysis.warp_owned

    for stage in sorted(analysis.stages):
        if stage not in analysis.handled:
            analysis.note(
                dispatch,
                f"stage {TXN_CLASS}.{stage} is declared but never handled "
                f"in {DISPATCH_METHOD}: transactions entering it would hit "
                "the unknown-stage backstop at runtime",
            )

    # Per-branch lifecycle interpretation of _dispatch.
    txn_param = next(
        (a.arg for a in dispatch.args.args if a.arg not in ("self", "cls")),
        None,
    )
    for stage, body, _if_node in _iter_stage_branches(dispatch, index):
        pooled = stage in analysis.pooled
        checker = _FunctionChecker(
            f"{DISPATCH_METHOD}[{stage}]",
            dispatch.args,
            body,
            index,
            analysis,
            context_stage=stage,
            forbid_release_of=(
                txn_param if stage in analysis.warp_owned else None
            ),
        )
        checker.run()
        if pooled and txn_param is not None:
            for env, terminal in checker.returns:
                var = env.get(txn_param)
                if var is not None and var.state == _OWNED:
                    analysis.note(
                        terminal,
                        f"leak: this path leaves stage {stage} with "
                        f"{txn_param!r} still owned — it is neither released "
                        "to the pool, parked, re-pushed, nor handed off, so "
                        "the free list silently degrades to per-event "
                        "allocation",
                    )

    # Helper methods: ownership violations only (no leak obligations —
    # helpers may legitimately keep or receive ownership).
    for method in methods:
        if method.name == DISPATCH_METHOD:
            continue
        _FunctionChecker(
            method.name, method.args, method.body, index, analysis
        ).run()

    return analysis


@register
class LifecycleRule(LintRule):
    id = "R009"
    name = "txn-lifecycle"
    rationale = (
        "pooled MemTxn/DRAMRequest objects must be released exactly once "
        "per terminal path and never touched after release/park"
    )
    severity = Severity.ERROR

    def reads_tree(self, module: str | None) -> bool:
        return module == ENGINE_MODULE

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        cache = analysis_cache_for(project)
        for ctx in project.files:
            if ctx.module != ENGINE_MODULE:
                continue
            # The findings depend on the engine's text alone: a pass
            # over an unchanged engine replays them without parsing it.
            inputs = inputs_digest((str(ctx.relpath), ctx.digest))
            found = (
                cache.result(self.id, inputs, (int, int, str))
                if cache is not None else None
            )
            if found is None:
                found = analyze_engine(ctx.tree).findings
                if cache is not None:
                    cache.put_result(self.id, inputs, found)
            for line, col, message in found:
                yield self.at(str(ctx.relpath), line, message, col=col)
