"""The summary walker's dispatch equals :class:`ast.NodeVisitor`'s.

``summary._FunctionWalker`` finds its handlers in a per-class table and
skips the node classes under which no handler could run.  These tests
hold it to a reference walker that keeps every handler but dispatches
through ``ast.NodeVisitor``'s own ``visit`` and ``generic_visit``: the
same summary for every file of the repository, the same handler
sequence on a module that reaches every handler, and no handler for a
class the table skips.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

from repro.devtools.semantic import summary
from repro.devtools.semantic.summary import _FunctionWalker, _handler_for

REPO_ROOT = Path(__file__).resolve().parents[1]


class _ReferenceWalker(_FunctionWalker, ast.NodeVisitor):
    """The walker's handlers under ``ast.NodeVisitor``'s dispatch."""

    visit = ast.NodeVisitor.visit
    generic_visit = ast.NodeVisitor.generic_visit


def _summary_of(tree: ast.Module, walker: type, monkeypatch) -> str:
    with monkeypatch.context() as patch:
        patch.setattr(summary, "_FunctionWalker", walker)
        doc = summary.summarize_file("mod", "mod.py", tree).to_dict()
    return json.dumps(doc)


def test_every_repository_file_summarizes_as_under_node_visitor(monkeypatch):
    paths = sorted(
        path for top in ("src", "tests", "scripts")
        for path in (REPO_ROOT / top).rglob("*.py")
    )
    assert len(paths) > 100
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        assert _summary_of(tree, _FunctionWalker, monkeypatch) == _summary_of(
            tree, _ReferenceWalker, monkeypatch
        ), path


#: Reaches every handler, plus ``match``, ``async for``, the four
#: comprehensions, lambdas and nested defs, at module level and in defs.
SYNTHETIC = '''
import os
import random
from time import perf_counter
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from pathlib import Path

REGISTRY = {}
rng = random.Random(1)
for key in {3, 1, 2}:
    REGISTRY[key] = [k for k in range(key) if k % 2]


@register(lambda item: item.name)
def top(values=[1, 2], *, env=os.environ["HOME"]) -> int:
    global REGISTRY
    REGISTRY = {}
    REGISTRY += 1
    counts: dict = {}
    pending = set(values)
    del counts["x"]
    for value in pending:
        counts[value] = perf_counter()

    async def inner(stream):
        async for item in stream:
            await item
        return (
            [y for y in stream if y],
            {y for y in stream},
            (y * 2 for y in stream),
            {y: y for y in set(stream)},
        )

    while random.random() < 0.5:
        if perf_counter() > 1.0:
            break

    class Local:
        def method(self):
            return self.share == 0.5

    match values:
        case [first, *rest] if first == 0.5:
            pass
        case {"k": found}:
            print(found)
        case Local(share=1) | None:
            pass
        case _:
            pass
    pick = lambda: random.choice([1, 2])
    with open("results/out.txt", "w") as handle:
        handle.write(str(values[0]))
    try:
        run_jobs(inner, [])
    except (ValueError, KeyError) as exc:
        raise RuntimeError(f"{exc!r}") from exc
    return pick, Local, inner


class Widget:
    size: int = 3

    def __init__(self, n=len("ab")):
        self.rng = random.Random(n)
        self.stream = rng.randint(0, 1)

    async def run(self, seeds):
        return [self.rng.randint(0, s) for s in seeds]
'''


def _recording(base: type) -> tuple[type, list[tuple]]:
    """``base`` with every handler of the walker logging its node."""
    log: list[tuple] = []

    def logged(name, handler):
        def visit(self, node):
            log.append((name, type(node).__name__, getattr(node, "lineno", None),
                        getattr(node, "col_offset", None)))
            handler(self, node)
        return visit

    handlers = {name: logged(name, handler)
                for name, handler in vars(_FunctionWalker).items()
                if name.startswith("visit_")}
    return type("Recording", (base,), {**handlers, "_handlers": {}}), log


def test_every_handler_runs_in_node_visitor_order(monkeypatch):
    tree = ast.parse(SYNTHETIC)
    logs = []
    for base in (_FunctionWalker, _ReferenceWalker):
        walker, log = _recording(base)
        _summary_of(tree, walker, monkeypatch)
        logs.append(log)
    assert logs[0] == logs[1]
    assert {entry[0] for entry in logs[0]} == {
        name for name in vars(_FunctionWalker) if name.startswith("visit_")
    }
    (match,) = [node for node in ast.walk(tree) if isinstance(node, ast.Match)]
    assert ("visit_Compare", "Compare", match.lineno + 1) in {
        entry[:3] for entry in logs[0]
    }


def test_no_handler_for_a_skipped_class():
    """A handler for a class the table skips would never run."""
    skipped = {cls for cls in vars(ast).values()
               if isinstance(cls, type) and issubclass(cls, ast.AST)
               and _handler_for(_FunctionWalker, cls) is None}
    assert {ast.Name, ast.Constant, ast.Load, ast.Store, ast.Add, ast.Eq} <= skipped
    assert not skipped & {ast.Attribute, ast.Subscript, ast.Call, ast.arguments}
    assert [cls.__name__ for cls in skipped
            if hasattr(_FunctionWalker, f"visit_{cls.__name__}")] == []
