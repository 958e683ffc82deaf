"""Tests for the incremental lint cache: per-path records of file-rule
findings, trees parsed on demand, and summaries that survive subset
runs.

A warm ``lint_paths`` must return exactly what a cold or an uncached
run returns, while parsing only the trees a project rule reads and
calling no ``check_file`` at all.  The fixture makes every file rule
fire once, next to a ``# repro: noqa`` twin it must keep suppressed, and
adds an unparseable file and project-rule findings (one suppressed over
a multi-line statement).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.devtools import all_rules, lint_paths
from repro.devtools.semantic import graph as graph_module

CACHE_RELPATH = Path(".lint-cache") / "semantic.json"

#: One file per file rule, each finding next to its suppressed twin.
FILES = {
    "src/repro/r2.py": (
        "def f(x):\n"
        "    return x == 1.0\n"
        "def g(x):\n"
        "    return x == 1.0  # repro: noqa[R002]\n"
    ),
    "src/repro/experiments/r4.py": (
        "import repro.sim.engine\n"
        "import repro.sim.dram  # repro: noqa[R004]\n"
    ),
    "src/repro/r5.py": (
        "from repro.exec import run_jobs\n"
        "r = run_jobs(lambda s: s, [1])\n"
        "q = run_jobs(lambda s: s, [2])  # repro: noqa[R005]\n"
    ),
    "src/repro/r6.py": (
        "def f(t):\n"
        "    open('results/x.json', 'w').write(t)\n"
        "def g(t):\n"
        "    open('results/y.json', 'w').write(t)  # repro: noqa[R006]\n"
    ),
    "src/repro/core/r7.py": (
        "def f(x):\n"
        "    print(x)\n"
        "def g(x):\n"
        "    print(x)  # repro: noqa[R007]\n"
    ),
    "src/repro/sim/dram.py": (
        "def decide(channel: object, now: float) -> object:\n"
        "    def fire(t):\n"
        "        channel.complete(t)\n"
        "    return fire\n"
        "def decide2(channel: object, now: float) -> object:\n"
        "    def fire(t):  # repro: noqa[R008]\n"
        "        channel.complete(t)\n"
        "    return fire\n"
    ),
    "src/repro/sim/engine.py": (
        "class MemTxn:\n"
        "    COMPUTE = 0\n"
        "    RETIRE = 1\n"
        "    __slots__ = ('stage',)\n"
        "\n"
        "_COMPUTE = MemTxn.COMPUTE\n"
        "_RETIRE = MemTxn.RETIRE\n"
        "\n"
        "class Simulator:\n"
        "    __slots__ = ('_queue', '_txn_pool')\n"
        "    def _dispatch(self, txn: MemTxn, now: float) -> None:\n"
        "        stage = txn.stage\n"
        "        if stage == _COMPUTE:\n"
        "            txn.stage = _RETIRE\n"
        "            self._queue.push(now + 1.0, txn)\n"
        "            return\n"
        "        if stage == _RETIRE:\n"
        "            self._txn_pool.append(txn)\n"
        "            txn.stage = _COMPUTE\n"
        "            return\n"
        "    def _recycle(self, txn: MemTxn) -> None:\n"
        "        self._txn_pool.append(txn)\n"
        "        txn.stage = _COMPUTE  # repro: noqa[R009]\n"
    ),
    "src/repro/exec/typed.py": (
        "def f(x):\n"
        "    return x\n"
        "def g(x):  # repro: noqa[R011]\n"
        "    return x\n"
    ),
    # Project rules: R001/R014 fire on line 2; the header noqa covers
    # the clock read on the statement's continuation line.
    "src/repro/sim/r1.py": (
        "import time\n"
        "t = time.time()\n"
        "u = max(  # repro: noqa[R001]\n"
        "    time.time(),\n"
        "    0.0,\n"
        ")\n"
    ),
    "src/repro/broken.py": "def f(:\n",
    "tests/test_fixture.py": "def test_x():\n    assert 0.5 == 0.5\n",
}

FILE_RULES = {"R002", "R004", "R005", "R006", "R007", "R008", "R009", "R011"}

#: Modules the units pass (R012/R013) reads: repro.sim/core/metrics/obs.
UNIT_FILES = {"src/repro/core/r7.py", "src/repro/sim/dram.py",
              "src/repro/sim/engine.py", "src/repro/sim/r1.py"}


def write_tree(root: Path, files: dict[str, str]) -> None:
    for relpath, content in files.items():
        path = root / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content)
    (root / "pyproject.toml").touch()


def lint(root: Path, dirs=("src", "tests"), **kwargs):
    """Lint ``dirs`` under ``root``; returns (rendered findings, project)."""
    out: list = []
    findings = lint_paths(
        [root / d for d in dirs], root=root, _project_out=out, **kwargs
    )
    return [f.render() for f in findings], out[0]


def parsed(project) -> set[str]:
    """Files whose tree was materialized (the cached property's slot)."""
    return {str(c.relpath) for c in project.files if "tree" in vars(c)}


@pytest.fixture
def checks(monkeypatch) -> list[tuple[str, str]]:
    """Every ``check_file`` call, as (rule id, relpath)."""
    calls: list[tuple[str, str]] = []
    for rule in all_rules():
        if rule.scope != "file":
            continue
        cls = type(rule)

        def probe(self, ctx, _orig=cls.check_file):
            calls.append((self.id, str(ctx.relpath)))
            return _orig(self, ctx)

        monkeypatch.setattr(cls, "check_file", probe)
    return calls


@pytest.fixture
def tree(tmp_path) -> Path:
    write_tree(tmp_path, FILES)
    return tmp_path


class TestWarmPath:
    def test_findings_equal_cold_warm_and_uncached(self, tree):
        cold, _ = lint(tree)
        warm, _ = lint(tree)
        uncached, _ = lint(tree, semantic_cache=False)
        assert cold == warm == uncached
        rules = {line.split(": ")[1].split(" ")[0] for line in cold}
        assert rules >= FILE_RULES | {"E999", "R001", "R014"}
        # No twin shows through, cold or replayed.
        for line in cold:
            relpath, lineno = line.split(":")[:2]
            if relpath in FILES and not relpath.endswith("broken.py"):
                text = FILES[relpath].splitlines()[int(lineno) - 1]
                assert "repro: noqa" not in text, line

    def test_warm_run_checks_nothing_and_parses_only_project_reads(
        self, tree, checks
    ):
        lint(tree)
        assert {rule for rule, _ in checks} == FILE_RULES
        checks.clear()
        _, project = lint(tree)
        assert checks == []
        assert parsed(project) == UNIT_FILES
        assert graph_module.graph_for_project(project).cache_misses == 0

    def test_editing_one_file_rechecks_only_that_file(self, tree, checks):
        lint(tree)
        checks.clear()
        (tree / "src/repro/r2.py").write_text(
            "def f(x):\n    return x != 2.0\n"
        )
        warm, project = lint(tree)
        assert {path for _, path in checks} == {"src/repro/r2.py"}
        assert {rule for rule, _ in checks} == FILE_RULES
        assert parsed(project) == UNIT_FILES | {"src/repro/r2.py"}
        assert "src/repro/r2.py:2:12: R002" in "\n".join(warm)
        assert warm == lint(tree, semantic_cache=False)[0]

    def test_select_after_full_run_parses_nothing(self, tree, checks):
        lint(tree)
        checks.clear()
        only, project = lint(tree, select=["R002"])
        assert checks == [] and parsed(project) == set()
        assert only == lint(tree, select=["R002"], semantic_cache=False)[0]

    def test_full_run_after_cold_select_fills_missing_rules(self, tree, checks):
        lint(tree, select=["R002"])
        checks.clear()
        full, _ = lint(tree)
        assert checks and "R002" not in {rule for rule, _ in checks}
        assert full == lint(tree, semantic_cache=False)[0]
        checks.clear()
        assert lint(tree)[0] == full and checks == []

    def test_devtools_fingerprint_change_discards_everything(
        self, tree, checks, monkeypatch
    ):
        lint(tree)
        checks.clear()
        monkeypatch.setattr(graph_module, "_devtools_digest", lambda: "edited")
        again, project = lint(tree)
        checked = {path for _, path in checks}
        assert checked == {str(c.relpath) for c in project.files}
        assert graph_module.graph_for_project(project).cache_hits == 0
        assert again == lint(tree, semantic_cache=False)[0]

    def test_corrupt_records_degrade_to_recomputation(self, tree, checks):
        cold, _ = lint(tree)
        cache_path = tree / CACHE_RELPATH
        doc = json.loads(cache_path.read_text())
        records = doc["files"]
        records["src/repro/r2.py"] = "garbage"
        records["src/repro/r5.py"]["digest"] = 123
        records["src/repro/r6.py"]["rules"]["R006"] = "not a list"
        records["src/repro/core/r7.py"]["rules"]["R007"] = [{"rule": "R007"}]
        records["src/repro/sim/dram.py"]["rules"]["R008"] = ["not a dict"]
        cache_path.write_text(json.dumps(doc))
        checks.clear()

        warm, _ = lint(tree)
        assert warm == cold
        assert {path for _, path in checks} == {
            "src/repro/r2.py", "src/repro/r5.py", "src/repro/r6.py",
            "src/repro/core/r7.py", "src/repro/sim/dram.py",
        }
        healed = json.loads(cache_path.read_text())["files"]
        for relpath in ("src/repro/r2.py", "src/repro/r5.py",
                        "src/repro/r6.py", "src/repro/core/r7.py",
                        "src/repro/sim/dram.py"):
            record = healed[relpath]
            assert isinstance(record["digest"], str)
            assert set(record["rules"]) == FILE_RULES
            for docs in record["rules"].values():
                assert isinstance(docs, list)
                assert all(isinstance(d, dict) and "rule" in d for d in docs)


class TestCacheRetention:
    def test_linting_a_subset_keeps_the_rest(self, tree, checks):
        lint(tree)
        lint(tree)
        lint(tree, dirs=("src",), select=["R012", "R013"])
        checks.clear()
        _, project = lint(tree)
        assert graph_module.graph_for_project(project).cache_misses == 0
        assert checks == []

    def test_records_of_deleted_or_edited_files_are_dropped(self, tree):
        lint(tree)
        (tree / "tests/test_fixture.py").unlink()
        (tree / "src/repro/r5.py").write_text("x = 1\n")
        lint(tree, dirs=("src/repro/sim",))
        doc = json.loads((tree / CACHE_RELPATH).read_text())
        assert "tests/test_fixture.py" not in doc["files"]
        assert "src/repro/r5.py" not in doc["files"]
        assert "src/repro/r2.py" in doc["files"]
        assert not any(key.startswith("tests.test_fixture:")
                       for key in doc["entries"])

    def test_identical_modules_do_not_thrash(self, tmp_path):
        util = "def helper(x: int) -> int:\n    return x + 1\n"
        write_tree(tmp_path, {
            "src/repro/a/util.py": util,
            "src/repro/b/util.py": util,
            "src/repro/a/main.py": "from repro.a.util import helper\n",
            "src/repro/b/main.py": "from repro.b.util import helper\n",
        })
        lint(tmp_path, dirs=("src",))
        cache_path = tmp_path / CACHE_RELPATH

        def state():
            st = cache_path.stat()
            return cache_path.read_bytes(), st.st_mtime_ns, st.st_ino

        before = state()
        for _ in range(2):
            _, project = lint(tmp_path, dirs=("src",))
            graph = graph_module.graph_for_project(project)
            assert (graph.cache_hits, graph.cache_misses) == (4, 0)
            assert state() == before
