"""Tests for the incremental lint cache: one store of file summaries,
trees parsed on demand, and summaries that survive subset runs.

A warm ``lint_paths`` must return exactly what a cold or an uncached
run returns, while summarizing nothing and parsing only the trees a
rule reads (R003, R009, the units pass) or a finding's ``noqa`` extents
need.  The fixture makes every single-file rule fire once, next to a
``# repro: noqa`` twin it must keep suppressed, and adds an unparseable
file and whole-program findings (one suppressed over a multi-line
statement).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.devtools import lint_paths
from repro.devtools.semantic import graph as graph_module
from repro.devtools.semantic.summary import FileSummary

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

#: Modules the units pass (R012/R013) reads: repro.sim/core/metrics/obs
#: (R009's engine among them).
UNIT_FILES = {"src/repro/core/r7.py", "src/repro/sim/dram.py",
              "src/repro/sim/engine.py", "src/repro/sim/r1.py"}

#: What a warm run parses: the units pass's modules, and the files
#: whose findings sit next to a noqa comment (for its extents).
WARM_PARSED = UNIT_FILES | {
    "src/repro/r2.py", "src/repro/experiments/r4.py", "src/repro/r5.py",
    "src/repro/r6.py", "src/repro/exec/typed.py",
}


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
def summarized(monkeypatch) -> list[str]:
    """The path of every file summarized, not served from the cache."""
    calls: list[str] = []

    def probe(module, path, tree, _orig=graph_module.summarize_file):
        calls.append(path)
        return _orig(module, path, tree)

    monkeypatch.setattr(graph_module, "summarize_file", probe)
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
        # No twin shows through, cold or warm.
        for line in cold:
            relpath, lineno = line.split(":")[:2]
            if relpath in FILES and not relpath.endswith("broken.py"):
                text = FILES[relpath].splitlines()[int(lineno) - 1]
                assert "repro: noqa" not in text, line

    def test_warm_run_checks_nothing_and_parses_only_project_reads(
        self, tree, summarized
    ):
        lint(tree)
        assert set(summarized) == set(FILES) - {"src/repro/broken.py"}
        summarized.clear()
        _, project = lint(tree)
        assert summarized == []
        assert parsed(project) == WARM_PARSED
        assert graph_module.graph_for_project(project).cache_misses == 0

    def test_editing_one_file_rechecks_only_that_file(self, tree, summarized):
        lint(tree)
        summarized.clear()
        (tree / "src/repro/r2.py").write_text(
            "def f(x):\n    return x != 2.0\n"
        )
        warm, project = lint(tree)
        assert summarized == ["src/repro/r2.py"]
        assert parsed(project) == WARM_PARSED
        assert "src/repro/r2.py:2:12: R002" in "\n".join(warm)
        assert warm == lint(tree, semantic_cache=False)[0]

    def test_select_after_full_run_summarizes_nothing(self, tree, summarized):
        lint(tree)
        summarized.clear()
        only, project = lint(tree, select=["R002"])
        assert summarized == []
        assert parsed(project) == {"src/repro/r2.py"}  # its noqa extents
        assert only == lint(tree, select=["R002"], semantic_cache=False)[0]

    def test_full_run_after_cold_select_summarizes_nothing(
        self, tree, summarized
    ):
        lint(tree, select=["R002"])
        summarized.clear()
        full, _ = lint(tree)
        assert summarized == []
        assert full == lint(tree, semantic_cache=False)[0]

    def test_devtools_fingerprint_change_discards_everything(
        self, tree, summarized, monkeypatch
    ):
        lint(tree)
        summarized.clear()
        monkeypatch.setattr(graph_module, "_devtools_digest", lambda: "edited")
        again, project = lint(tree)
        assert set(summarized) == {str(c.relpath) for c in project.files}
        assert graph_module.graph_for_project(project).cache_hits == 0
        assert again == lint(tree, semantic_cache=False)[0]

    def test_corrupt_records_degrade_to_recomputation(self, tree, summarized):
        cold, _ = lint(tree)
        cache_path = tree / CACHE_RELPATH
        doc = json.loads(cache_path.read_text())
        entries = doc["entries"]
        key = {entry["path"]: k for k, entry in entries.items()}
        entries[key["src/repro/r2.py"]] = "garbage"
        del entries[key["src/repro/r5.py"]]["module"]
        entries[key["src/repro/r6.py"]]["functions"] = 5
        entries[key["src/repro/core/r7.py"]]["prints"] = 3
        entries[key["src/repro/sim/dram.py"]]["module"] = "repro.other"
        cache_path.write_text(json.dumps(doc))
        summarized.clear()

        warm, _ = lint(tree)
        assert warm == cold
        corrupted = {"src/repro/r2.py", "src/repro/r5.py", "src/repro/r6.py",
                     "src/repro/core/r7.py", "src/repro/sim/dram.py"}
        assert set(summarized) == corrupted
        healed = json.loads(cache_path.read_text())["entries"]
        for relpath in corrupted:
            entry = healed[key[relpath]]
            assert FileSummary.from_dict(entry).path == relpath


class TestCacheRetention:
    def test_linting_a_subset_keeps_the_rest(self, tree, summarized):
        lint(tree)
        lint(tree)
        lint(tree, dirs=("src",), select=["R012", "R013"])
        summarized.clear()
        _, project = lint(tree)
        assert graph_module.graph_for_project(project).cache_misses == 0
        assert summarized == []

    def test_records_of_deleted_or_edited_files_are_dropped(self, tree):
        lint(tree)
        (tree / "tests/test_fixture.py").unlink()
        (tree / "src/repro/r5.py").write_text("x = 1\n")
        lint(tree, dirs=("src/repro/sim",))
        doc = json.loads((tree / CACHE_RELPATH).read_text())
        assert set(doc) == {"version", "analysis_versions", "entries"}
        paths = {entry["path"] for entry in doc["entries"].values()}
        assert "tests/test_fixture.py" not in paths
        assert "src/repro/r5.py" not in paths
        assert "src/repro/r2.py" in paths
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

    def test_files_outside_the_module_roots_are_cached_by_path(
        self, tmp_path, summarized
    ):
        loose = "from repro.exec import run_jobs\nr = run_jobs(lambda s: s, [1])\n"
        write_tree(tmp_path, {"bench/a.py": loose, "bench/b.py": loose})
        cold, _ = lint(tmp_path, dirs=("bench",))
        assert [line.split(":")[0] for line in cold] == ["bench/a.py", "bench/b.py"]
        summarized.clear()
        assert lint(tmp_path, dirs=("bench",))[0] == cold
        assert summarized == []
