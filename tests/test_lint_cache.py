"""Tests for the incremental lint cache: file summaries, the results
of the analyses that read trees, trees parsed on demand, and summaries
that survive subset runs.

A warm ``lint_paths`` must return exactly what a cold or an uncached
run returns, while summarizing nothing, replaying R009 and the units
pass from their records, and parsing only the files whose findings need
a ``noqa`` statement extent.  A cold run parses each file once and ends
holding only the trees its rules read: the rest are dropped once
summarized.  The fixture makes every single-file rule fire once, next
to a ``# repro: noqa`` twin it must keep suppressed, and adds an
unparseable file and whole-program findings (R001 suppressed over a
multi-line statement, R009, R012 and R013).

A pass runs without the cyclic collector, writes the cache through the
C encoder one entry at a time, and scans for statements without walking
expressions; the last three classes pin each of those to its reference.
"""

from __future__ import annotations

import ast
import gc
import json
import os
import shutil
import sys
from pathlib import Path

import pytest

from repro.devtools import lint_paths
from repro.devtools.semantic import graph as graph_module
from repro.devtools.semantic.cache import CACHE_VERSION, AnalysisCache
from repro.devtools.semantic.lifecycle import LifecycleRule
from repro.devtools.semantic.summary import FileSummary, iter_statements

REPO_ROOT = Path(__file__).resolve().parents[1]
CACHE_RELPATH = Path(".lint-cache") / "semantic.json"

#: One file per file rule, each finding next to its suppressed twin.
FILES = {
    "src/repro/r2.py": (
        "def f(x):\n"
        "    return x == 1.0\n"
        "def g(x):\n"
        "    return x == 1.0  # repro: noqa[R002]\n"
        "def h(x):\n"
        "    return (  # repro: noqa[R002]\n"
        "        x == 1.0\n"
        "    )\n"
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
    # The units pass: R012 in eb.py, and R013 through the return
    # annotation of another module's function.
    "src/repro/exec/clock.py": (
        "from repro.units import WallSeconds\n"
        "def wall_now() -> WallSeconds:\n"
        "    return 0.0\n"
    ),
    "src/repro/metrics/eb.py": (
        "from repro.exec.clock import wall_now\n"
        "from repro.units import Bytes, Cycles, Lines\n"
        "def total(b: Bytes, n: Lines) -> Bytes:\n"
        "    return b + n\n"
        "def late(due: Cycles) -> bool:\n"
        "    return wall_now() > due\n"
    ),
    "src/repro/broken.py": "def f(:\n",
    "tests/test_fixture.py": "def test_x():\n    assert 0.5 == 0.5\n",
}

FILE_RULES = {"R002", "R004", "R005", "R006", "R007", "R008", "R009", "R011"}

#: Modules the units pass (R012/R013) reads: repro.sim/core/metrics/obs
#: (R009's engine among them).
UNIT_FILES = {"src/repro/core/r7.py", "src/repro/metrics/eb.py",
              "src/repro/sim/dram.py", "src/repro/sim/engine.py",
              "src/repro/sim/r1.py"}

#: Files with a finding that only the statement extent of an earlier
#: line's noqa can suppress: the trees a warm run parses.
WARM_PARSED = {"src/repro/r2.py", "src/repro/sim/r1.py"}

#: The trees a cold run holds at its end: the units pass's modules, and
#: the noqa extents' files.
COLD_PARSED = UNIT_FILES | WARM_PARSED


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
        assert rules >= FILE_RULES | {"E999", "R001", "R012", "R013", "R014"}
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
        # R009 and the units pass replay their records.
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
        # An edit to an indexed module reruns the units pass over its
        # modules; the new text has no noqa comment, so no rule reads it.
        assert parsed(project) == COLD_PARSED - {"src/repro/r2.py"}
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

    def test_cold_run_holds_only_the_trees_its_rules_read(
        self, tree, summarized
    ):
        _, project = lint(tree)
        assert set(summarized) == set(FILES) - {"src/repro/broken.py"}
        assert parsed(project) == COLD_PARSED
        assert "src/repro/broken.py" not in {str(c.relpath) for c in project.files}

    def test_cold_select_holds_only_the_noqa_extents_tree(self, tree):
        _, project = lint(tree, select=["R002"])
        assert parsed(project) == {"src/repro/r2.py"}

    def test_cold_run_parses_each_file_once(self, tree, monkeypatch):
        parses: dict[str, int] = {}

        def probe(source, filename="<unknown>", *args, _orig=ast.parse, **kw):
            if Path(filename).is_relative_to(tree):
                relpath = str(Path(filename).relative_to(tree))
                parses[relpath] = parses.get(relpath, 0) + 1
            return _orig(source, filename, *args, **kw)

        monkeypatch.setattr(ast, "parse", probe)
        lint(tree)
        # A noqa extent outside the units pass parses its file again.
        again = WARM_PARSED - UNIT_FILES
        assert parses == {relpath: 1 + (relpath in again) for relpath in FILES}

    def test_summaries_reach_the_graph_as_built(self, tree, monkeypatch):
        built = []

        def probe(module, path, tree, _orig=graph_module.summarize_file):
            built.append(_orig(module, path, tree))
            return built[-1]

        monkeypatch.setattr(graph_module, "summarize_file", probe)
        _, project = lint(tree)
        graph = graph_module.graph_for_project(project)
        assert len(built) == len(graph.files)
        assert all(a is b for a, b in zip(built, graph.files))

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


#: Every record list of a cached summary: the file-level ones, then
#: those of each function record (``unordered_iters`` holds lines).
FILE_RECORD_LISTS = (
    "import_stmts", "random_imports", "float_eqs", "pickled", "prints",
    "closures", "unslotted", "untyped",
)
FUNCTION_RECORD_LISTS = (
    "calls", "mutations", "writes", "effects", "unordered_iters",
)


class TestMalformedRecords:
    """One bad record in a cached summary is a miss, never a crash.

    ``src/repro/sim/dram.py`` is read by every rule that reads a record
    list (sim layer, hot path, typed core, R004 provider), so a bad
    record there reaches its reader unless the load rejects it.
    """

    TARGET = "src/repro/sim/dram.py"

    @pytest.mark.parametrize("bad", [None, {}], ids=["not-a-dict", "no-keys"])
    @pytest.mark.parametrize(
        "field", FILE_RECORD_LISTS + FUNCTION_RECORD_LISTS
    )
    def test_bad_record_gives_the_uncached_findings(
        self, tree, summarized, field, bad
    ):
        lint(tree)
        cache_path = tree / CACHE_RELPATH
        doc = json.loads(cache_path.read_text())
        (entry,) = [e for e in doc["entries"].values()
                    if e["path"] == self.TARGET]
        owner = entry if field in FILE_RECORD_LISTS else entry["functions"]["decide"]
        owner[field].append(bad)
        cache_path.write_text(json.dumps(doc))
        summarized.clear()

        warm, _ = lint(tree)
        assert summarized == [self.TARGET]
        assert warm == lint(tree, semantic_cache=False)[0]
        healed = json.loads(cache_path.read_text())["entries"]
        (entry,) = [e for e in healed.values() if e["path"] == self.TARGET]
        assert FileSummary.from_dict(entry).path == self.TARGET


def edit(relpath: str, old: str, new: str):
    """An edit replacing ``old`` by ``new`` in the fixture's ``relpath``."""

    def apply(root: Path) -> None:
        path = root / relpath
        assert old in path.read_text()
        path.write_text(path.read_text().replace(old, new))

    return apply


def move(relpath: str, to: str):
    """An edit moving the fixture's ``relpath`` to ``to``, unchanged."""

    def apply(root: Path) -> None:
        (root / to).parent.mkdir(parents=True, exist_ok=True)
        shutil.move(root / relpath, root / to)

    return apply


#: Edits to the inputs of R009 and the units pass, and whether each
#: changes what the pass reports.
EDITS = {
    "in-scope-body": (
        edit("src/repro/metrics/eb.py", "b + n", "b + b"), True),
    "annotation-elsewhere": (
        edit("src/repro/exec/clock.py", "WallSeconds", "Cycles"), True),
    "engine": (
        edit("src/repro/sim/engine.py",
             "self._txn_pool.append(txn)\n            txn.stage = _COMPUTE\n",
             "txn.stage = _COMPUTE\n            self._txn_pool.append(txn)\n"),
        True),
    "test-file": (
        edit("tests/test_fixture.py", "0.5 == 0.5", "0.5 is not None"), False),
    # Same module name, same text, same summary key: only the path moves.
    "moved-file": (
        move("src/repro/metrics/eb.py", "src/repro/metrics/eb/__init__.py"),
        True),
}


def cached_results(root: Path) -> dict:
    return json.loads((root / CACHE_RELPATH).read_text())["results"]


class TestResultReplay:
    """R009's findings and the units pass's are replayed from records
    keyed by exactly what they read, and recomputed when that moves."""

    @pytest.mark.parametrize("name", sorted(EDITS))
    def test_findings_after_an_edit_equal_an_uncached_run(self, tree, name):
        apply, changes = EDITS[name]
        before, _ = lint(tree)
        apply(tree)
        after, _ = lint(tree)
        assert after == lint(tree, semantic_cache=False)[0]
        assert (after != before) is changes
        replayed, project = lint(tree)
        assert replayed == after
        assert parsed(project) == WARM_PARSED

    def test_records_hold_the_findings_before_suppression(self, tree):
        cold, _ = lint(tree)
        results = cached_results(tree)
        assert set(results) == {"R009", "units"}
        # One use-after-release in _dispatch, one under _recycle's noqa.
        assert [row[:2] for row in results["R009"]["value"]] == [[19, 12], [23, 8]]
        assert [row[0] for row in results["units"]["value"]] == ["unit", "clock"]
        assert sum(": R009 " in line for line in cold) == 1
        assert sum(": R012 " in line or ": R013 " in line for line in cold) == 2

    def test_a_current_record_is_replayed(self, tree):
        lint(tree)
        doc = json.loads((tree / CACHE_RELPATH).read_text())
        doc["results"]["R009"]["value"] = []
        (tree / CACHE_RELPATH).write_text(json.dumps(doc))
        warm, _ = lint(tree)
        assert not [line for line in warm if ": R009 " in line]

    @pytest.mark.parametrize("name", ["R009", "units"])
    @pytest.mark.parametrize("damage", [
        "not-a-record", "stale-inputs", "not-a-list", "short-row",
        "mistyped-field", "unknown-kind",
    ])
    def test_bad_record_degrades_to_recomputation(self, tree, name, damage):
        cold, _ = lint(tree)
        doc = json.loads((tree / CACHE_RELPATH).read_text())
        good = json.loads(json.dumps(doc["results"][name]))
        record = doc["results"][name]
        rows = record["value"]
        if damage == "not-a-record":
            doc["results"][name] = "garbage"
        elif damage == "stale-inputs":
            record["inputs"] = "0" * 64
            record["value"] = []
        elif damage == "not-a-list":
            record["value"] = {"rows": rows}
        elif damage == "short-row":
            rows[0] = rows[0][:-1]
        elif damage == "mistyped-field":
            rows[0][-3 if name == "units" else 0] = "1"
        else:
            rows[0][0] = "units" if name == "units" else True
        (tree / CACHE_RELPATH).write_text(json.dumps(doc))

        warm, _ = lint(tree)
        assert warm == cold
        assert cached_results(tree)[name] == good


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
        assert set(doc) == {"version", "analysis_versions", "entries", "results"}
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


@pytest.fixture
def collector():
    """The collector on for the test, and as it was found afterwards."""
    was_enabled = gc.isenabled()
    gc.enable()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


def in_lint_paths() -> bool:
    """Is a ``lint_paths`` frame on the current stack?"""
    frame = sys._getframe(1)
    while frame is not None:
        if frame.f_code is lint_paths.__code__:
            return True
        frame = frame.f_back
    return False


class TestCollectorPause:
    """A pass runs no cyclic collection and leaves the collector as it
    found it."""

    def test_no_collection_starts_inside_a_pass(self, tree, collector):
        inside: list[int] = []

        def hook(phase: str, info: dict) -> None:
            if phase == "start" and in_lint_paths():
                inside.append(info["generation"])

        gc.callbacks.append(hook)
        try:
            lint(tree)  # cold
            lint(tree)  # warm
        finally:
            gc.callbacks.remove(hook)
        assert inside == []

    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    def test_the_collector_is_left_as_found(self, tree, collector, enabled):
        if not enabled:
            gc.disable()
        lint(tree)
        assert gc.isenabled() is enabled

    def test_the_collector_comes_back_when_a_rule_raises(
        self, tree, collector, monkeypatch
    ):
        def fail(self, project):
            raise RuntimeError("rule failed")

        monkeypatch.setattr(LifecycleRule, "check_project", fail)
        with pytest.raises(RuntimeError, match="rule failed"):
            lint(tree)
        assert gc.isenabled()


#: Keys and entries that exercise every escape of the JSON encoder.
ESCAPED_ENTRIES = {
    'repro.q"uote:ab': {"path": 'src/"q".py', "text": "back\\slash\\"},
    "repro.caf\u00e9:\u2603": {"s": "caf\u00e9 \U0001f600", "t": ["\u2028"]},
    "ctl\x00\x1f\t\n\r\x7f": {"c": "\x00\x01\b\f\n\r\t\x1f\x7f", "n": [1, None]},
}


class TestCacheWrite:
    """The entry-by-entry write is ``json.dumps(doc, separators=(",",
    ":"))``, byte for byte."""

    @pytest.mark.parametrize(
        "entries", [{}, ESCAPED_ENTRIES], ids=["empty", "escapes"]
    )
    def test_file_is_the_compact_document(self, tmp_path, entries):
        path = tmp_path / "semantic.json"
        versions = {"devtools": 'd\u00e9v"\\'}
        cache = AnalysisCache(path, versions=versions)
        cache.put("stale", {})
        cache.prune(set())  # dirty, and empty
        for key, entry in entries.items():
            cache.put(key, entry)
            cache.put_result(key, key, [(key, 1)])
        cache.save()

        doc = {"version": CACHE_VERSION, "analysis_versions": versions,
               "entries": entries,
               "results": {key: {"inputs": key, "value": [[key, 1]]}
                           for key in entries}}
        assert path.read_bytes() == json.dumps(doc, separators=(",", ":")).encode()
        reloaded = AnalysisCache(path, versions=versions)
        assert reloaded.items() == list(entries.items())
        for key in entries:
            assert reloaded.result(key, key, (str, int)) == [(key, 1)]

    def test_a_pass_writes_the_file_at_most_once(self, tree, monkeypatch):
        writes: list[str] = []

        def probe(src, dst, *args, _orig=os.replace, **kwargs):
            if Path(dst) == tree / CACHE_RELPATH:
                writes.append(src)
            return _orig(src, dst, *args, **kwargs)

        monkeypatch.setattr(os, "replace", probe)
        lint(tree)  # cold: summaries and results in one write
        assert len(writes) == 1
        lint(tree)  # warm: nothing new to write
        assert len(writes) == 1


STATEMENT_KINDS = (ast.mod, ast.stmt, ast.excepthandler, ast.match_case)

#: Every block a statement can sit in, nested in every other kind.
EVERY_BLOCK = """
import os
class C(Base):
    x: int = 1
    def m(self):
        self.y: int = 2
        if a:
            pass
        elif b:
            pass
        else:
            pass
        for i in j:
            continue
        else:
            pass
        while k:
            break
        else:
            pass
        try:
            pass
        except E as e:
            pass
        except F:
            pass
        else:
            pass
        finally:
            pass
        with a as b, c:
            pass
        match v:
            case [1, *rest] if rest:
                pass
            case {"k": D(x=1)}:
                pass
            case _:
                pass
    async def n(self):
        async for i in j:
            pass
        else:
            pass
        async with a:
            pass
def f():
    def g():
        return lambda: [x for x in y]
    return g
""" + ("""
try:
    pass
except* G:
    pass
""" if sys.version_info >= (3, 11) else "")


def statements_by_walk(tree: ast.AST) -> list[ast.AST]:
    """The reference: ``ast.walk``'s nodes that are statements."""
    return [node for node in ast.walk(tree) if isinstance(node, STATEMENT_KINDS)]


class TestIterStatements:
    """``iter_statements`` is ``ast.walk`` filtered to statements: the
    same nodes, in the same order."""

    def test_every_block_kind(self):
        tree = ast.parse(EVERY_BLOCK)
        assert list(iter_statements(tree)) == statements_by_walk(tree)
        kinds = {type(node) for node in iter_statements(tree)}
        assert {ast.ExceptHandler, ast.match_case, ast.AsyncFor,
                ast.AsyncWith, ast.While, ast.Try} <= kinds
        for node in iter_statements(tree):  # subtrees, as for methods
            assert list(iter_statements(node)) == statements_by_walk(node)

    def test_matches_ast_walk_on_the_repository(self):
        files = [path for top in ("src", "tests", "scripts")
                 for path in sorted((REPO_ROOT / top).rglob("*.py"))]
        assert len(files) > 100
        for path in files:
            tree = ast.parse(path.read_text())
            assert list(iter_statements(tree)) == statements_by_walk(tree), path
