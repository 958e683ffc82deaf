"""Tests for repro.devtools.semantic: the whole-program analysis layer.

Covers the per-file summary extraction and its content-hash cache, the
project import/call graph (facade chasing, worker detection), the three
semantic rules — R009 (MemTxn lifecycle), R010 (cross-process races),
R011 (typed-core annotations) — with a known-bad/known-clean fixture
pair per failure mode, the mutation test that seeds a lifecycle bug
into the *real* engine and asserts R009 trips, the statement-extent
``# repro: noqa`` satellite, the CLI exit codes, and the repo-level
gate: the real tree passes every semantic rule clean.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

import pytest

from repro.devtools import Finding, lint_paths
from repro.devtools.context import FileContext, ProjectContext
from repro.devtools.linter import main
from repro.devtools.semantic.cache import (
    CACHE_VERSION,
    AnalysisCache,
    content_digest,
)
from repro.devtools.semantic.graph import build_graph, graph_for_project
from repro.devtools.semantic.lifecycle import analyze_engine
from repro.devtools.semantic.summary import summarize_file
from repro.devtools.semantic.typegate import (
    TypeGateResult,
    run_type_gate,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
ENGINE_PATH = REPO_ROOT / "src" / "repro" / "sim" / "engine.py"


def lint_tree(tmp_path: Path, files: dict[str, str], select=None) -> list[Finding]:
    """Write ``files`` under a temp project root and lint them."""
    for relpath, content in files.items():
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content)
    (tmp_path / "pyproject.toml").touch()
    return lint_paths(
        [tmp_path], root=tmp_path, select=select, semantic_cache=False
    )


def contexts_for(tmp_path: Path, files: dict[str, str]) -> ProjectContext:
    ctxs = []
    for relpath, content in files.items():
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content)
        ctxs.append(
            FileContext(
                path=path.resolve(),
                relpath=Path(relpath),
                source=content,
                tree=ast.parse(content),
            )
        )
    project = ProjectContext(root=tmp_path, files=ctxs)
    project.semantic_cache_path = None
    return project


# --- summaries and cache ------------------------------------------------------


class TestSummary:
    def test_imports_and_mutable_globals(self):
        src = (
            "import numpy as np\n"
            "from repro.exec import run_jobs\n"
            "CACHE = {}\n"
            "LIMIT = 3\n"
        )
        s = summarize_file("repro.x", "src/repro/x.py", ast.parse(src))
        assert s.imports["np"] == "numpy"
        assert s.imports["run_jobs"] == "repro.exec.run_jobs"
        assert "CACHE" in s.mutable_globals
        assert "LIMIT" not in s.mutable_globals

    def test_calls_arg_refs_and_mutations(self):
        src = (
            "STATE = {}\n"
            "def f(spec):\n"
            "    STATE[spec] = 1\n"
            "    queue.append(spec)\n"
            "    run_jobs(worker, specs)\n"
        )
        s = summarize_file("repro.x", "x.py", ast.parse(src))
        info = s.functions["f"]
        call = [c for c in info.calls if c["name"] == "run_jobs"][0]
        assert call["arg_refs"] == ["worker", "specs"]
        targets = {m["target"] for m in info.mutations}
        assert {"STATE", "queue"} <= targets

    def test_write_detection(self):
        src = (
            "def f(p):\n"
            "    open(p)\n"
            "    open(p, 'w')\n"
            "    p.write_text('x')\n"
        )
        s = summarize_file("repro.x", "x.py", ast.parse(src))
        kinds = [w["kind"] for w in s.functions["f"].writes]
        assert kinds == ["open", "write_text"]  # read-mode open ignored

    def test_nested_defs_flattened_and_methods_qualified(self):
        src = (
            "class C:\n"
            "    def m(self):\n"
            "        def inner():\n"
            "            log.append(1)\n"
            "        inner()\n"
        )
        s = summarize_file("repro.x", "x.py", ast.parse(src))
        assert set(s.functions) == {"C.m"}
        assert any(m["target"] == "log" for m in s.functions["C.m"].mutations)
        assert s.classes["C"] == ["m"]

    def test_constructor_typed_local_rewrites_method_call(self):
        src = (
            "from repro.sim.engine import Simulator\n"
            "def go(cfg):\n"
            "    sim = Simulator(cfg)\n"
            "    return sim.run(100)\n"
        )
        s = summarize_file("repro.x", "x.py", ast.parse(src))
        names = {c["name"] for c in s.functions["go"].calls}
        assert "Simulator.run" in names

    def test_summary_json_roundtrip(self):
        src = "X = []\ndef f(a):\n    X.append(a)\n"
        s = summarize_file("repro.x", "x.py", ast.parse(src))
        from repro.devtools.semantic.summary import FileSummary

        restored = FileSummary.from_dict(json.loads(json.dumps(s.to_dict())))
        assert restored.to_dict() == s.to_dict()


class TestCache:
    def test_roundtrip_and_hit_counters(self, tmp_path):
        cache = AnalysisCache(tmp_path / "c.json")
        d = content_digest("x = 1\n")
        assert cache.get(d) is None
        cache.put(d, {"module": "m"})
        cache.save()
        reloaded = AnalysisCache(tmp_path / "c.json")
        assert reloaded.get(d) == {"module": "m"}
        assert reloaded.hits == 1 and cache.misses == 1

    def test_corrupt_and_version_mismatch_degrade_to_empty(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text("{not json")
        assert len(AnalysisCache(p)) == 0
        p.write_text(json.dumps({"version": CACHE_VERSION + 1, "entries": {"a": 1}}))
        assert len(AnalysisCache(p)) == 0

    def test_prune_drops_dead_entries(self, tmp_path):
        cache = AnalysisCache(tmp_path / "c.json")
        cache.put("live", 1)
        cache.put("dead", 2)
        cache.prune({"live"})
        assert cache.get("live") == 1
        assert cache.get("dead") is None

    def test_none_path_disables_persistence(self):
        cache = AnalysisCache(None)
        cache.put("d", 1)
        cache.save()  # must not raise

    def test_results_are_kept_apart_from_the_hit_counts(self, tmp_path):
        cache = AnalysisCache(tmp_path / "c.json")
        cache.put_result("R009", "inputs", [(1, 0, "m")])
        cache.save()
        reloaded = AnalysisCache(tmp_path / "c.json")
        row = (int, int, str)
        assert reloaded.result("R009", "other inputs", row) is None
        assert reloaded.result("units", "inputs", row) is None
        assert reloaded.result("R009", "inputs", (int, int)) is None
        assert reloaded.result("R009", "inputs", (str, int, str)) is None
        assert reloaded.result("R009", "inputs", row) == [(1, 0, "m")]
        assert (reloaded.hits, reloaded.misses, len(reloaded)) == (0, 0, 0)

    def test_second_build_hits_cache(self, tmp_path):
        files = {"src/repro/a.py": "def f() -> int:\n    return 1\n"}
        project = contexts_for(tmp_path, files)
        cache_path = tmp_path / "cache.json"
        cache = AnalysisCache(cache_path)
        g1 = build_graph(project.files, cache)
        assert g1.cache_misses == 1
        cache.save()  # by its owner: a lint pass saves once, at its end
        g2 = build_graph(project.files, AnalysisCache(cache_path))
        assert g2.cache_hits == 1 and g2.cache_misses == 0
        assert g2.to_dict()["functions"] == g1.to_dict()["functions"]


# --- project graph ------------------------------------------------------------


_POOL = "def run_jobs(worker, specs, n_jobs=None):\n    return [worker(s) for s in specs]\n"


class TestGraph:
    def test_facade_chase_and_worker_detection(self, tmp_path):
        project = contexts_for(tmp_path, {
            "src/repro/exec/pool.py": _POOL,
            "src/repro/exec/__init__.py": "from repro.exec.pool import run_jobs\n",
            "src/repro/exec/sweep.py": (
                "from repro.exec import run_jobs\n"
                "def worker(s):\n    return s\n"
                "def sweep(specs):\n    return run_jobs(worker, specs)\n"
            ),
        })
        g = graph_for_project(project)
        # facade: repro.exec.run_jobs resolves through __init__ to pool
        assert g.chase("repro.exec.run_jobs") == "repro.exec.pool.run_jobs"
        assert "repro.exec.sweep.worker" in g.workers
        assert "repro.exec.sweep.worker" in g.worker_reachable()

    def test_self_and_constructed_resolution(self, tmp_path):
        project = contexts_for(tmp_path, {
            "src/repro/m.py": (
                "class C:\n"
                "    def a(self):\n        return self.b()\n"
                "    def b(self):\n        return 1\n"
                "def use():\n"
                "    c = C()\n"
                "    return c.a()\n"
            ),
        })
        g = graph_for_project(project)
        assert "repro.m.C.b" in g.calls["repro.m.C.a"]
        assert "repro.m.C.a" in g.calls["repro.m.use"]

    def test_partial_keeps_ordinary_edge(self, tmp_path):
        project = contexts_for(tmp_path, {
            "src/repro/exec/pool.py": (
                "from functools import partial\n"
                "def _timed(worker, spec):\n    return worker(spec)\n"
                "def run(worker, specs):\n"
                "    call = partial(_timed, worker)\n"
                "    return [call(s) for s in specs]\n"
            ),
        })
        g = graph_for_project(project)
        assert "repro.exec.pool._timed" in g.calls["repro.exec.pool.run"]
        assert "repro.exec.pool._timed" not in g.workers

    def test_to_dict_shape(self, tmp_path):
        project = contexts_for(tmp_path, {
            "src/repro/a.py": "from repro import b\ndef f():\n    return b.g()\n",
            "src/repro/b.py": "def g():\n    return 1\n",
        })
        doc = graph_for_project(project).to_dict()
        assert {"from": "repro.a", "to": "repro.b"} in doc["imports"]
        assert {"from": "repro.a.f", "to": "repro.b.g"} in doc["calls"]
        assert set(doc) == {
            "modules", "functions", "imports", "calls", "workers",
            "worker_reachable", "cache",
        }

    def test_memoized_on_project(self, tmp_path):
        project = contexts_for(tmp_path, {"src/repro/a.py": "def f():\n    pass\n"})
        assert graph_for_project(project) is graph_for_project(project)


# --- R009: MemTxn lifecycle ---------------------------------------------------


def _mini_engine(dispatch_b: str, extra_stage: str = "") -> str:
    """A minimal engine module exercising the R009 contract."""
    return (
        "class MemTxn:\n"
        "    COMPUTE = 0\n"
        "    RETIRE = 1\n"
        f"{extra_stage}"
        "    __slots__ = ('stage',)\n"
        "\n"
        "_COMPUTE = MemTxn.COMPUTE\n"
        "_RETIRE = MemTxn.RETIRE\n"
        "\n"
        "class Simulator:\n"
        "    def _dispatch(self, txn, now):\n"
        "        stage = txn.stage\n"
        "        if stage == _COMPUTE:\n"
        "            txn.stage = _RETIRE\n"
        "            self._queue.push(now + 1.0, txn)\n"
        "            return\n"
        "        if stage == _RETIRE:\n"
        f"{dispatch_b}"
        "            return\n"
    )


_ENGINE_RELPATH = "src/repro/sim/engine.py"


class TestLifecycleRule:
    def test_clean_mini_engine_passes(self, tmp_path):
        files = {_ENGINE_RELPATH: _mini_engine(
            "            self._txn_pool.append(txn)\n"
        )}
        assert lint_tree(tmp_path, files, select=["R009"]) == []

    def test_leaked_txn_trips(self, tmp_path):
        files = {_ENGINE_RELPATH: _mini_engine(
            "            pass\n"
        )}
        findings = lint_tree(tmp_path, files, select=["R009"])
        assert any("leak" in f.message for f in findings)

    def test_double_release_trips(self, tmp_path):
        files = {_ENGINE_RELPATH: _mini_engine(
            "            self._txn_pool.append(txn)\n"
            "            self._txn_pool.append(txn)\n"
        )}
        findings = lint_tree(tmp_path, files, select=["R009"])
        assert any("release" in f.message for f in findings)

    def test_use_after_release_trips(self, tmp_path):
        files = {_ENGINE_RELPATH: _mini_engine(
            "            self._txn_pool.append(txn)\n"
            "            txn.stage = _COMPUTE\n"
        )}
        findings = lint_tree(tmp_path, files, select=["R009"])
        assert any("use-after-release" in f.message for f in findings)

    def test_unhandled_stage_trips(self, tmp_path):
        files = {_ENGINE_RELPATH: _mini_engine(
            "            self._txn_pool.append(txn)\n",
            extra_stage="    ORPHAN = 2\n",
        )}
        findings = lint_tree(tmp_path, files, select=["R009"])
        assert any("ORPHAN" in f.message for f in findings)

    def test_rule_only_fires_on_engine_module(self, tmp_path):
        files = {"src/repro/sim/other.py": _mini_engine("            pass\n")}
        assert lint_tree(tmp_path, files, select=["R009"]) == []


_RELEASE = "        chan.enqueue(req, now)\n        self._txn_pool.append(txn)\n"
_WALK = "                txn = nxt\n                now = txn.due\n"
_LINK_END = "                if nxt is None:\n                    return\n"

#: Lifecycle bugs seeded into the shipped engine: name -> (needle, its
#: replacement, words of the finding R009 must report).
ENGINE_MUTATIONS = {
    "dropping_pool_release": (
        "                mshr.merges += 1\n"
        "                self._txn_pool.append(txn)\n",
        "                mshr.merges += 1\n",
        "leak",
    ),
    "use_after_release": (
        _RELEASE, _RELEASE + "        txn.stage = _RETRY_DRAM\n",
        "use-after-release",
    ),
    # The second append reads the released transaction first.
    "double_release": (
        _RELEASE, _RELEASE + "        self._txn_pool.append(txn)\n",
        "use-after-release",
    ),
    "releasing_chain_follower": (
        _WALK, _WALK + "                self._txn_pool.append(txn)\n",
        "must never be released",
    ),
    "releasing_link_read": (
        _LINK_END, "                self._txn_pool.append(nxt)\n" + _LINK_END,
        "must never be released",
    ),
}


def mutated_engine(name: str) -> str:
    needle, replacement, _ = ENGINE_MUTATIONS[name]
    source = ENGINE_PATH.read_text()
    assert needle in source, "engine changed: update the mutation seed"
    return source.replace(needle, replacement, 1)


class TestLifecycleOnRealEngine:
    """The acceptance gate: the shipped engine passes; a seeded
    lifecycle mutation in ``Simulator._dispatch`` trips R009."""

    def test_real_engine_is_clean(self):
        analysis = analyze_engine(ast.parse(ENGINE_PATH.read_text()))
        assert analysis.findings == []
        # The stage machine was actually extracted, not vacuously empty.
        assert len(analysis.stages) == 8
        assert analysis.handled == set(analysis.stages)
        assert analysis.pooled and analysis.warp_owned
        assert analysis.transitions

    def test_mutation_dropping_pool_release_trips(self):
        analysis = analyze_engine(ast.parse(mutated_engine("dropping_pool_release")))
        assert any("leak" in msg for _, _, msg in analysis.findings)

    def test_mutation_use_after_release_trips(self):
        analysis = analyze_engine(ast.parse(mutated_engine("use_after_release")))
        assert any("use-after-release" in msg for _, _, msg in analysis.findings)

    def test_mutation_double_release_trips(self):
        analysis = analyze_engine(ast.parse(mutated_engine("double_release")))
        assert analysis.findings

    def test_mutation_releasing_chain_follower_trips(self):
        # The COMPUTE_DONE stride walk rebinds the dispatch parameter
        # (`txn = nxt`); ownership must follow the chain so releasing a
        # warp-owned follower record is still caught.
        analysis = analyze_engine(
            ast.parse(mutated_engine("releasing_chain_follower"))
        )
        assert any(
            "must never be released" in msg
            for _, _, msg in analysis.findings
        )

    def test_mutation_releasing_link_read_trips(self):
        # Releasing the raw `.link` read (`nxt`) before the walk
        # advances is the same bug under a different name: the record
        # belongs to another warp's recurring compute transaction.
        analysis = analyze_engine(ast.parse(mutated_engine("releasing_link_read")))
        assert any(
            "must never be released" in msg
            for _, _, msg in analysis.findings
        )

    @pytest.mark.parametrize("name", sorted(ENGINE_MUTATIONS))
    def test_mutation_trips_cold_and_cached_passes(self, tmp_path, name):
        # R009 replays its findings while the engine is unchanged: a
        # mutation after a clean pass must trip it, and so must the
        # replay of the record that pass stores.
        engine = tmp_path / "src" / "repro" / "sim" / "engine.py"
        engine.parent.mkdir(parents=True)
        engine.write_text(ENGINE_PATH.read_text())
        (tmp_path / "pyproject.toml").touch()

        def r009() -> list[str]:
            found = lint_paths([tmp_path / "src"], root=tmp_path, select=["R009"])
            return [f.message for f in found]

        assert r009() == []
        engine.write_text(mutated_engine(name))
        cold = r009()
        assert any(ENGINE_MUTATIONS[name][2] in msg for msg in cold)
        assert r009() == cold


# --- R010: cross-process races ------------------------------------------------


class TestRaceRule:
    def _tree(self, worker_body: str) -> dict[str, str]:
        return {
            "src/repro/exec/pool.py": _POOL,
            "src/repro/obs/metrics.py": "def set_metrics(r):\n    pass\n",
            "src/repro/exec/state.py": "CACHE = {}\n",
            "src/repro/exec/sweep.py": (
                "from repro.exec.pool import run_jobs\n"
                "from repro.exec import state\n"
                "from repro.obs.metrics import set_metrics\n"
                "_SEEN = []\n"
                "def worker(spec):\n"
                f"{worker_body}"
                "    return spec\n"
                "def sweep(specs):\n"
                "    return run_jobs(worker, specs)\n"
            ),
        }

    def test_clean_worker_passes(self, tmp_path):
        findings = lint_tree(
            tmp_path, self._tree("    x = spec * 2\n"), select=["R010"]
        )
        assert findings == []

    def test_same_module_global_mutation_trips(self, tmp_path):
        findings = lint_tree(
            tmp_path, self._tree("    _SEEN.append(spec)\n"), select=["R010"]
        )
        assert any("_SEEN" in f.message for f in findings)

    def test_imported_module_global_trips(self, tmp_path):
        findings = lint_tree(
            tmp_path, self._tree("    state.CACHE[spec] = 1\n"), select=["R010"]
        )
        assert any("state.CACHE" in f.message for f in findings)

    def test_ambient_installer_trips(self, tmp_path):
        findings = lint_tree(
            tmp_path, self._tree("    set_metrics(None)\n"), select=["R010"]
        )
        assert any("set_metrics" in f.message for f in findings)

    def test_raw_write_in_worker_trips(self, tmp_path):
        findings = lint_tree(
            tmp_path, self._tree("    open('o.txt', 'w')\n"), select=["R010"]
        )
        assert any("file write" in f.message for f in findings)

    def test_path_object_writes_in_worker_trip(self, tmp_path):
        for body in (
            "    spec.open('w')\n",
            "    Path(spec).write_text('x')\n",
        ):
            files = self._tree(body)
            files["src/repro/exec/sweep.py"] = (
                "from pathlib import Path\n" + files["src/repro/exec/sweep.py"]
            )
            findings = lint_tree(tmp_path, files, select=["R010"])
            assert [f.line for f in findings] == [7], body
            assert "file write" in findings[0].message

    def test_parent_side_mutation_is_fine(self, tmp_path):
        # Mutating a module global in the *parent* (sweep) is allowed.
        files = self._tree("    x = spec\n")
        files["src/repro/exec/sweep.py"] = files["src/repro/exec/sweep.py"].replace(
            "    return run_jobs(worker, specs)\n",
            "    out = run_jobs(worker, specs)\n"
            "    _SEEN.extend(out)\n"
            "    return out\n",
        )
        assert lint_tree(tmp_path, files, select=["R010"]) == []


# --- R011: typed-core annotations ---------------------------------------------


class TestTypedCoreRule:
    def test_unannotated_public_function_trips(self, tmp_path):
        files = {"src/repro/sim/thing.py": "def f(x):\n    return x\n"}
        findings = lint_tree(tmp_path, files, select=["R011"])
        assert len(findings) == 2  # missing param + missing return

    def test_annotated_function_passes(self, tmp_path):
        files = {"src/repro/sim/thing.py": "def f(x: int) -> int:\n    return x\n"}
        assert lint_tree(tmp_path, files, select=["R011"]) == []

    def test_private_and_nested_exempt(self, tmp_path):
        files = {"src/repro/sim/thing.py": (
            "def _helper(x):\n    return x\n"
            "def f() -> int:\n"
            "    def inner(y):\n        return y\n"
            "    return inner(1)\n"
        )}
        assert lint_tree(tmp_path, files, select=["R011"]) == []

    def test_init_needs_params_but_not_return(self, tmp_path):
        files = {"src/repro/exec/thing.py": (
            "class Job:\n"
            "    def __init__(self, n: int):\n"
            "        self.n = n\n"
        )}
        assert lint_tree(tmp_path, files, select=["R011"]) == []
        files = {"src/repro/exec/thing.py": (
            "class Job:\n"
            "    def __init__(self, n):\n"
            "        self.n = n\n"
        )}
        findings = lint_tree(tmp_path, files, select=["R011"])
        assert len(findings) == 1 and "'n'" in findings[0].message

    def test_private_class_and_other_packages_exempt(self, tmp_path):
        files = {
            "src/repro/sim/thing.py": (
                "class _Impl:\n"
                "    def run(self, x):\n        return x\n"
            ),
            "src/repro/metrics/thing.py": "def f(x):\n    return x\n",
        }
        assert lint_tree(tmp_path, files, select=["R011"]) == []


# --- type gate (mypy ratchet) -------------------------------------------------


class TestTypeGate:
    def test_skips_cleanly_without_mypy(self, tmp_path, monkeypatch):
        import repro.devtools.semantic.typegate as tg

        monkeypatch.setattr(tg, "mypy_available", lambda: False)
        result = run_type_gate(tmp_path)
        assert result.ok
        assert any("not installed" in m for m in result.messages)

    def test_new_diagnostic_fails_and_update_ratchets(self, tmp_path, monkeypatch):
        import repro.devtools.semantic.typegate as tg

        monkeypatch.setattr(tg, "mypy_available", lambda: True)
        key = "src/repro/sim/engine.py|arg-type|bad call"
        monkeypatch.setattr(tg, "_run_mypy", lambda root: ([key], "raw"))
        result = run_type_gate(tmp_path)
        assert not result.ok and result.new == [key]

        result = run_type_gate(tmp_path, update_baseline=True)
        assert result.ok
        baseline = tmp_path / tg.BASELINE_RELPATH
        assert key in baseline.read_text()
        # Same diagnostics now baselined: the gate is green.
        assert run_type_gate(tmp_path).ok
        # Fixing the diagnostic never fails the gate.
        monkeypatch.setattr(tg, "_run_mypy", lambda root: ([], ""))
        result = run_type_gate(tmp_path)
        assert result.ok and result.fixed == [key]

    def test_normalize_strips_line_numbers(self):
        from repro.devtools.semantic.typegate import _normalize

        key = _normalize(
            "src/repro/sim/engine.py:187: error: Missing type parameters  [type-arg]"
        )
        assert key == "src/repro/sim/engine.py|type-arg|Missing type parameters"
        assert _normalize("note: See https://example") is None

    def test_gate_result_default_lists(self):
        r = TypeGateResult(True, ["m"])
        assert r.new == [] and r.fixed == []


# --- satellite: statement-extent noqa ----------------------------------------


class TestMultilineNoqa:
    _BAD = (
        "def f(x: float) -> bool:\n"
        "    ok = (\n"
        "        x == 0.1\n"
        "    )\n"
        "    return ok\n"
    )

    def test_unsuppressed_continuation_line_trips(self, tmp_path):
        files = {"src/repro/sim/t.py": self._BAD}
        findings = lint_tree(tmp_path, files, select=["R002"])
        assert [f.line for f in findings] == [3]

    def test_header_noqa_covers_continuation_lines(self, tmp_path):
        files = {"src/repro/sim/t.py": self._BAD.replace(
            "ok = (", "ok = (  # repro: noqa[R002]"
        )}
        assert lint_tree(tmp_path, files, select=["R002"]) == []

    def test_wrong_rule_id_does_not_suppress(self, tmp_path):
        files = {"src/repro/sim/t.py": self._BAD.replace(
            "ok = (", "ok = (  # repro: noqa[R001]"
        )}
        findings = lint_tree(tmp_path, files, select=["R002"])
        assert [f.line for f in findings] == [3]

    def test_compound_header_noqa_does_not_cover_suite(self, tmp_path):
        src = (
            "def f(x: float) -> bool:  # repro: noqa\n"
            "    return x == 0.1\n"
        )
        files = {"src/repro/sim/t.py": src}
        findings = lint_tree(tmp_path, files, select=["R002"])
        assert [f.line for f in findings] == [2]


# --- satellite: CLI exit codes ------------------------------------------------


class TestCliPaths:
    def test_missing_path_exits_2(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope")]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_no_python_files_exits_2(self, tmp_path, capsys):
        (tmp_path / "data.txt").write_text("x")
        assert main([str(tmp_path)]) == 2
        assert "no Python files" in capsys.readouterr().err

    def test_graph_artifacts_written(self, tmp_path, capsys):
        (tmp_path / "pyproject.toml").touch()
        src_dir = tmp_path / "src" / "repro"
        src_dir.mkdir(parents=True)
        (src_dir / "a.py").write_text("def f() -> int:\n    return 1\n")
        out_dir = tmp_path / "graphs"
        code = main([
            str(tmp_path), "--root", str(tmp_path),
            "--graph", "--graph-dir", str(out_dir),
            "--no-semantic-cache",
        ])
        assert code == 0
        doc = json.loads((out_dir / "project_graph.json").read_text())
        assert "repro.a.f" in doc["functions"]

    def test_types_flag_reports_gate(self, tmp_path, capsys, monkeypatch):
        import repro.devtools.semantic.typegate as tg

        monkeypatch.setattr(tg, "mypy_available", lambda: False)
        (tmp_path / "pyproject.toml").touch()
        src_dir = tmp_path / "src" / "repro"
        src_dir.mkdir(parents=True)
        (src_dir / "a.py").write_text("def f() -> int:\n    return 1\n")
        code = main([str(tmp_path), "--root", str(tmp_path), "--types",
                     "--no-semantic-cache"])
        assert code == 0
        assert "type gate" in capsys.readouterr().out


# --- repo-level gate ----------------------------------------------------------


class TestRealTree:
    def test_semantic_rules_clean_on_real_tree(self):
        findings = lint_paths(
            [REPO_ROOT / "src", REPO_ROOT / "tests", REPO_ROOT / "scripts"],
            root=REPO_ROOT,
            select=["R009", "R010", "R011", "R012", "R013",
                    "R014", "R015", "R016"],
            semantic_cache=False,
        )
        assert findings == [], [f.render() for f in findings]

    def test_real_worker_closure_contains_engine_run(self):
        files = []
        for p in sorted((REPO_ROOT / "src").rglob("*.py")):
            source = p.read_text()
            files.append(
                FileContext(
                    path=p.resolve(),
                    relpath=p.relative_to(REPO_ROOT),
                    source=source,
                    tree=ast.parse(source),
                )
            )
        project = ProjectContext(root=REPO_ROOT, files=files)
        project.semantic_cache_path = None
        g = graph_for_project(project)
        assert "repro.exec.jobs.run_sim_job" in g.workers
        assert "repro.sim.engine.Simulator.run" in g.worker_reachable()
