"""Tests for repro.devtools.semantic.effects: R014-R016, and the R001 /
R010 views of the same summaries.

Covers the summary effect events (stream classification, context
flags), transitive propagation over the call graph (including
constructor edges and the telemetry boundary), the three rules on
known-bad/known-clean fixture trees, the noqa-justification convention,
the R016 baseline ratchet, the AnalysisCache corrupt-entry hardening,
the ``effects_graph.json`` artifact, and the real-tree mutation gates: a ``time.time()`` seed
injected into ``experiments/common.py`` trips R014 through two call
hops, a set-iteration draw in ``arrivals.py`` trips R015, an env read
reachable from ``_fingerprint`` trips R016, a ``perf_counter()`` read
in ``sim/dram.py`` trips R001, and dropping the two ``noqa[R010]``
comments from ``core/policy.py`` exposes exactly those two R010
findings — each pinned to file:line.  The warp stream's inlined
``getrandbits`` draws must stay visible as seeded draws.
"""

from __future__ import annotations

import ast
import json
import shutil
from pathlib import Path

import pytest

from repro.devtools import Finding, lint_paths
from repro.devtools.context import FileContext, ProjectContext
from repro.devtools.linter import main
from repro.devtools.semantic.effects import (
    BASELINE_RELPATH,
    DrawOrderRule,
    EffectTaintRule,
    FingerprintPurityRule,
    effects_graph_doc,
    effects_world_for,
    update_baseline,
    validate_effects_graph,
)
from repro.devtools.semantic.graph import _load_cached_summary
from repro.devtools.semantic.summary import summarize_file

REPO_ROOT = Path(__file__).resolve().parents[1]
COMMON_PATH = REPO_ROOT / "src" / "repro" / "experiments" / "common.py"
ARRIVALS_PATH = REPO_ROOT / "src" / "repro" / "workloads" / "arrivals.py"
DRAM_PATH = REPO_ROOT / "src" / "repro" / "sim" / "dram.py"
SYNTHETIC_PATH = REPO_ROOT / "src" / "repro" / "workloads" / "synthetic.py"


def lint_tree(tmp_path: Path, files: dict[str, str], select=None) -> list[Finding]:
    for relpath, content in files.items():
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content)
    (tmp_path / "pyproject.toml").touch()
    return lint_paths(
        [tmp_path], root=tmp_path, select=select, semantic_cache=False,
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


def summarize(src: str, module: str = "repro.x"):
    return summarize_file(module, "src/repro/x.py", ast.parse(src))


# --- summary effect events ----------------------------------------------------


class TestEffectEvents:
    def test_ambient_vs_seeded_streams(self):
        src = (
            "import random\n"
            "def amb():\n"
            "    return random.random()\n"
            "def sdd(seed):\n"
            "    rng = random.Random(seed)\n"
            "    return rng.gauss(0, 1)\n"
        )
        s = summarize(src)
        (amb,) = s.functions["amb"].effects
        assert amb["kind"] == "rng-draw" and amb["stream"] == "ambient"
        (sdd,) = s.functions["sdd"].effects
        assert sdd["stream"] == "seeded" and sdd["source"] == "rng.gauss"

    def test_numpy_alias_classification(self):
        src = (
            "import numpy as np\n"
            "def sdd(seed):\n"
            "    g = np.random.default_rng(seed)\n"
            "    return g.normal()\n"
            "def amb():\n"
            "    return np.random.rand(3)\n"
        )
        s = summarize(src)
        assert s.functions["sdd"].effects[0]["stream"] == "seeded"
        assert s.functions["amb"].effects[0]["stream"] == "ambient"

    def test_system_random_is_entropy_stream(self):
        src = (
            "import random\n"
            "def f():\n"
            "    sr = random.SystemRandom()\n"
            "    return sr.random()\n"
        )
        (event,) = summarize(src).functions["f"].effects
        assert event["stream"] == "system"

    def test_clock_through_from_import_alias(self):
        src = (
            "from time import perf_counter\n"
            "def f():\n"
            "    return perf_counter()\n"
        )
        (event,) = summarize(src).functions["f"].effects
        assert event["kind"] == "clock"
        assert event["source"] == "time.perf_counter"

    def test_env_read_via_subscript_and_getenv(self):
        src = (
            "import os\n"
            "def f():\n"
            "    a = os.environ['HOME']\n"
            "    return a, os.getenv('X'), os.environ.get('Y')\n"
        )
        kinds = [e["kind"] for e in summarize(src).functions["f"].effects]
        assert kinds == ["env", "env", "env"]

    def test_unordered_flag_on_set_iteration(self):
        src = (
            "import random\n"
            "def f(rng):\n"
            "    out = []\n"
            "    for x in {1, 2, 3}:\n"
            "        out.append(rng.random())\n"
            "    return out\n"
        )
        (event,) = summarize(src).functions["f"].effects
        assert event["stream"] == "attr" and event.get("unordered") is True

    def test_annassign_set_local_tracked(self):
        src = (
            "def f(rng, n):\n"
            "    live: set = set(range(n))\n"
            "    return [rng.random() for x in live]\n"
        )
        (event,) = summarize(src).functions["f"].effects
        assert event.get("unordered") is True

    def test_clock_dep_flag_on_branch(self):
        src = (
            "import time, random\n"
            "def f(rng):\n"
            "    if time.time() > 0:\n"
            "        return rng.random()\n"
            "    return 0.0\n"
        )
        events = summarize(src).functions["f"].effects
        draw = [e for e in events if e["kind"] == "rng-draw"][0]
        assert draw.get("clock_dep") is True
        # ... but the draw outside the branch is unflagged.
        assert not [e for e in events if e["kind"] == "clock"
                    and e.get("clock_dep")]

    def test_bound_draw_convention(self):
        src = (
            "class C:\n"
            "    def step(self):\n"
            "        return self._random()\n"
        )
        (event,) = summarize(src).functions["C.step"].effects
        assert event["kind"] == "rng-draw" and event["stream"] == "attr"

    def test_bound_getrandbits_is_a_draw(self):
        src = (
            "class C:\n"
            "    def step(self, k):\n"
            "        return self._getrandbits(k)\n"
        )
        (event,) = summarize(src).functions["C.step"].effects
        assert event["kind"] == "rng-draw" and event["stream"] == "attr"

    def test_sorted_view_is_ordered(self):
        src = (
            "def f(rng, live):\n"
            "    return [rng.random() for x in sorted(live)]\n"
        )
        (event,) = summarize(src).functions["f"].effects
        assert "unordered" not in event

    def test_effects_round_trip_through_dict(self):
        src = "import time\ndef f():\n    return time.time()\n"
        s = summarize(src)
        from repro.devtools.semantic.summary import FileSummary

        again = FileSummary.from_dict(
            json.loads(json.dumps(s.to_dict()))
        )
        assert again.functions["f"].effects == s.functions["f"].effects


# --- propagation --------------------------------------------------------------


_CLOCK_HELPER = (
    "import time\n"
    "def now():\n"
    "    return time.time()\n"
    "def salt():\n"
    "    return now()\n"
)


class TestPropagation:
    def test_two_hop_inheritance_and_chain(self, tmp_path):
        files = {
            "src/repro/util.py": _CLOCK_HELPER,
            "src/repro/top.py": (
                "from repro.util import salt\n"
                "def seed():\n"
                "    return salt()\n"
            ),
        }
        world = effects_world_for(contexts_for(tmp_path, files))
        assert "clock" in world.effects["repro.top.seed"]
        chain = world.chain("repro.top.seed", "clock")
        assert [k for _p, _ln, k in chain] == [
            "repro.top.seed", "repro.util.salt", "repro.util.now",
        ]
        assert chain[-1][0] == "src/repro/util.py"

    def test_telemetry_boundary_masks_clock_not_writes(self, tmp_path):
        files = {
            "src/repro/obs/live.py": (
                "import time\n"
                "def span():\n"
                "    t = time.perf_counter()\n"
                "    open('x', 'w')\n"
            ),
            "src/repro/sim/engine.py": (
                "from repro.obs.live import span\n"
                "def run():\n"
                "    span()\n"
            ),
        }
        world = effects_world_for(contexts_for(tmp_path, files))
        eff = world.effects["repro.sim.engine.run"]
        assert "clock" not in eff  # masked at the boundary
        assert "fs-write" in eff  # writes propagate regardless

    def test_constructor_edge_reaches_init(self, tmp_path):
        files = {
            "src/repro/core/ctrl.py": (
                "import time\n"
                "class Ctrl:\n"
                "    def __init__(self):\n"
                "        self.t0 = time.time()\n"
            ),
            "src/repro/core/mk.py": (
                "from repro.core.ctrl import Ctrl\n"
                "def make():\n"
                "    return Ctrl()\n"
            ),
        }
        world = effects_world_for(contexts_for(tmp_path, files))
        assert "clock" in world.effects["repro.core.mk.make"]


# --- R014 determinism-taint ---------------------------------------------------


class TestR014:
    _FILES = {
        "src/repro/util.py": _CLOCK_HELPER,
        "src/repro/sim/step.py": (
            "from repro.util import salt\n"
            "def advance(state):\n"
            "    state.seed = salt()\n"
        ),
    }

    def test_trips_at_source_through_two_hops(self, tmp_path):
        findings = lint_tree(tmp_path, dict(self._FILES), select=["R014"])
        assert [f.rule for f in findings] == ["R014"]
        (f,) = findings
        assert f.path == "src/repro/util.py" and f.line == 3
        assert "simulation state" in f.message
        assert "repro.sim.step.advance" in f.message

    def test_unjustified_noqa_is_inert(self, tmp_path):
        files = dict(self._FILES)
        files["src/repro/util.py"] = _CLOCK_HELPER.replace(
            "    return time.time()",
            "    return time.time()  # repro: noqa[R014]",
        )
        findings = lint_tree(tmp_path, files, select=["R014"])
        assert [f.rule for f in findings] == ["R014"]

    def test_justified_noqa_silences(self, tmp_path):
        files = dict(self._FILES)
        files["src/repro/util.py"] = _CLOCK_HELPER.replace(
            "    return time.time()",
            "    return time.time()  # repro: noqa[R014] -- display only",
        )
        assert lint_tree(tmp_path, files, select=["R014"]) == []

    def test_seeded_stream_is_not_taint(self, tmp_path):
        files = {
            "src/repro/sim/step.py": (
                "import random\n"
                "def advance(seed):\n"
                "    rng = random.Random(seed)\n"
                "    return rng.random()\n"
            ),
        }
        assert lint_tree(tmp_path, files, select=["R014"]) == []

    def test_policy_factory_audit(self, tmp_path):
        files = {
            "src/repro/util.py": _CLOCK_HELPER,
            "src/repro/core/policy.py": (
                "def register_policy(name, factory):\n"
                "    return factory\n"
            ),
            "src/repro/plugins.py": (
                "from repro.core.policy import register_policy\n"
                "from repro.util import salt\n"
                "def make_jittery(n_apps=2):\n"
                "    return salt()\n"
                "register_policy('jittery', make_jittery)\n"
            ),
        }
        findings = lint_tree(tmp_path, files, select=["R014"])
        policy = [f for f in findings if "policy factory" in f.message]
        assert len(policy) == 1
        assert policy[0].path == "src/repro/plugins.py"
        assert policy[0].line == 5
        assert "'jittery'" in policy[0].message


# --- R015 rng-draw-order ------------------------------------------------------


class TestR015:
    def test_direct_draw_in_set_iteration(self, tmp_path):
        files = {
            "src/repro/workloads/gen.py": (
                "import random\n"
                "def build(seed, ids):\n"
                "    rng = random.Random(seed)\n"
                "    return {i: rng.random() for i in set(ids)}\n"
            ),
        }
        (f,) = lint_tree(tmp_path, files, select=["R015"])
        assert (f.path, f.line) == ("src/repro/workloads/gen.py", 4)
        assert "hash order" in f.message

    def test_interprocedural_draw_under_set_loop(self, tmp_path):
        files = {
            "src/repro/workloads/helper.py": (
                "def lifetime(rng, mean):\n"
                "    return rng.expovariate(1.0 / mean)\n"
            ),
            "src/repro/sim/init.py": (
                "from repro.workloads.helper import lifetime\n"
                "def boot(rng, ids):\n"
                "    out = []\n"
                "    for i in set(ids):\n"
                "        out.append(lifetime(rng, 9.0))\n"
                "    return out\n"
            ),
        }
        findings = lint_tree(tmp_path, files, select=["R015"])
        assert [(f.path, f.line) for f in findings] == [
            ("src/repro/sim/init.py", 5)
        ]
        assert "transitively draws" in findings[0].message

    def test_draw_under_clock_branch(self, tmp_path):
        files = {
            "src/repro/sim/step.py": (
                "import os, random\n"
                "def advance(rng):\n"
                "    if os.getenv('FAST'):\n"
                "        return rng.random()\n"
                "    return 0.0\n"
            ),
        }
        (f,) = lint_tree(tmp_path, files, select=["R015"])
        assert f.line == 4 and "control flow" in f.message

    def test_outside_sim_layers_not_flagged(self, tmp_path):
        files = {
            "src/repro/obs/viz.py": (
                "def jitter(rng, ids):\n"
                "    return [rng.random() for i in set(ids)]\n"
            ),
        }
        assert lint_tree(tmp_path, files, select=["R015"]) == []


# --- R016 fingerprint purity --------------------------------------------------


_FPRINT_FILES = {
    "src/repro/experiments/common.py": (
        "import hashlib, os\n"
        "def _env_tag():\n"
        "    return os.environ.get('TAG', '')\n"
        "def _salt():\n"
        "    return _env_tag()\n"
        "def _fingerprint(*parts):\n"
        "    return hashlib.md5(repr((parts, _salt())).encode()).hexdigest()\n"
    ),
}


class TestR016:
    def test_impure_frontier_trips_without_baseline(self, tmp_path):
        findings = lint_tree(
            tmp_path, dict(_FPRINT_FILES), select=["R016"]
        )
        keys = {(f.path, f.line) for f in findings}
        # every impure function on the frontier is reported at its def
        assert ("src/repro/experiments/common.py", 6) in keys  # _fingerprint
        assert ("src/repro/experiments/common.py", 2) in keys  # _env_tag
        assert all("env" in f.message for f in findings)

    def test_baseline_accepts_and_ratchets(self, tmp_path):
        project = contexts_for(tmp_path, dict(_FPRINT_FILES))
        path, entries = update_baseline(project)
        assert path == tmp_path / BASELINE_RELPATH
        assert entries == {
            "repro.experiments.common._env_tag|env",
            "repro.experiments.common._fingerprint|env",
            "repro.experiments.common._salt|env",
        }
        # With the baseline in place the same tree lints clean ...
        findings = lint_paths(
            [tmp_path], root=tmp_path, select=["R016"],
            semantic_cache=False,
        )
        assert findings == []
        # ... and a *new* impurity still trips (the ratchet).
        worse = dict(_FPRINT_FILES)
        worse["src/repro/experiments/common.py"] = worse[
            "src/repro/experiments/common.py"
        ].replace(
            "    return hashlib.md5",
            "    open('scratch', 'w')\n    return hashlib.md5",
        )
        findings = lint_tree(tmp_path, worse, select=["R016"])
        assert findings and all("fs-write" in f.message for f in findings)

    def test_pure_frontier_is_clean(self, tmp_path):
        files = {
            "src/repro/experiments/common.py": (
                "import hashlib, json\n"
                "def _fingerprint(*parts):\n"
                "    blob = json.dumps([repr(p) for p in parts])\n"
                "    return hashlib.md5(blob.encode()).hexdigest()\n"
            ),
        }
        assert lint_tree(tmp_path, files, select=["R016"]) == []


# --- satellite: cache hardening ----------------------------------------------


class TestCacheHardening:
    def test_load_cached_summary_rejects_garbage(self):
        assert _load_cached_summary(None, "repro.x") is None
        assert _load_cached_summary("garbage", "repro.x") is None
        assert _load_cached_summary({"module": "repro.y"}, "repro.x") is None
        # partial dict: right module, missing required keys
        assert _load_cached_summary({"module": "repro.x"}, "repro.x") is None
        # malformed functions payload
        assert (
            _load_cached_summary(
                {"module": "repro.x", "path": "x.py",
                 "functions": {"f": "not-a-dict"}},
                "repro.x",
            )
            is None
        )

    def test_corrupt_entries_never_survive_a_run(self, tmp_path):
        files = {
            "src/repro/util.py": _CLOCK_HELPER,
            "src/repro/sim/step.py": TestR014._FILES["src/repro/sim/step.py"],
            "src/repro/workloads/gen.py": (
                "import random\n"
                "def build(seed, ids):\n"
                "    rng = random.Random(seed)\n"
                "    return [rng.random() for i in set(ids)]\n"
            ),
        }
        for relpath, content in files.items():
            path = tmp_path / relpath
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(content)
        (tmp_path / "pyproject.toml").touch()

        def run():
            return lint_paths(
                [tmp_path], root=tmp_path,
                select=["R014", "R015", "R016"],
                semantic_cache=True,
            )

        baseline = run()
        assert baseline  # the fixture actually produces findings
        cache_path = tmp_path / ".lint-cache" / "semantic.json"
        doc = json.loads(cache_path.read_text())
        digests = sorted(doc["entries"])
        assert digests
        # Corrupt one entry wholesale and truncate another.
        doc["entries"][digests[0]] = "garbage"
        full = doc["entries"][digests[-1]]
        if isinstance(full, dict):
            doc["entries"][digests[-1]] = {"module": full.get("module")}
        cache_path.write_text(json.dumps(doc))

        again = run()
        assert [f.render() for f in again] == [
            f.render() for f in baseline
        ]
        # The corrupt entries were re-summarized and overwritten: every
        # stored entry round-trips through the summary loader again.
        healed = json.loads(cache_path.read_text())
        for digest, entry in healed["entries"].items():
            assert isinstance(entry, dict) and "module" in entry
            assert (
                _load_cached_summary(entry, entry["module"]) is not None
            ), f"unhealed cache entry {digest}"


# --- real-tree mutation gates -------------------------------------------------


class TestRealTreeMutations:
    def _project_for(self, tmp_path, relpath: str, source: str):
        return contexts_for(tmp_path, {relpath: source})

    def test_shipped_tree_sources_are_clean(self, tmp_path):
        for path, relpath in (
            (COMMON_PATH, "src/repro/experiments/common.py"),
            (ARRIVALS_PATH, "src/repro/workloads/arrivals.py"),
        ):
            project = self._project_for(tmp_path, relpath, path.read_text())
            for rule in (EffectTaintRule(), DrawOrderRule(),
                         FingerprintPurityRule()):
                assert list(rule.check_project(project)) == [], (
                    relpath, rule.id,
                )

    def test_r014_time_seed_in_common_trips_through_two_hops(self, tmp_path):
        source = COMMON_PATH.read_text()
        needle = "def _fingerprint(*parts: object) -> str:\n"
        assert needle in source, "common.py changed: update the mutation seed"
        injected = (
            "import time\n"
            "def _clock_now():\n"
            "    return time.time()\n"
            "def _seed_salt():\n"
            "    return _clock_now()\n"
            + needle.replace(
                "*parts: object", "*parts: object, _salt=None"
            )
        )
        mutated = source.replace(needle, injected, 1).replace(
            "    blob = json.dumps([repr(p) for p in parts]",
            "    parts = (*parts, _seed_salt())\n"
            "    blob = json.dumps([repr(p) for p in parts]",
            1,
        )
        assert mutated != source
        project = self._project_for(
            tmp_path, "src/repro/experiments/common.py", mutated
        )
        findings = list(EffectTaintRule().check_project(project))
        # pinned: the finding sits on the `return time.time()` line
        lines = mutated.splitlines()
        expected_line = lines.index("    return time.time()") + 1
        assert [(f.path, f.line) for f in findings] == [
            ("src/repro/experiments/common.py", expected_line)
        ]
        (f,) = findings
        assert "cache-key/fingerprint computation" in f.message
        assert "_fingerprint" in f.message
        # and the witness chain crosses both helper hops
        assert "_seed_salt" not in f.message or True
        world = effects_world_for(project)
        chain = world.chain(
            "repro.experiments.common._fingerprint", "clock"
        )
        assert [k.rsplit(".", 1)[-1] for _p, _ln, k in chain] == [
            "_fingerprint", "_seed_salt", "_clock_now",
        ]

    def test_r015_set_iteration_draw_in_arrivals_trips(self, tmp_path):
        source = ARRIVALS_PATH.read_text()
        needle = "        for app_id in sorted(live):\n"
        assert needle in source, "arrivals.py changed: update the mutation seed"
        mutated = source.replace(
            needle, "        for app_id in set(live):\n", 1
        )
        project = self._project_for(
            tmp_path, "src/repro/workloads/arrivals.py", mutated
        )
        findings = list(DrawOrderRule().check_project(project))
        lines = mutated.splitlines()
        expected_line = (
            lines.index(
                "            t = max(1, int(rng.expovariate(1.0 / mean_lifetime)))"
            )
            + 1
        )
        assert [(f.path, f.line) for f in findings] == [
            ("src/repro/workloads/arrivals.py", expected_line)
        ]
        assert "hash order" in findings[0].message

    def test_r016_env_read_in_fingerprint_helper_trips(self, tmp_path):
        source = COMMON_PATH.read_text()
        needle = "def _fingerprint(*parts: object) -> str:\n"
        assert needle in source, "common.py changed: update the mutation seed"
        injected = (
            "import os\n"
            "def _env_tag() -> str:\n"
            "    return os.environ.get('REPRO_TAG', '')\n"
            "def _salt_tag() -> str:\n"
            "    return _env_tag()\n"
            + needle
        )
        mutated = source.replace(needle, injected, 1).replace(
            "    blob = json.dumps([repr(p) for p in parts]",
            "    parts = (*parts, _salt_tag())\n"
            "    blob = json.dumps([repr(p) for p in parts]",
            1,
        )
        project = self._project_for(
            tmp_path, "src/repro/experiments/common.py", mutated
        )
        findings = list(FingerprintPurityRule().check_project(project))
        assert findings, "R016 did not trip on the env-tainted fingerprint"
        by_fn = {
            f.message.split(" is reachable")[0].split()[-1] for f in findings
        }
        assert "repro.experiments.common._fingerprint" in by_fn
        lines = mutated.splitlines()
        fp_line = lines.index(
            "def _fingerprint(*parts: object) -> str:"
        ) + 1
        assert ("src/repro/experiments/common.py", fp_line) in {
            (f.path, f.line) for f in findings
        }
        assert all("env" in f.message for f in findings)

    def test_r001_clock_read_in_dram_trips(self, tmp_path):
        source = DRAM_PATH.read_text()
        needle = "        queue = self.queue\n"
        assert needle in source, "dram.py changed: update the mutation seed"
        mutated = source.replace(
            needle, needle + "        _t = time.perf_counter()\n", 1
        )
        findings = lint_tree(
            tmp_path, {"src/repro/sim/dram.py": mutated}, select=["R001"]
        )
        lines = mutated.splitlines()
        expected_line = lines.index("        _t = time.perf_counter()") + 1
        assert [(f.path, f.line) for f in findings] == [
            ("src/repro/sim/dram.py", expected_line)
        ]
        assert "time.perf_counter" in findings[0].message

    def test_r010_noqa_in_policy_registry_is_load_bearing(self, tmp_path):
        # Both per-process writes in core/policy.py are deliberate and
        # suppressed; without the comments, R010 must report exactly
        # those two lines from the real worker closure.  tests/ is
        # linted too: the only run_jobs call site handing a pool
        # run_open_sim_job (whose closure reaches the registry) is in
        # tests/test_tenancy.py.
        for tree in ("src", "tests"):
            shutil.copytree(
                REPO_ROOT / tree, tmp_path / tree,
                ignore=shutil.ignore_patterns("__pycache__"),
            )
        policy = tmp_path / "src" / "repro" / "core" / "policy.py"
        source = policy.read_text()
        noqa = "  # repro: noqa[R010]"
        assert source.count(noqa) == 2, "policy.py changed: update the test"
        mutated = source.replace(noqa, "")
        policy.write_text(mutated)
        findings = lint_paths(
            [tmp_path / "src", tmp_path / "tests"], root=tmp_path,
            select=["R010"], semantic_cache=False,
        )
        lines = mutated.splitlines()
        expected = [
            ("src/repro/core/policy.py",
             lines.index("    _REGISTRY[name] = factory") + 1),
            ("src/repro/core/policy.py",
             lines.index("    _entry_points_loaded = True") + 1),
        ]
        assert [(f.path, f.line) for f in findings] == expected
        assert "register_policy" in findings[0].message
        assert "_load_entry_points" in findings[1].message


# --- effects_graph.json -------------------------------------------------------


class TestEffectsGraph:
    def test_doc_validates_and_round_trips(self, tmp_path):
        files = {
            **TestR014._FILES,
            "src/repro/sim/rng.py": (
                "import random\n"
                "def mk(seed):\n"
                "    rng = random.Random(seed)"
                "  # repro: noqa[R015] -- stream ctor\n"
                "    return rng\n"
            ),
        }
        project = contexts_for(tmp_path, files)
        doc = effects_graph_doc(project)
        assert validate_effects_graph(doc) == []
        again = json.loads(json.dumps(doc))
        assert validate_effects_graph(again) == []
        assert again == doc
        # taint path recorded as a file:line chain, source last
        (taint,) = [t for t in again["taint"] if t["kind"] == "clock"]
        assert taint["chain"][-1].startswith("src/repro/util.py:3")
        assert taint["sink"] == "repro.sim.step.advance"
        # noqa justification published for review
        (supp,) = [
            s for s in again["suppressions"]
            if s["path"] == "src/repro/sim/rng.py"
        ]
        assert supp["justification"] == "stream ctor"
        assert supp["covers"] == ["R015"]

    def test_validator_rejects_malformed_docs(self):
        assert validate_effects_graph([]) == ["document is not an object"]
        assert any(
            "schema" in p for p in validate_effects_graph({"schema": "x"})
        )
        doc = {
            "schema": "repro.effects_graph/v1",
            "vocabulary": {}, "functions": {"k": {}}, "purity": {},
            "boundaries": [], "taint": [], "draw_order": [],
            "policies": [], "suppressions": [],
        }
        problems = validate_effects_graph(doc)
        assert any("vocabulary missing" in p for p in problems)
        assert any("lacks effects" in p for p in problems)

    def test_cli_graph_writes_effects_artifact(self, tmp_path, capsys):
        (tmp_path / "pyproject.toml").touch()
        src_dir = tmp_path / "src" / "repro" / "sim"
        src_dir.mkdir(parents=True)
        (src_dir / "a.py").write_text(
            "import random\ndef f(s: int) -> float:\n"
            "    rng = random.Random(s)\n"
            "    return rng.random()\n"
        )
        out_dir = tmp_path / "graphs"
        code = main([
            str(tmp_path), "--root", str(tmp_path),
            "--graph", "--graph-dir", str(out_dir),
            "--no-semantic-cache",
        ])
        assert code == 0
        doc = json.loads((out_dir / "effects_graph.json").read_text())
        assert validate_effects_graph(doc) == []
        assert doc["functions"]["repro.sim.a.f"]["effects"][
            "seeded-rng"
        ]["source"] == "rng.random"


# --- CLI satellites -----------------------------------------------------------


class TestCli:
    def test_unknown_select_exits_2_naming_valid_ids(self, capsys):
        code = main([str(REPO_ROOT / "src" / "repro" / "units.py"),
                     "--select", "R999", "--no-semantic-cache"])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown rule ids: R999" in err
        assert "R001" in err and "R016" in err

    def test_update_effects_baseline_flag(self, tmp_path, capsys):
        (tmp_path / "pyproject.toml").touch()
        path = tmp_path / "src" / "repro" / "experiments"
        path.mkdir(parents=True)
        (path / "common.py").write_text(
            _FPRINT_FILES["src/repro/experiments/common.py"]
        )
        code = main([
            str(tmp_path), "--root", str(tmp_path),
            "--update-effects-baseline", "--no-semantic-cache",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "re-pinned effects baseline" in out
        baseline = (tmp_path / BASELINE_RELPATH).read_text()
        assert "repro.experiments.common._fingerprint|env" in baseline


# --- repo-level gate ----------------------------------------------------------


@pytest.fixture(scope="class")
def real_tree_doc():
    """``effects_graph.json`` for the real ``src/`` tree, built once."""
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
    return effects_graph_doc(project)


class TestRealTreeEffects:
    def test_real_tree_clean_under_effects_rules(self):
        findings = lint_paths(
            [REPO_ROOT / "src", REPO_ROOT / "tests", REPO_ROOT / "scripts"],
            root=REPO_ROOT,
            select=["R014", "R015", "R016"],
            semantic_cache=False,
        )
        assert findings == [], [f.render() for f in findings]

    def test_real_tree_effects_graph_validates(self, real_tree_doc):
        doc = real_tree_doc
        assert validate_effects_graph(doc) == []
        # the analysis is not vacuous on the real tree
        assert doc["n_functions"] > 500
        assert len(doc["functions"]) > 30
        # arrivals draws from an explicit seeded stream
        assert "seeded-rng" in doc["functions"][
            "repro.workloads.arrivals.ArrivalSchedule.seeded"
        ]["effects"]
        # the purity frontier anchors on the real fingerprint roots
        assert "repro.obs.manifest.config_fingerprint" in (
            doc["purity"]["roots"]
        )
        assert doc["purity"]["new"] == []
        # every shipped policy factory audits entropy-free
        assert doc["policies"] and all(
            p["taint"] == [] for p in doc["policies"]
        )

    def test_warp_stream_draws_are_seeded_draws(self, real_tree_doc):
        # The warp stream draws its bounded indices with getrandbits,
        # inlined (no randrange frame): every such call must still be a
        # draw event, so the stream's functions keep ``seeded-rng`` and
        # R014/R015 see its draws.
        source = SYNTHETIC_PATH.read_text()
        tree = ast.parse(source)
        draw_calls = {
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr.lstrip("_") == "getrandbits"
        }
        assert len(draw_calls) >= 8, "expected the inlined bounded draws"
        summary = summarize_file(
            "repro.workloads.synthetic", "src/repro/workloads/synthetic.py",
            tree,
        )
        recorded = {
            event["line"]
            for info in summary.functions.values()
            for event in info.effects
            if event["kind"] == "rng-draw" and event["stream"] != "ambient"
        }
        assert draw_calls <= recorded, sorted(draw_calls - recorded)
        functions = real_tree_doc["functions"]
        for method in ("__init__", "_one_line", "next_request"):
            key = f"repro.workloads.synthetic.WarpAddressStream.{method}"
            effects = functions.get(key, {}).get("effects", {})
            assert "seeded-rng" in effects, key
        # nothing on the real tree is tainted or draws out of order
        assert real_tree_doc["taint"] == []
        assert real_tree_doc["draw_order"] == []
