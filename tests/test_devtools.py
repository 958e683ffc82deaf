"""Tests for repro.devtools: the AST-based invariant checker.

Each rule gets a known-bad and a known-clean fixture (written into a
temp project tree so linting this test file never sees them), plus the
repo-level gate that the real tree lints clean.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.devtools import Finding, Severity, all_rules, lint_paths
from repro.devtools.context import module_name_for
from repro.devtools.linter import DEFAULT_PATHS, iter_python_files, main
from repro.devtools.suppressions import filter_suppressed, scan_noqa

REPO_ROOT = Path(__file__).resolve().parents[1]


def lint_tree(tmp_path: Path, files: dict[str, str], select=None) -> list[Finding]:
    """Write ``files`` under a temp project root and lint them."""
    for relpath, content in files.items():
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content)
    (tmp_path / "pyproject.toml").touch()
    return lint_paths([tmp_path], root=tmp_path, select=select)


def rules_of(findings: list[Finding]) -> set[str]:
    return {f.rule for f in findings}


# --- framework ----------------------------------------------------------------


class TestFramework:
    def test_registry_has_all_sixteen_rules(self):
        # R001-R016 but R003, which is retired and whose id is not reused
        ids = [r.id for r in all_rules()]
        assert ids == [
            "R001", "R002", "R004", "R005", "R006", "R007", "R008",
            "R009", "R010", "R011", "R012", "R013", "R014", "R015", "R016",
        ]

    def test_select_unknown_rule_raises(self):
        with pytest.raises(ValueError, match="R999"):
            all_rules(["R999"])

    def test_select_unknown_rule_names_valid_ids(self):
        with pytest.raises(ValueError, match=r"valid: R001.*R016"):
            all_rules(["R999"])

    def test_module_name_mapping(self):
        assert module_name_for(Path("src/repro/sim/engine.py")) == "repro.sim.engine"
        assert module_name_for(Path("src/repro/sim/__init__.py")) == "repro.sim"
        assert module_name_for(Path("tests/test_x.py")) == "tests.test_x"
        assert module_name_for(Path("scripts/lint.py")) == "scripts.lint"
        assert module_name_for(Path("somewhere/else.py")) is None

    def test_findings_sorted_and_clickable(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "src/repro/b.py": "import random\nx = random.random()\n",
                "src/repro/a.py": "import random\nx = random.random()\n",
            },
        )
        assert [f.path for f in findings] == ["src/repro/a.py", "src/repro/b.py"]
        rendered = findings[0].render()
        assert rendered.startswith("src/repro/a.py:2:")
        assert "R001" in rendered

    def test_syntax_error_reported_not_crash(self, tmp_path):
        findings = lint_tree(tmp_path, {"src/repro/bad.py": "def f(:\n"})
        assert rules_of(findings) == {"E999"}
        assert findings[0].severity is Severity.ERROR


class TestFileDiscovery:
    """One walk per path argument, pruned below it, each file resolved
    once: the files and order of ``sorted(path.rglob("*.py"))`` minus
    the skipped directories, deduplicated across arguments."""

    FILES = (
        "a/x.py", "a/y/z.py", "a-b/x.py", "a.py", "b/__init__.py", "b/n.txt",
        "a/__pycache__/x.py", "b/results/r.py", "b/.git/g.py",
    )

    @pytest.fixture
    def root(self, tmp_path) -> Path:
        for relpath in self.FILES:
            (tmp_path / relpath).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / relpath).write_text("x = 1\n")
        return tmp_path

    @staticmethod
    def rel(root: Path, files: list[Path]) -> list[str]:
        return [p.relative_to(root).as_posix() for p in files]

    def test_order_is_by_path_parts_without_skipped_dirs(self, root):
        found = iter_python_files([root])
        assert self.rel(root, found) == [
            "a/x.py", "a/y/z.py", "a-b/x.py", "a.py", "b/__init__.py",
        ]
        assert found == [p.resolve() for p in sorted(root.rglob("*.py"))
                         if not {"__pycache__", "results", ".git"}
                         & set(p.relative_to(root).parts)]

    def test_overlapping_arguments_name_each_file_once(self, root):
        found = iter_python_files([root / "a" / "y" / "z.py", root / "a", root])
        assert self.rel(root, found) == [
            "a/y/z.py", "a/x.py", "a-b/x.py", "a.py", "b/__init__.py",
        ]

    def test_a_skipped_name_above_the_walked_path_counts_for_nothing(self, root):
        found = iter_python_files([root / "b" / "results"])
        assert self.rel(root, found) == ["b/results/r.py"]

    def test_symlinks_resolve_and_linked_dirs_are_not_walked(self, root):
        os.symlink(root / "a", root / "c")
        os.symlink(root / "a" / "x.py", root / "d.py")
        found = iter_python_files([root])
        assert self.rel(root, found) == [
            "a/x.py", "a/y/z.py", "a-b/x.py", "a.py", "b/__init__.py",
        ]
        assert self.rel(root, iter_python_files([root / "c"])) == [
            "a/x.py", "a/y/z.py",
        ]


class TestSuppressions:
    def test_bare_noqa_silences_all(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {"src/repro/a.py": "import random\nx = random.random()  # repro: noqa\n"},
        )
        assert findings == []

    def test_rule_scoped_noqa(self, tmp_path):
        src = "import random\nx = random.random()  # repro: noqa[R001]\n"
        assert lint_tree(tmp_path, {"src/repro/a.py": src}) == []

    def test_wrong_rule_id_does_not_silence(self, tmp_path):
        src = "import random\nx = random.random()  # repro: noqa[R002]\n"
        assert rules_of(lint_tree(tmp_path, {"src/repro/a.py": src})) == {"R001"}

    def test_a_header_justification_reaches_its_continuation_lines(
        self, tmp_path
    ):
        # R014 needs a justified noqa: its own line's has no reason, the
        # header's does, and the statement extent lends it.
        src = (
            "import time\n"
            "u = max(  # repro: noqa[R001]{}\n"
            "    time.time(),  # repro: noqa[R014]\n"
            "    0.0,\n"
            ")\n"
        )
        path = "src/repro/sim/a.py"
        assert lint_tree(tmp_path, {path: src.format(" -- reason")}) == []
        found = lint_tree(tmp_path, {path: src.format("")})
        assert [(f.rule, f.line) for f in found] == [("R014", 3)]

    def test_parser_units(self):
        supp, _ = scan_noqa(
            ["x = 1", "y  # repro: noqa[R001, R004]", "z  # repro: noqa"]
        )
        assert supp[2] == frozenset({"R001", "R004"})
        assert supp[3] == frozenset({"*"})
        f = Finding("R002", Severity.ERROR, "p", 2, 0, "m")
        assert filter_suppressed([f], supp) == [f]  # R002 not listed


# --- R001 determinism ---------------------------------------------------------


class TestR001Determinism:
    def test_flags_module_level_random(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {"src/repro/foo.py": "import random\nx = random.randint(0, 3)\n"},
            select=["R001"],
        )
        assert rules_of(findings) == {"R001"}
        assert "unseeded" in findings[0].message

    def test_flags_from_random_import(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {"src/repro/foo.py": "from random import choice\n"},
            select=["R001"],
        )
        assert rules_of(findings) == {"R001"}

    def test_flags_numpy_global_rng(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {"src/repro/foo.py": "import numpy as np\nx = np.random.rand(3)\n"},
            select=["R001"],
        )
        assert rules_of(findings) == {"R001"}

    def test_flags_wall_clock_in_sim(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {"src/repro/sim/foo.py": "import time\nt0 = time.time()\n"},
            select=["R001"],
        )
        assert rules_of(findings) == {"R001"}
        assert "time.time" in findings[0].message

    def test_flags_bare_set_iteration_in_sim(self, tmp_path):
        src = "def f(xs):\n    for x in set(xs):\n        print(x)\n"
        findings = lint_tree(tmp_path, {"src/repro/core/foo.py": src}, select=["R001"])
        assert rules_of(findings) == {"R001"}
        assert "process-salted" in findings[0].message

    def test_clean_seeded_rng_and_sorted_set(self, tmp_path):
        src = (
            "import random\n"
            "def f(seed, xs):\n"
            "    rng = random.Random(seed)\n"
            "    for x in sorted(set(xs)):\n"
            "        rng.random()\n"
        )
        assert lint_tree(tmp_path, {"src/repro/sim/foo.py": src}, select=["R001"]) == []

    def test_wall_clock_fine_outside_sim_layers(self, tmp_path):
        # scripts time themselves; only sim/core/workloads are banned
        src = "import time\nt0 = time.time()\n"
        assert lint_tree(tmp_path, {"scripts/bench.py": src}, select=["R001"]) == []

    @pytest.mark.parametrize(
        "src, line",
        [
            ("import random\nx = random.random()\n", 2),
            ("import random\nclass C:\n    x = random.random()\n", 3),
            ("import random\ndef f(x=random.random()):\n    return x\n", 2),
            (
                "import random\n"
                "class C:\n"
                "    def m(self, x=random.random()):\n"
                "        return x\n",
                3,
            ),
            (
                "import random\n"
                "def deco(x):\n"
                "    return lambda fn: fn\n"
                "@deco(random.random())\n"
                "def g():\n"
                "    pass\n",
                4,
            ),
            (
                "import random\n"
                "def f():\n"
                "    def g():\n"
                "        return random.random()\n"
                "    return g\n",
                4,
            ),
            ("import random\nf = lambda: random.random()\n", 2),
            (
                "import random\n"
                "def f(n):\n"
                "    return [random.random() for _ in range(n)]\n",
                3,
            ),
            ("def f():\n    from random import choice\n    return choice\n", 2),
        ],
        ids=[
            "module-level", "class-body", "default-arg", "method-default",
            "decorator", "nested-def", "lambda", "comprehension",
            "from-import-in-function",
        ],
    )
    def test_every_position_is_seen_once(self, tmp_path, src, line):
        findings = lint_tree(tmp_path, {"src/repro/foo.py": src}, select=["R001"])
        assert [(f.rule, f.line) for f in findings] == [("R001", line)]

    @pytest.mark.parametrize(
        "relpath, src, line",
        [
            (
                "src/repro/sim/foo.py",
                "from time import perf_counter\n"
                "def f():\n"
                "    return perf_counter()\n",
                3,
            ),
            (
                "src/repro/sim/foo.py",
                "import datetime\n"
                "def f():\n"
                "    return datetime.datetime.now()\n",
                3,
            ),
            (
                "src/repro/foo.py",
                "import numpy.random as npr\nx = npr.rand(3)\n",
                2,
            ),
            (
                "src/repro/core/foo.py",
                "def f(xs):\n"
                "    for x in frozenset(xs):\n"
                "        print(x)\n",
                2,
            ),
            (
                "src/repro/core/foo.py",
                "def f(xs):\n"
                "    s = set(xs)\n"
                "    for x in s:\n"
                "        print(x)\n",
                3,
            ),
        ],
        ids=[
            "from-imported-clock", "datetime-now", "aliased-numpy-random",
            "frozenset-iteration", "set-bound-local",
        ],
    )
    def test_resolved_names_are_flagged(self, tmp_path, relpath, src, line):
        findings = lint_tree(tmp_path, {relpath: src}, select=["R001"])
        assert [(f.rule, f.line) for f in findings] == [("R001", line)]

    def test_explicit_numpy_generator_is_clean(self, tmp_path):
        src = (
            "import numpy as np\n"
            "def f(s):\n"
            "    return np.random.Generator(np.random.Philox(s))\n"
        )
        assert lint_tree(tmp_path, {"src/repro/foo.py": src}, select=["R001"]) == []


# --- R002 float equality ------------------------------------------------------


class TestR002FloatEquality:
    def test_flags_float_literal_compare(self, tmp_path):
        src = "def f(cmr):\n    return cmr == 0.0\n"
        findings = lint_tree(tmp_path, {"src/repro/m.py": src}, select=["R002"])
        assert rules_of(findings) == {"R002"}
        assert "cmr == 0.0" in findings[0].message

    def test_flags_float_call_compare(self, tmp_path):
        src = "def f(x):\n    return x != float('inf')\n"
        findings = lint_tree(tmp_path, {"src/repro/m.py": src}, select=["R002"])
        assert rules_of(findings) == {"R002"}

    def test_clean_epsilon_compare_and_int_compare(self, tmp_path):
        src = (
            "EPS = 1e-12\n"
            "def f(cmr, n):\n"
            "    return cmr <= EPS or n == 0\n"
        )
        assert lint_tree(tmp_path, {"src/repro/m.py": src}, select=["R002"]) == []

    def test_tests_are_exempt(self, tmp_path):
        src = "def test_x():\n    assert 1.0 == 1.0\n"
        assert lint_tree(tmp_path, {"tests/test_x.py": src}, select=["R002"]) == []


# --- R004 layering ------------------------------------------------------------


class TestR004Layering:
    def test_experiments_importing_sim_internal_flagged(self, tmp_path):
        src = "from repro.sim.engine import Simulator\n"
        findings = lint_tree(
            tmp_path, {"src/repro/experiments/foo.py": src}, select=["R004"]
        )
        assert rules_of(findings) == {"R004"}
        assert "facade" in findings[0].message

    def test_scripts_importing_sim_internal_flagged(self, tmp_path):
        src = "import repro.sim.dram\n"
        findings = lint_tree(tmp_path, {"scripts/foo.py": src}, select=["R004"])
        assert rules_of(findings) == {"R004"}

    def test_facade_import_clean(self, tmp_path):
        src = "from repro.sim import Simulator, SimResult\n"
        assert lint_tree(
            tmp_path, {"src/repro/experiments/foo.py": src}, select=["R004"]
        ) == []

    def test_sim_importing_experiments_flagged(self, tmp_path):
        src = "from repro.experiments.common import ExperimentContext\n"
        findings = lint_tree(tmp_path, {"src/repro/sim/foo.py": src}, select=["R004"])
        assert rules_of(findings) == {"R004"}

    def test_type_checking_guard_exempt(self, tmp_path):
        src = (
            "from typing import TYPE_CHECKING\n"
            "if TYPE_CHECKING:\n"
            "    from repro.experiments.common import ExperimentContext\n"
        )
        assert lint_tree(tmp_path, {"src/repro/sim/foo.py": src}, select=["R004"]) == []

    def test_sim_importing_live_telemetry_flagged(self, tmp_path):
        src = "from repro.obs.live import get_publisher\n"
        findings = lint_tree(
            tmp_path, {"src/repro/sim/foo.py": src}, select=["R004"]
        )
        assert rules_of(findings) == {"R004"}
        assert "metrics registry" in findings[0].message
        dash = "import repro.obs.dashboard\n"
        findings = lint_tree(
            tmp_path, {"src/repro/sim/bar.py": dash}, select=["R004"]
        )
        assert rules_of(findings) == {"R004"}

    def test_sim_using_metrics_seam_clean(self, tmp_path):
        # The sanctioned engine observability seam: the metrics registry.
        src = "from repro.obs.metrics import get_metrics\n"
        assert lint_tree(
            tmp_path, {"src/repro/sim/foo.py": src}, select=["R004"]
        ) == []

    def test_tests_exempt(self, tmp_path):
        src = "from repro.sim.engine import EventQueue\n"
        assert lint_tree(tmp_path, {"tests/test_foo.py": src}, select=["R004"]) == []

    @pytest.mark.parametrize("relpath, src, module", [
        ("src/repro/experiments/foo.py", "from repro.sim import engine\n",
         "repro.sim.engine"),
        ("src/repro/sim/foo.py", "from repro import experiments\n",
         "repro.experiments"),
        ("src/repro/sim/foo.py", "from repro.obs import live\n",
         "repro.obs.live"),
    ])
    def test_submodule_imported_from_its_package_flagged(
        self, tmp_path, relpath, src, module
    ):
        files = {
            relpath: src,
            "src/repro/sim/engine.py": "",
            "src/repro/experiments/__init__.py": "",
            "src/repro/obs/live.py": "",
        }
        findings = lint_tree(tmp_path, files, select=["R004"])
        assert [(f.path, f.line) for f in findings] == [(relpath, 1)]
        assert f"'{module}'" in findings[0].message


# --- R005 picklability --------------------------------------------------------


class TestR005Picklability:
    def test_lambda_worker_flagged(self, tmp_path):
        src = (
            "from repro.exec import run_jobs\n"
            "r = run_jobs(lambda s: s * 2, [1, 2])\n"
        )
        findings = lint_tree(tmp_path, {"src/repro/foo.py": src}, select=["R005"])
        assert rules_of(findings) == {"R005"}
        assert "pickled" in findings[0].message

    def test_nested_worker_flagged(self, tmp_path):
        src = (
            "from repro.exec import run_jobs\n"
            "def sweep(specs):\n"
            "    def worker(s):\n"
            "        return s\n"
            "    return run_jobs(worker, specs)\n"
        )
        findings = lint_tree(tmp_path, {"src/repro/foo.py": src}, select=["R005"])
        assert rules_of(findings) == {"R005"}
        assert "module-level" in findings[0].message

    def test_lambda_in_simjob_field_flagged(self, tmp_path):
        src = "from repro.exec import SimJob\nj = SimJob(tag=lambda: 1)\n"
        findings = lint_tree(tmp_path, {"src/repro/foo.py": src}, select=["R005"])
        assert rules_of(findings) == {"R005"}
        assert "pass data, not closures" in findings[0].message

    def test_module_level_worker_clean(self, tmp_path):
        src = (
            "from repro.exec import run_jobs\n"
            "def worker(s):\n"
            "    return s\n"
            "def sweep(specs, progress):\n"
            "    return run_jobs(worker, specs, progress=progress)\n"
        )
        assert lint_tree(tmp_path, {"src/repro/foo.py": src}, select=["R005"]) == []

    def test_lambda_policy_factory_flagged(self, tmp_path):
        src = (
            "from repro.core.policy import register_policy\n"
            "register_policy('mine', lambda n_apps=2: None)\n"
        )
        findings = lint_tree(tmp_path, {"src/repro/foo.py": src}, select=["R005"])
        assert rules_of(findings) == {"R005"}
        assert "module-level" in findings[0].message

    def test_lambda_policy_factory_keyword_flagged(self, tmp_path):
        src = (
            "from repro.core.policy import register_policy\n"
            "register_policy('mine', factory=lambda n_apps=2: None)\n"
        )
        findings = lint_tree(tmp_path, {"src/repro/foo.py": src}, select=["R005"])
        assert rules_of(findings) == {"R005"}

    def test_nested_policy_factory_flagged(self, tmp_path):
        src = (
            "from repro.core.policy import register_policy\n"
            "def install():\n"
            "    def make_mine(n_apps=2):\n"
            "        return None\n"
            "    register_policy('mine', make_mine)\n"
        )
        findings = lint_tree(tmp_path, {"src/repro/foo.py": src}, select=["R005"])
        assert rules_of(findings) == {"R005"}
        assert "qualified name" in findings[0].message

    def test_module_level_policy_factory_clean(self, tmp_path):
        src = (
            "from repro.core.policy import register_policy\n"
            "def make_mine(n_apps=2):\n"
            "    return None\n"
            "register_policy('mine', make_mine)\n"
        )
        assert lint_tree(tmp_path, {"src/repro/foo.py": src}, select=["R005"]) == []


# --- R006 atomic write --------------------------------------------------------


class TestR006AtomicWrite:
    def test_open_w_on_results_path_flagged(self, tmp_path):
        src = (
            "def dump(text):\n"
            "    with open('results/report.txt', 'w') as fh:\n"
            "        fh.write(text)\n"
        )
        findings = lint_tree(tmp_path, {"src/repro/foo.py": src}, select=["R006"])
        assert rules_of(findings) == {"R006"}
        assert "atomic_write_text" in findings[0].message

    def test_tainted_module_level_name_flagged(self, tmp_path):
        src = (
            "from pathlib import Path\n"
            "OUT = Path('results') / 'reports'\n"
            "def dump(name, text):\n"
            "    (OUT / name).write_text(text)\n"
        )
        findings = lint_tree(tmp_path, {"scripts/report.py": src}, select=["R006"])
        assert rules_of(findings) == {"R006"}

    def test_read_and_unrelated_writes_clean(self, tmp_path):
        src = (
            "def f():\n"
            "    with open('results/cache.json') as fh:\n"
            "        data = fh.read()\n"
            "    with open('/tmp/scratch.txt', 'w') as fh:\n"
            "        fh.write(data)\n"
            "    return data\n"
        )
        assert lint_tree(tmp_path, {"src/repro/foo.py": src}, select=["R006"]) == []

    def test_helper_module_exempt(self, tmp_path):
        src = (
            "ROOT = 'results'\n"
            "def save(path, text):\n"
            "    with open(path, 'w') as fh:\n"
            "        fh.write(text)\n"
        )
        assert lint_tree(
            tmp_path, {"src/repro/experiments/common.py": src}, select=["R006"]
        ) == []


# --- R007 no print in sim layers ----------------------------------------------


class TestR007NoPrint:
    def test_print_in_sim_flagged_as_warning(self, tmp_path):
        src = "def step(cycle):\n    print('cycle', cycle)\n"
        findings = lint_tree(tmp_path, {"src/repro/sim/foo.py": src}, select=["R007"])
        assert rules_of(findings) == {"R007"}
        assert findings[0].severity is Severity.WARNING
        assert "repro.obs" in findings[0].message

    def test_print_in_core_flagged(self, tmp_path):
        src = "def on_window(now):\n    print(now)\n"
        findings = lint_tree(tmp_path, {"src/repro/core/ctl.py": src}, select=["R007"])
        assert rules_of(findings) == {"R007"}

    def test_print_fine_outside_sim_layers(self, tmp_path):
        src = "def report():\n    print('done')\n"
        files = {
            "src/repro/cli2.py": src,
            "scripts/sweep.py": src,
            "tests/test_foo.py": "def test_x():\n    print('dbg')\n",
        }
        assert lint_tree(tmp_path, files, select=["R007"]) == []

    def test_stream_write_not_flagged(self, tmp_path):
        src = (
            "import sys\n"
            "def step():\n"
            "    sys.stderr.write('x')\n"
        )
        assert lint_tree(tmp_path, {"src/repro/sim/foo.py": src}, select=["R007"]) == []

    def test_noqa_escape_hatch(self, tmp_path):
        src = "def dump():\n    print('table')  # repro: noqa[R007]\n"
        assert lint_tree(tmp_path, {"src/repro/core/foo.py": src}, select=["R007"]) == []

    def test_warning_does_not_fail_lint_cli(self, tmp_path, capsys):
        src = "def step():\n    print('x')\n"
        path = tmp_path / "src" / "repro" / "sim" / "foo.py"
        path.parent.mkdir(parents=True)
        path.write_text(src)
        (tmp_path / "pyproject.toml").touch()
        code = main([str(tmp_path), "--root", str(tmp_path), "--select", "R007"])
        out = capsys.readouterr().out
        assert code == 0  # warnings report but do not fail
        assert "R007" in out and "1 warning(s)" in out


# --- R008 hot-path allocation -------------------------------------------------


class TestR008HotPath:
    def test_lambda_in_dispatch_flagged_as_error(self, tmp_path):
        src = (
            "class Simulator:\n"
            "    __slots__ = ('events',)\n"
            "    def _dispatch(self, txn, now):\n"
            "        self.events.push(now + 1.0, lambda t: self.done(txn, t))\n"
        )
        findings = lint_tree(
            tmp_path, {"src/repro/sim/engine.py": src}, select=["R008"]
        )
        assert rules_of(findings) == {"R008"}
        assert findings[0].severity is Severity.ERROR
        assert "pre-bind" in findings[0].message

    def test_nested_def_in_hot_function_flagged(self, tmp_path):
        src = (
            "def decide(channel, now):\n"
            "    def fire(t):\n"
            "        channel.complete(t)\n"
            "    return fire\n"
        )
        findings = lint_tree(tmp_path, {"src/repro/sim/dram.py": src}, select=["R008"])
        assert rules_of(findings) == {"R008"}

    def test_init_and_module_level_closures_exempt(self, tmp_path):
        src = (
            "KEY = lambda pair: pair[0]\n"
            "class DRAMChannel:\n"
            "    __slots__ = ('on_dequeue', '_decide_event')\n"
            "    def __init__(self, drain):\n"
            "        self.on_dequeue = lambda now: drain(self, now)\n"
            "        self._decide_event = self._decide\n"
            "    def _decide(self, now):\n"
            "        pass\n"
        )
        assert lint_tree(
            tmp_path, {"src/repro/sim/dram.py": src}, select=["R008"]
        ) == []

    def test_probes_module_exempt(self, tmp_path):
        src = (
            "def attach(sim):\n"
            "    def recording(app_id, lat):\n"
            "        pass\n"
            "    return recording\n"
        )
        assert lint_tree(
            tmp_path, {"src/repro/sim/probes.py": src}, select=["R008"]
        ) == []

    def test_hot_class_without_slots_warned(self, tmp_path):
        src = (
            "class Warp:\n"
            "    def __init__(self):\n"
            "        self.pending = 0\n"
        )
        findings = lint_tree(tmp_path, {"src/repro/sim/core.py": src}, select=["R008"])
        assert rules_of(findings) == {"R008"}
        assert findings[0].severity is Severity.WARNING
        assert "__slots__" in findings[0].message

    def test_dataclass_slots_true_counts_as_slotted(self, tmp_path):
        src = (
            "from dataclasses import dataclass\n"
            "@dataclass(slots=True)\n"
            "class AppStats:\n"
            "    insts: int = 0\n"
        )
        assert lint_tree(
            tmp_path, {"src/repro/sim/stats.py": src}, select=["R008"]
        ) == []

    def test_unregistered_class_needs_no_slots(self, tmp_path):
        src = (
            "class StatsCollector:\n"
            "    def __init__(self):\n"
            "        self.apps = {}\n"
        )
        assert lint_tree(
            tmp_path, {"src/repro/sim/stats.py": src}, select=["R008"]
        ) == []


# --- the CLI and the repo-level gate ------------------------------------------


class TestLintCLI:
    def test_clean_tree_exits_zero(self, capsys):
        # THE acceptance gate: the shipped tree lints clean.
        code = main([*DEFAULT_PATHS, "--root", str(REPO_ROOT)])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "0 error(s)" in out

    def test_violation_exits_nonzero_with_location(self, tmp_path, capsys):
        bad = tmp_path / "src" / "repro" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import random\nx = random.random()\n")
        (tmp_path / "pyproject.toml").touch()
        code = main([str(tmp_path), "--root", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "src/repro/bad.py:2" in out and "R001" in out

    def test_json_output(self, tmp_path, capsys):
        bad = tmp_path / "src" / "repro" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import random\nx = random.random()\n")
        (tmp_path / "pyproject.toml").touch()
        code = main([str(tmp_path), "--root", str(tmp_path), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["errors"] == 1
        assert payload["findings"][0]["rule"] == "R001"

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("R001", "R002", "R004", "R005", "R006", "R007"):
            assert rule_id in out

    def test_missing_path_is_usage_error(self, capsys):
        assert main(["no/such/path"]) == 2

    def test_tree_under_a_results_directory_is_linted(self, tmp_path, capsys):
        # Skipped directory names apply below the walked path, not above.
        root = tmp_path / "results" / "proj"
        src = "import random\nx = random.random()\n"
        for relpath in ("src/repro/bad.py", "src/repro/results/skipped.py"):
            (root / relpath).parent.mkdir(parents=True, exist_ok=True)
            (root / relpath).write_text(src)
        (root / "pyproject.toml").touch()
        code = main([str(root / "src"), "--root", str(root)])
        out = capsys.readouterr().out
        assert code == 1
        assert "src/repro/bad.py:2" in out and "skipped" not in out
        assert "checked 1 file(s)" in out

    def test_repro_cli_mounts_lint(self, capsys):
        from repro.cli import main as repro_main

        code = repro_main(["lint", "--list-rules"])
        assert code == 0
        assert "R001" in capsys.readouterr().out

    def test_each_rule_fires_on_seeded_violation(self, tmp_path):
        """One seeded violation per rule: the linter must catch all nine."""
        seeded = {
            "src/repro/sim/r1.py": "import time\nt = time.time()\n",
            "src/repro/core/r7.py": "def f(x):\n    print(x)\n",
            "src/repro/r2.py": "def f(x):\n    return x == 1.0\n",
            "src/repro/experiments/r4.py": "import repro.sim.engine\n",
            "src/repro/r5.py": (
                "from repro.exec import run_jobs\n"
                "r = run_jobs(lambda s: s, [1])\n"
            ),
            "src/repro/r6.py": (
                "def f(t):\n"
                "    open('results/x.json', 'w').write(t)\n"
            ),
            "src/repro/sim/dram.py": (
                "def decide(channel: object, now: float) -> object:\n"
                "    return lambda t: channel.complete(t)\n"
            ),
            "src/repro/exec/r11.py": "def f(x):\n    return x\n",
            # R009: a use-after-release in a mini stage machine
            "src/repro/sim/engine.py": (
                "class MemTxn:\n"
                "    COMPUTE = 0\n"
                "    __slots__ = ('stage',)\n"
                "_COMPUTE = MemTxn.COMPUTE\n"
                "class Simulator:\n"
                "    __slots__ = ('_txn_pool',)\n"
                "    def _dispatch(self, txn: MemTxn, now: float) -> None:\n"
                "        if txn.stage == _COMPUTE:\n"
                "            self._txn_pool.append(txn)\n"
                "            txn.stage = _COMPUTE\n"
                "            return\n"
            ),
        }
        for relpath, content in seeded.items():
            path = tmp_path / relpath
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(content)
        (tmp_path / "pyproject.toml").touch()
        findings = lint_paths([tmp_path], root=tmp_path)
        assert rules_of(findings) >= {
            "R001", "R002", "R004", "R005", "R006", "R007", "R008",
            "R009", "R011",
        }


class TestRealTreeMutations:
    """One shipped file per rule, copied into a temp tree with one
    violation inserted; the finding is pinned to its file and line."""

    def _lint(self, tmp_path, relpath: str, needle: str, replacement: str,
              rule: str) -> tuple[list[tuple[str, str, int]], list[str]]:
        source = (REPO_ROOT / relpath).read_text()
        assert needle in source, f"{relpath} changed: update the mutation seed"
        mutated = source.replace(needle, replacement, 1)
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(mutated)
        (tmp_path / "pyproject.toml").touch()
        findings = lint_paths(
            [tmp_path / relpath.split("/")[0]], root=tmp_path,
            select=[rule], semantic_cache=False,
        )
        return [(f.rule, f.path, f.line) for f in findings], mutated.splitlines()

    def _line_of(self, lines: list[str], text: str) -> int:
        return lines.index(text) + 1

    def test_r002_exact_compare_in_bandwidth_trips(self, tmp_path):
        relpath = "src/repro/metrics/bandwidth.py"
        found, lines = self._lint(
            tmp_path, relpath, "    if cmr <= EPS:\n", "    if cmr == 0.0:\n",
            "R002",
        )
        assert found == [("R002", relpath, self._line_of(lines, "    if cmr == 0.0:"))]

    def test_r004_internal_import_in_common_trips(self, tmp_path):
        relpath = "src/repro/experiments/common.py"
        mutated = "from repro.sim.stats import SimResult, WindowSample"
        found, lines = self._lint(
            tmp_path, relpath,
            "from repro.sim import SimResult, WindowSample\n", mutated + "\n",
            "R004",
        )
        assert found == [("R004", relpath, self._line_of(lines, mutated))]

    def test_r005_lambda_worker_in_runner_trips(self, tmp_path):
        relpath = "src/repro/core/runner.py"
        needle = (
            "    jobs = alone_jobs(config, app, n_cores, lengths, seed, levels)\n"
            "    results = run_jobs(run_sim_job, jobs,"
        )
        found, lines = self._lint(
            tmp_path, relpath, needle,
            needle.replace("run_jobs(run_sim_job,", "run_jobs(lambda j: run_sim_job(j),"),
            "R005",
        )
        line = next(i for i, text in enumerate(lines, 1) if "lambda j:" in text)
        assert found == [("R005", relpath, line)]

    def test_r006_raw_write_in_eval_reports_trips(self, tmp_path):
        relpath = "src/repro/experiments/eval.py"
        raw = '            ((out_dir or REPORTS_DIR) / f"{name}.txt").write_text(text + "\\n")'
        found, lines = self._lint(
            tmp_path, relpath,
            '            atomic_write_text((out_dir or REPORTS_DIR) / f"{name}.txt", '
            'text + "\\n")\n',
            raw + "\n", "R006",
        )
        assert found == [("R006", relpath, self._line_of(lines, raw))]

    def test_r007_print_in_pbs_window_trips(self, tmp_path):
        relpath = "src/repro/core/pbs.py"
        needle = "        if self._skip > 0:\n            self._skip -= 1\n"
        found, lines = self._lint(
            tmp_path, relpath, needle, "        print(now)\n" + needle, "R007",
        )
        assert found == [("R007", relpath, self._line_of(lines, "        print(now)"))]

    def test_r008_lambda_in_dram_decide_trips(self, tmp_path):
        relpath = "src/repro/sim/dram.py"
        needle = "        queue = self.queue\n        if not queue:\n"
        closure = "        by_row = lambda r: r.row"
        found, lines = self._lint(
            tmp_path, relpath, needle, needle.replace(
                "        queue = self.queue\n",
                f"        queue = self.queue\n{closure}\n",
            ),
            "R008",
        )
        assert found == [("R008", relpath, self._line_of(lines, closure))]

    def test_r011_unannotated_param_in_pool_trips(self, tmp_path):
        relpath = "src/repro/exec/pool.py"
        bare = "def resolve_jobs(n_jobs=None) -> int:"
        found, lines = self._lint(
            tmp_path, relpath,
            "def resolve_jobs(n_jobs: int | None = None) -> int:\n", bare + "\n",
            "R011",
        )
        assert found == [("R011", relpath, self._line_of(lines, bare))]
