"""Tests for the unit/clock-domain dataflow analysis (R012/R013).

Covers the unit algebra itself, the naming conventions, known-bad /
known-clean fixture pairs for every bug class the checker is specified
to catch (cycles+seconds, fraction-vs-absolute compares, bytes+lines,
cross-clock subtraction), the clock-boundary allowlist, ``noqa``
suppression, mutation tests that seed each bug class into the *real*
``repro.metrics.bandwidth`` source and assert the finding lands at the
right file:line, the ``units_graph.json`` artifact, the per-analysis
cache-version fingerprint, the ``--jobs`` parallel path (byte-identical
findings), the ``--changed`` git narrowing, and the repo-level gate
that the shipped tree is unit-clean.
"""

from __future__ import annotations

import ast
import subprocess
from pathlib import Path

import pytest

from repro.devtools import Finding, lint_paths
from repro.devtools.context import FileContext, ProjectContext
from repro.devtools.linter import changed_files, main
from repro.devtools.semantic.cache import AnalysisCache
from repro.devtools.semantic.graph import analysis_versions
from repro.devtools.semantic.units import (
    BYTES,
    CYCLES,
    DIMLESS,
    FRAC_OF_PEAK,
    INSTS,
    LINES,
    SCALAR,
    TICKS,
    WALL,
    compatible,
    convention_unit,
    crosses_clock,
    div_units,
    mul_units,
    units_analysis,
    units_graph_doc,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
BANDWIDTH_PATH = REPO_ROOT / "src" / "repro" / "metrics" / "bandwidth.py"


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


# --- the unit algebra ---------------------------------------------------------


class TestUnitAlgebra:
    def test_division_derives_rates_and_mul_inverts(self):
        ipc = div_units(INSTS, CYCLES)
        assert str(ipc) == "inst/cycle"
        assert mul_units(ipc, CYCLES) == INSTS
        assert div_units(CYCLES, CYCLES) == DIMLESS

    def test_scalar_is_transparent(self):
        assert mul_units(SCALAR, CYCLES) == CYCLES
        assert div_units(CYCLES, SCALAR) == CYCLES
        assert compatible(SCALAR, WALL)
        assert compatible(LINES, SCALAR)

    def test_compatibility_is_by_dimensions(self):
        assert compatible(CYCLES, CYCLES)
        assert not compatible(CYCLES, WALL)
        assert not compatible(BYTES, LINES)
        # frac-of-peak is dimensionless: mixes with plain fractions.
        assert compatible(FRAC_OF_PEAK, DIMLESS)
        assert not compatible(FRAC_OF_PEAK, LINES)

    def test_frac_tag_survives_scaling_but_not_dimensions(self):
        assert mul_units(FRAC_OF_PEAK, DIMLESS) == FRAC_OF_PEAK
        # frac-of-peak times an absolute rate is an absolute rate.
        assert mul_units(FRAC_OF_PEAK, LINES).dims == LINES.dims

    def test_clock_domains(self):
        assert crosses_clock(CYCLES, WALL)
        assert crosses_clock(WALL, CYCLES)
        assert not crosses_clock(CYCLES, CYCLES)
        # Trace ticks are unit-distinct but not a clock crossing.
        assert not crosses_clock(TICKS, WALL)
        # Rates carry their clock: inst/cycle against wall seconds.
        assert crosses_clock(div_units(INSTS, CYCLES), WALL)

    def test_rendering(self):
        assert str(CYCLES) == "cycle"
        assert str(DIMLESS) == "1"
        assert str(SCALAR) == "number"
        assert str(FRAC_OF_PEAK) == "frac-of-peak"
        assert str(div_units(BYTES, LINES)) == "byte/line"

    def test_naming_conventions(self):
        assert convention_unit("elapsed_cycles") == CYCLES
        assert convention_unit("bw") == FRAC_OF_PEAK
        assert convention_unit("window_s") == WALL
        assert convention_unit("payload_bytes") == BYTES
        assert convention_unit("some_random_name") is None


# --- bad/clean fixture pairs --------------------------------------------------


class TestFixturePairs:
    def test_cycles_plus_seconds_trips_r013(self, tmp_path):
        files = {"src/repro/sim/f.py": (
            "from repro.units import Cycles, WallSeconds\n"
            "def deadline(now: Cycles, t: WallSeconds) -> Cycles:\n"
            "    return now + t\n"
        )}
        findings = lint_tree(tmp_path, files, select=["R012", "R013"])
        assert [(f.rule, f.line) for f in findings] == [("R013", 3)]
        assert "clock-domain mix" in findings[0].message

    def test_cycles_plus_cycles_is_clean(self, tmp_path):
        files = {"src/repro/sim/f.py": (
            "from repro.units import Cycles\n"
            "def deadline(now: Cycles, dt: Cycles) -> Cycles:\n"
            "    return now + dt\n"
        )}
        assert lint_tree(tmp_path, files, select=["R012", "R013"]) == []

    def test_fraction_vs_absolute_compare_trips_r012(self, tmp_path):
        files = {"src/repro/sim/f.py": (
            "from repro.units import FractionOfPeak, LinesPerCycle\n"
            "def saturated(bw: FractionOfPeak, peak: LinesPerCycle) -> bool:\n"
            "    return bw > peak\n"
        )}
        findings = lint_tree(tmp_path, files, select=["R012", "R013"])
        assert [(f.rule, f.line) for f in findings] == [("R012", 3)]
        assert "unit confusion" in findings[0].message

    def test_normalizing_before_compare_is_clean(self, tmp_path):
        files = {"src/repro/sim/f.py": (
            "from repro.units import FractionOfPeak, LinesPerCycle\n"
            "def saturated(bw: FractionOfPeak, rate: LinesPerCycle,\n"
            "              peak: LinesPerCycle) -> bool:\n"
            "    return bw > rate / peak\n"
        )}
        assert lint_tree(tmp_path, files, select=["R012", "R013"]) == []

    def test_bytes_plus_lines_trips_r012(self, tmp_path):
        files = {"src/repro/sim/f.py": (
            "from repro.units import Bytes, Lines\n"
            "def total(b: Bytes, ln: Lines) -> Bytes:\n"
            "    return b + ln\n"
        )}
        findings = lint_tree(tmp_path, files, select=["R012", "R013"])
        assert [(f.rule, f.line) for f in findings] == [("R012", 3)]

    def test_converting_lines_to_bytes_is_clean(self, tmp_path):
        files = {"src/repro/sim/f.py": (
            "from repro.units import Bytes, BytesPerLine, Lines\n"
            "def total(b: Bytes, ln: Lines, lb: BytesPerLine) -> Bytes:\n"
            "    return b + ln * lb\n"
        )}
        assert lint_tree(tmp_path, files, select=["R012", "R013"]) == []

    def test_cross_clock_subtraction_trips_r013(self, tmp_path):
        files = {"src/repro/sim/f.py": (
            "from repro.units import Cycles, WallSeconds\n"
            "def lag(t: WallSeconds, start: Cycles) -> WallSeconds:\n"
            "    return t - start\n"
        )}
        findings = lint_tree(tmp_path, files, select=["R012", "R013"])
        assert [(f.rule, f.line) for f in findings] == [("R013", 3)]

    def test_bad_return_declaration_trips_store_check(self, tmp_path):
        files = {"src/repro/sim/f.py": (
            "from repro.units import Cycles, Insts\n"
            "def bad_ipc(insts: Insts, cycles: Cycles) -> Cycles:\n"
            "    return insts / cycles\n"
        )}
        findings = lint_tree(tmp_path, files, select=["R012", "R013"])
        assert [(f.rule, f.line) for f in findings] == [("R012", 3)]
        assert "storing" in findings[0].message

    def test_derived_rate_matches_declared_return(self, tmp_path):
        files = {"src/repro/sim/f.py": (
            "from repro.units import Cycles, Insts, Ipc\n"
            "def ipc_of(insts: Insts, cycles: Cycles) -> Ipc:\n"
            "    return insts / cycles\n"
        )}
        assert lint_tree(tmp_path, files, select=["R012", "R013"]) == []


class TestClockBoundaries:
    CONVERSION = (
        "from repro.units import Cycles, WallSeconds\n"
        "def to_wall(now: Cycles, s_per_cycle: WallSeconds) -> WallSeconds:\n"
        "    return now * s_per_cycle\n"
    )

    def test_conversion_outside_boundary_trips(self, tmp_path):
        files = {"src/repro/sim/conv.py": self.CONVERSION}
        findings = lint_tree(tmp_path, files, select=["R013"])
        assert [f.rule for f in findings] == ["R013"]

    def test_chrome_module_is_an_allowed_boundary(self, tmp_path):
        files = {"src/repro/obs/chrome.py": self.CONVERSION}
        assert lint_tree(tmp_path, files, select=["R012", "R013"]) == []

    def test_noqa_suppresses_a_unit_finding(self, tmp_path):
        files = {"src/repro/sim/f.py": (
            "from repro.units import Bytes, Lines\n"
            "def total(b: Bytes, ln: Lines) -> Bytes:\n"
            "    return b + ln  # repro: noqa[R012]\n"
        )}
        assert lint_tree(tmp_path, files, select=["R012", "R013"]) == []


# --- mutation tests on the real bandwidth module ------------------------------


class TestMutationsOnRealBandwidth:
    """Seed each bug class into the shipped ``repro.metrics.bandwidth``
    source and assert the checker pins it to the exact file:line."""

    NEEDLE = "    return bw / cmr\n"

    def _mutate(self, tmp_path, bad_stmt: str):
        source = BANDWIDTH_PATH.read_text()
        assert self.NEEDLE in source, "bandwidth.py changed: update the seed"
        idx = source.index(self.NEEDLE)
        line = source[:idx].count("\n") + 1
        mutated = source.replace(self.NEEDLE, bad_stmt + self.NEEDLE, 1)
        findings = lint_tree(
            tmp_path,
            {"src/repro/metrics/bandwidth.py": mutated},
            select=["R012", "R013"],
        )
        return findings, line

    def test_cycles_plus_seconds(self, tmp_path):
        findings, line = self._mutate(
            tmp_path, "    bad = elapsed_cycles + window_s\n"
        )
        assert [(f.rule, f.path, f.line) for f in findings] == [
            ("R013", "src/repro/metrics/bandwidth.py", line)
        ]

    def test_fraction_vs_absolute_compare(self, tmp_path):
        findings, line = self._mutate(tmp_path, "    bad = bw > dram_lines\n")
        assert [(f.rule, f.path, f.line) for f in findings] == [
            ("R012", "src/repro/metrics/bandwidth.py", line)
        ]

    def test_bytes_plus_lines(self, tmp_path):
        findings, line = self._mutate(
            tmp_path, "    bad = payload_bytes + dram_lines\n"
        )
        assert [(f.rule, f.path, f.line) for f in findings] == [
            ("R012", "src/repro/metrics/bandwidth.py", line)
        ]

    def test_cross_clock_subtraction(self, tmp_path):
        findings, line = self._mutate(
            tmp_path, "    bad = start_us - boot_cycles\n"
        )
        assert [(f.rule, f.path, f.line) for f in findings] == [
            ("R013", "src/repro/metrics/bandwidth.py", line)
        ]


# --- the units_graph.json artifact --------------------------------------------


class TestUnitsGraphArtifact:
    def test_doc_shape_and_signature_rendering(self, tmp_path):
        project = contexts_for(tmp_path, {
            "src/repro/sim/a.py": (
                "from repro.units import Cycles, Insts, Ipc\n"
                "def ipc_of(insts: Insts, cycles: Cycles) -> Ipc:\n"
                "    return insts / cycles\n"
            ),
        })
        doc = units_graph_doc(project)
        for key in ("version", "vocabulary", "conventions",
                    "clock_boundaries", "checked_modules", "coverage",
                    "findings", "modules"):
            assert key in doc
        assert doc["checked_modules"] == ["repro.sim.a"]
        entry = doc["modules"]["repro.sim.a"]["functions"]["ipc_of"]
        assert entry["params"] == {"insts": "inst", "cycles": "cycle"}
        assert entry["returns"] == "inst/cycle"
        assert doc["coverage"]["functions_with_units"] == 1
        assert doc["findings"] == {"unit": 0, "clock": 0}

    def test_analysis_is_memoized_on_the_project(self, tmp_path):
        project = contexts_for(tmp_path, {
            "src/repro/sim/a.py": "x = 1\n",
        })
        first = units_analysis(project)
        assert units_analysis(project) is first


# --- cache version fingerprint ------------------------------------------------


class TestAnalysisVersionFingerprint:
    def test_versions_cover_every_semantic_analysis(self):
        # One digest of every .py file under repro/devtools (and the
        # Python minor version) keys the cache, so an edit to any
        # analysis, the summary extractor or a rule invalidates it.
        from repro.devtools.semantic import (
            clockdomains, effects, graph, lifecycle, races, summary,
            typedcore, units,
        )

        assert analysis_versions() == {"devtools": graph._devtools_digest()}
        digested = Path(graph.__file__).resolve().parents[1]
        for module in (clockdomains, effects, lifecycle, races, summary,
                       typedcore, units):
            assert Path(module.__file__).resolve().is_relative_to(digested)

    def test_bumping_an_analysis_version_discards_the_cache(self, tmp_path):
        path = tmp_path / "cache.json"
        cache = AnalysisCache(path, versions={"units": 1})
        cache.put("digest", {"module": "m"})
        cache.save()
        same = AnalysisCache(path, versions={"units": 1})
        assert same.get("digest") == {"module": "m"}
        bumped = AnalysisCache(path, versions={"units": 2})
        assert bumped.get("digest") is None
        added = AnalysisCache(path, versions={"units": 1, "clockdomains": 1})
        assert added.get("digest") is None


# --- parallel summarization ---------------------------------------------------


class TestParallelSummarization:
    def test_jobs_findings_identical_to_serial(self, tmp_path):
        files = {}
        for i in range(6):
            files[f"src/repro/sim/m{i}.py"] = (
                "from repro.units import Bytes, Lines\n"
                f"def f{i}(b: Bytes, ln: Lines) -> Bytes:\n"
                "    return b + ln\n"
            )
        for relpath, content in files.items():
            path = tmp_path / relpath
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(content)
        (tmp_path / "pyproject.toml").touch()
        serial = lint_paths(
            [tmp_path], root=tmp_path, select=["R012", "R013"],
            semantic_cache=False,
        )
        parallel = lint_paths(
            [tmp_path], root=tmp_path, select=["R012", "R013"],
            semantic_cache=False, jobs=2,
        )
        assert serial, "fixture should produce findings"
        assert [f.render() for f in parallel] == [f.render() for f in serial]


# --- git-aware incremental linting --------------------------------------------


def _git(cwd: Path, *args: str) -> None:
    subprocess.run(
        ["git", "-c", "user.email=t@example.com", "-c", "user.name=t", *args],
        cwd=cwd, check=True, capture_output=True,
    )


class TestChangedFiles:
    def test_tracks_diff_and_untracked_python_files(self, tmp_path):
        _git(tmp_path, "init", "-q")
        (tmp_path / "a.py").write_text("x = 1\n")
        (tmp_path / "notes.txt").write_text("n\n")
        _git(tmp_path, "add", "-A")
        _git(tmp_path, "commit", "-q", "-m", "seed")
        (tmp_path / "a.py").write_text("x = 2\n")
        (tmp_path / "b.py").write_text("y = 1\n")
        (tmp_path / "more.txt").write_text("m\n")
        assert changed_files(tmp_path) == {"a.py", "b.py"}

    def test_outside_a_repo_raises(self, tmp_path):
        with pytest.raises(RuntimeError):
            changed_files(tmp_path)

    def test_cli_changed_lints_only_touched_files(self, tmp_path, capsys):
        _git(tmp_path, "init", "-q")
        (tmp_path / "pyproject.toml").touch()
        clean = tmp_path / "src" / "repro" / "sim" / "clean.py"
        clean.parent.mkdir(parents=True)
        clean.write_text(
            "from repro.units import Bytes, Lines\n"
            "def total(b: Bytes, ln: Lines) -> Bytes:\n"
            "    return b + ln\n"
        )
        _git(tmp_path, "add", "-A")
        _git(tmp_path, "commit", "-q", "-m", "seed")
        # Committed tree unchanged: --changed finds nothing to lint,
        # even though the committed file has a finding.
        code = main([
            str(tmp_path), "--root", str(tmp_path), "--changed",
            "--select", "R012", "--no-semantic-cache",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "nothing to lint" in out
        # A new bad file is untracked -> reported.
        bad = tmp_path / "src" / "repro" / "sim" / "bad.py"
        bad.write_text(clean.read_text())
        code = main([
            str(tmp_path), "--root", str(tmp_path), "--changed",
            "--select", "R012", "--no-semantic-cache",
        ])
        out = capsys.readouterr().out
        assert code == 1
        assert "bad.py" in out
        assert "clean.py" not in out


# --- repo-level gate ----------------------------------------------------------


class TestRealTreeUnits:
    def test_shipped_tree_is_unit_clean(self):
        findings = lint_paths(
            [REPO_ROOT / "src"],
            root=REPO_ROOT,
            select=["R012", "R013"],
            semantic_cache=False,
        )
        assert findings == [], [f.render() for f in findings]

    def test_core_surfaces_are_annotated(self):
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
        doc = units_graph_doc(project)
        # The analysis actually covered the sim/metrics/core/obs layers.
        for module in ("repro.sim.engine", "repro.sim.stats",
                       "repro.metrics.bandwidth", "repro.core.controller",
                       "repro.obs.live"):
            assert module in doc["checked_modules"]
        ws = doc["modules"]["repro.sim.stats"]["classes"]["WindowSample"]
        assert ws["bw"] == "frac-of-peak"
        assert ws["cycles"] == "cycle"
        eb = doc["modules"]["repro.metrics.bandwidth"]["functions"]
        assert eb["effective_bandwidth"]["returns"] == "frac-of-peak"
        assert doc["coverage"]["functions_with_units"] >= 40
