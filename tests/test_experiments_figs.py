"""Tests for the experiment drivers (fig1..fig11, table4, sensitivity).

Each driver runs on the tiny test GPU with a temporary cache and must
produce structurally sound results and render without error.  The
paper-shape claims are ``repro eval``'s (repro.experiments.eval), on
the campaign's configuration.
"""

import pytest

from repro.config import small_config
from repro.core.runner import RunLengths
from repro.experiments.common import ExperimentContext, ResultStore
from repro.experiments.fig1 import run_fig1
from repro.experiments.fig2 import run_fig2
from repro.experiments.fig3 import run_fig3
from repro.experiments.fig5 import run_fig5
from repro.experiments.fig6 import inflection_level, run_fig6
from repro.experiments.fig8 import run_fig8
from repro.experiments.fig9 import run_comparison
from repro.experiments.fig11 import run_fig11
from repro.experiments.report import geomean, normalize_to, render_table
from repro.experiments.table4 import group_scale_factors, run_table4


@pytest.fixture(scope="module")
def ctx(tmp_path_factory):
    return ExperimentContext(
        config=small_config(),
        lengths=RunLengths.quick(),
        seed=5,
        store=ResultStore(tmp_path_factory.mktemp("results")),
    )


class TestReportHelpers:
    def test_render_table_aligns(self):
        text = render_table(("a", "bb"), [(1, 2.5), ("xx", 3.25)], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "2.500" in text and "3.250" in text

    def test_render_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            render_table(("a",), [(1, 2)])

    def test_geomean(self):
        assert geomean([2.0, 8.0]) == pytest.approx(4.0)
        with pytest.raises(ValueError):
            geomean([])

    def test_normalize_to(self):
        out = normalize_to({"a": 2.0, "b": 4.0}, "a")
        assert out == {"a": 1.0, "b": 2.0}
        with pytest.raises(ValueError):
            normalize_to({"a": 0.0}, "a")


class TestFig1:
    def test_structure(self, ctx):
        result = run_fig1(ctx, pair_names=("BLK", "TRD"))
        assert result.ws["besttlp"] == pytest.approx(1.0)
        assert result.fi["besttlp"] == pytest.approx(1.0)
        # The oracles can never lose to the baseline on their own metric.
        assert result.ws["opt-ws"] >= 1.0 - 1e-9
        assert result.fi["opt-fi"] >= 1.0 - 1e-9
        assert "Figure 1" in result.render()


class TestFig2:
    def test_structure(self, ctx):
        result = run_fig2(ctx, abbr="BLK")
        assert len(result.levels) == len(result.ipc) == 8
        assert max(result.ipc) == pytest.approx(1.0)
        assert -1.0 <= result.ipc_eb_correlation <= 1.0
        assert "Figure 2" in result.render()


class TestFig3:
    def test_hierarchy_monotone(self, ctx):
        result = run_fig3(ctx, abbr="BLK")
        assert result.bw_at_dram <= result.eb_at_l2 + 1e-12
        assert result.eb_at_l2 <= result.eb_at_core + 1e-12
        assert "Figure 3" in result.render()


class TestTable4:
    def test_structure(self, ctx):
        result = run_table4(ctx)
        assert len(result.rows) == 26
        assert sum(len(v) for v in result.groups.values()) == 26
        # groups ordered by EB: G4 mean above G1 mean
        assert result.group_mean_eb("G4") >= result.group_mean_eb("G1")
        scale = group_scale_factors(result, ("BLK", "TRD"))
        assert len(scale) == 2 and all(s > 0 for s in scale)
        assert "Table IV" in result.render()

    def test_unknown_app_raises(self, ctx):
        result = run_table4(ctx)
        with pytest.raises(KeyError):
            result.row("NOPE")


class TestFig5:
    def test_structure(self, ctx):
        result = run_fig5(ctx)
        assert len(result.pairs) == 325
        assert result.mean_ipc_ar >= 1.0
        assert result.mean_eb_ar >= 1.0
        assert 0.0 <= result.eb_wins_fraction <= 1.0
        assert "Figure 5" in result.render()


class TestFig6:
    def test_inflection_level_helper(self):
        levels = [1, 2, 4, 8]
        assert inflection_level(levels, [1.0, 2.0, 0.5, 0.4]) == 2
        assert inflection_level(levels, [0.1, 0.2, 0.3, 0.4]) == 8

    def test_structure(self, ctx):
        result = run_fig6(ctx, pair_names=("BLK", "TRD"))
        assert set(result.ebws) == {0, 1}
        for app in (0, 1):
            assert 0.0 <= result.pattern_consistency(app) <= 1.0
            for series in result.ebws[app].values():
                assert len(series) == len(result.levels)
        assert "Figure 6" in result.render()


class TestFig8:
    def test_budget(self):
        budget = run_fig8(small_config())
        assert budget.per_core_bits == 64
        assert budget.total_storage_bytes > 0
        assert "overhead" in budget.render()


class TestComparison:
    def test_two_scheme_comparison(self, ctx):
        result = run_comparison(
            ctx, "ws", ("besttlp", "maxtlp"), pairs=(("BLK", "TRD"),),
        )
        assert result.gmean("besttlp") == pytest.approx(1.0)
        assert result.per_workload["BLK_TRD"]["maxtlp"] > 0
        # rendered with the default representative set, of which the
        # comparison ran one pair
        rendered = result.render()
        assert "Figure 9" in rendered and "BLK_TRD" in rendered


class TestFig11:
    def test_timeline(self, ctx):
        result = run_fig11(ctx, pair_names=("BLK", "TRD"), scheme="pbs-ws")
        assert result.segments, "timeline must not be empty"
        assert result.segments[0][0] == 0.0
        assert result.n_changes >= 0
        assert result.dominant_combo[0] in small_config().tlp_levels
        assert "Figure 11" in result.render()


class TestSparkline:
    def test_shapes(self):
        from repro.experiments.report import sparkline

        line = sparkline([0.0, 0.5, 1.0])
        assert len(line) == 3
        assert line[0] < line[-1]  # unicode bars sort by height

    def test_flat_series(self):
        from repro.experiments.report import sparkline

        assert sparkline([2.0, 2.0, 2.0]) == "▁▁▁"

    def test_empty(self):
        from repro.experiments.report import sparkline

        assert sparkline([]) == ""
