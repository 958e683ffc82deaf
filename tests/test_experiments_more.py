"""Tests for the heavier experiment drivers on minimal workload sets."""

import pytest

from repro.config import small_config
from repro.core.runner import RunLengths
from repro.experiments.common import ExperimentContext, ResultStore
from repro.experiments.fig4 import run_fig4
from repro.experiments.fig7 import run_fig7
from repro.experiments.sensitivity import (
    run_core_split,
    run_l2_partition,
    run_three_apps,
)


@pytest.fixture(scope="module")
def ctx(tmp_path_factory):
    return ExperimentContext(
        config=small_config(),
        lengths=RunLengths.quick(),
        seed=5,
        store=ResultStore(tmp_path_factory.mktemp("results")),
    )


class TestFig4:
    def test_single_pair(self, ctx):
        result = run_fig4(ctx, pairs=(("BLK", "TRD"),))
        assert len(result.rows) == 1
        row = result.rows[0]
        assert row.workload == "BLK_TRD"
        # optWS cannot lose to bestTLP: same surface, exhaustive search.
        assert row.ws_opt >= row.ws_base - 1e-9
        assert "Figure 4" in result.render()


class TestFig7:
    def test_structure(self, ctx):
        result = run_fig7(ctx, pair_names=("BLK", "TRD"))
        assert len(result.scale) == 2
        assert set(result.eb_diff) == {1, 4, 8, 24}
        for series in result.eb_diff.values():
            assert len(series) == 8
        for combo in (result.pbs_fi_combo, result.opt_fi_combo,
                      result.pbs_hs_combo, result.opt_hs_combo):
            assert all(lv in small_config().tlp_levels for lv in combo)
        assert "Figure 7" in result.render()


class TestSensitivity:
    @pytest.fixture()
    def wide_ctx(self, tmp_path):
        """Six cores so three applications and uneven splits fit."""
        return ExperimentContext(
            config=small_config().with_(n_cores=6),
            lengths=RunLengths.quick(),
            seed=5,
            store=ResultStore(tmp_path),
        )

    def test_three_apps(self, wide_ctx):
        result = run_three_apps(
            wide_ctx, names=("BLK", "TRD", "JPEG"),
            schemes=("besttlp", "maxtlp"),
        )
        assert set(result.ws) == {"besttlp", "maxtlp"}
        assert all(ws > 0 for ws in result.ws.values())
        assert "three-application" in result.render()

    def test_three_apps_uses_every_core(self, tmp_path):
        """Eight cores do not divide by three: the split is 3+3+2, never
        2+2+2 with two cores idle (which the engine rejects)."""
        ctx = ExperimentContext(
            config=small_config().with_(n_cores=8),
            lengths=RunLengths.quick(),
            seed=5,
            store=ResultStore(tmp_path),
        )
        result = run_three_apps(
            ctx, names=("BLK", "TRD", "JPEG"), schemes=("besttlp",)
        )
        assert result.ws["besttlp"] > 0

    def test_three_apps_needs_cores(self, ctx):
        with pytest.raises(ValueError, match="cannot host"):
            run_three_apps(ctx, names=("BLK", "TRD", "JPEG"))

    def test_core_split(self, wide_ctx):
        result = run_core_split(
            wide_ctx, pair_names=("BLK", "TRD"), schemes=("besttlp",)
        )
        assert len(result.ws) >= 2, "uneven and even splits evaluated"
        for values in result.ws.values():
            assert values["besttlp"] > 0
        assert "core-partitioning" in result.render()

    def test_core_split_slowdowns_are_against_each_share(self, wide_ctx):
        """Under a core split each application's slowdown is taken
        against its alone profile on the cores it is given."""
        apps = wide_ctx.pair_apps("BLK", "TRD")
        split = (2, 4)
        result = wide_ctx.schemes(apps, ["besttlp"], split)["besttlp"]
        for a, (app, share) in enumerate(zip(apps, split)):
            (alone,) = wide_ctx.alone_for([app], n_cores=share)
            assert result.sds[a] == result.ipcs[a] / alone.ipc_alone
            assert result.combo[a] == alone.best_tlp

    def test_l2_partition(self, ctx):
        result = run_l2_partition(
            ctx, pair_names=("BLK", "TRD"), schemes=("besttlp",)
        )
        assert set(result.ws) == {"shared L2", "way-partitioned L2"}
        for values in result.ws.values():
            assert values["besttlp"] > 0
        assert "L2-partitioning" in result.render()


class TestObservation2:
    def test_structure(self, ctx):
        from repro.experiments.fig4 import run_observation2

        result = run_observation2(ctx, pairs=(("BLK", "TRD"),))
        assert set(result.rows) == {"BLK_TRD"}
        opt_it, opt_ws, ratio = result.rows["BLK_TRD"]
        assert len(opt_it) == len(opt_ws) == 2
        assert 0.0 < ratio <= 1.0 + 1e-9
        assert "Observation 2" in result.render()


class TestRobustness:
    def test_structure(self, ctx):
        from repro.experiments.robustness import run_robustness

        result = run_robustness(
            ctx, seeds=(5, 6), workloads=(("BLK", "TRD"),),
            schemes=("besttlp", "opt-ws"),
        )
        assert set(result.gmeans) == {5, 6}
        for seed in (5, 6):
            assert result.gmeans[seed]["besttlp"] == 1.0
            assert result.gmeans[seed]["opt-ws"] >= 1.0 - 1e-9
        assert result.ordering_stable("opt-ws", "besttlp")
        mean, std = result.spread("opt-ws")
        assert mean >= 1.0 and std >= 0.0
        assert "robustness" in result.render()


class TestSamplingSweep:
    def test_structure(self, ctx):
        from repro.experiments.sampling import run_sampling_sweep

        sweep = run_sampling_sweep(
            ctx, pair_names=("BLK", "TRD"), periods=(800, 1600)
        )
        assert set(sweep.rows) == {800, 1600}
        for ws, _combo, search_cycles in sweep.rows.values():
            assert ws > 0
            assert search_cycles >= 0
        assert sweep.flat_region_spread >= 1.0
        assert "monitoring-interval" in sweep.render()

    def test_rows_are_the_stored_scheme_runs(self, ctx, monkeypatch):
        """Each period's row is the online PBS-WS scheme run at that
        sample period, which a hand-built controller run reproduces
        exactly; at the context's own period it is the context's stored
        run, so that row simulates nothing."""
        from repro.core.pbs import PBSController
        from repro.core.runner import run_combo
        from repro.experiments.sampling import run_sampling_sweep
        from repro.sim.engine import Simulator

        default = ctx.lengths.sample_period
        periods = (default, 2 * default)
        sweep = run_sampling_sweep(ctx, periods=periods)
        apps = ctx.pair_apps("BLK", "TRD")
        alone = ctx.alone_for(apps)
        for period in periods:
            controller = PBSController("ws", n_apps=2, sample_period=period)
            rerun = run_combo(
                ctx.config, apps, (ctx.config.max_tlp,) * 2,
                ctx.lengths.dynamic_cycles, ctx.lengths.dynamic_warmup,
                seed=ctx.seed, controller=controller,
            )
            ws = sum(rerun.samples[a].ipc / alone[a].ipc_alone for a in (0, 1))
            settled = max(t for t, _, _ in rerun.tlp_timeline)
            assert sweep.rows[period] == (ws, controller.final_combo, settled)
        assert sweep.rows[default][0] == ctx.scheme(apps, "pbs-ws").ws

        runs = []
        real = Simulator.run
        monkeypatch.setattr(Simulator, "run",
                            lambda sim, *a, **k: runs.append(sim) or real(sim, *a, **k))
        assert run_sampling_sweep(ctx, periods=periods).rows == sweep.rows
        assert runs == []


class TestLatencyStudy:
    def test_structure(self, ctx):
        from repro.experiments.latency import run_latency_study

        study = run_latency_study(ctx, pair_names=("BLK", "TRD"))
        assert set(study.combos) == {"bestTLP+bestTLP", "optWS"}
        for label in study.combos:
            assert study.queue_depth[label] >= 0
            for app in (0, 1):
                s = study.latency[label][app]
                assert s["p50"] <= s["p99"]
                assert 0.0 <= study.l2_share[label][app] <= 1.0
        assert "latency" in study.render()
