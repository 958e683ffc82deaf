"""Tests for repro.experiments.common: the disk-cached context."""

import json

import pytest

from repro.config import TLP_LEVELS, small_config
from repro.core.runner import RunLengths
from repro.experiments.common import ExperimentContext, ResultStore
from repro.obs.metrics import MetricsRegistry, get_metrics, set_metrics
from repro.workloads.table4 import app_by_abbr


@pytest.fixture
def ctx(tmp_path):
    return ExperimentContext(
        config=small_config(),
        lengths=RunLengths.quick(),
        seed=5,
        store=ResultStore(tmp_path),
    )


class TestResultStore:
    def test_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path)
        store.save("kind", "abc", {"x": [1, 2], "y": "z"})
        assert store.load("kind", "abc") == {"x": [1, 2], "y": "z"}

    def test_miss_returns_none(self, tmp_path):
        assert ResultStore(tmp_path).load("kind", "nope") is None

    def test_kinds_are_separate(self, tmp_path):
        store = ResultStore(tmp_path)
        store.save("a", "k", {"v": 1})
        assert store.load("b", "k") is None

    def test_undecodable_entries_are_recomputed(self, tmp_path):
        apps = [app_by_abbr("BLK"), app_by_abbr("TRD")]

        def run():
            ctx = ExperimentContext(
                small_config(), RunLengths.quick(), seed=5,
                store=ResultStore(tmp_path), n_jobs=1,
            )
            return ctx.alone(apps[1]), ctx.surface(apps), ctx.scheme(apps, "besttlp")

        uncached = run()
        for kind in ("alone", "surface", "scheme"):
            path = sorted(tmp_path.glob(f"{kind}-*.json"))[0]
            path.write_text(path.read_text()[:99])
        assert run() == uncached
        for path in tmp_path.glob("*.json"):
            json.loads(path.read_text())  # the bad entries were replaced

    @pytest.mark.parametrize("bad", ["{}", "[]"])
    @pytest.mark.parametrize("kind", ["alone", "surface", "scheme"])
    def test_wrong_shape_entries_are_misses(self, tmp_path, kind, bad):
        """An entry that parses but is no record counts as a miss and is
        recomputed; a bad surface is re-profiled even when only a search
        scheme's evaluation reads it."""
        apps = [app_by_abbr("BLK"), app_by_abbr("TRD")]

        def run():
            ctx = ExperimentContext(
                small_config(), RunLengths.quick(), seed=5,
                store=ResultStore(tmp_path), n_jobs=1,
            )
            return ctx.alone_for(apps), ctx.scheme(apps, "opt-ws"), ctx.surface(apps)

        uncached = run()
        for path in tmp_path.glob(f"{kind}-*.json"):
            path.write_text(bad)
        if kind == "surface":
            for path in tmp_path.glob("scheme-*.json"):
                path.unlink()
        previous = set_metrics(MetricsRegistry())
        try:
            assert run() == uncached
            counters = get_metrics().counters
        finally:
            set_metrics(previous)
        assert counters[f"cache.{kind}.miss"] >= 1
        for path in tmp_path.glob("*.json"):
            assert json.loads(path.read_text())  # bad entries were replaced

    def test_an_entry_of_the_right_shape_that_does_not_decode_raises(self, tmp_path):
        """Only a wrong shape is a miss: a decoder failing on an entry that
        carries its record's fields is an error, not a silent re-run."""
        apps = [app_by_abbr("BLK"), app_by_abbr("TRD")]
        ctx = ExperimentContext(small_config(), RunLengths.quick(), seed=5,
                                store=ResultStore(tmp_path), n_jobs=1)
        ctx.scheme(apps, "besttlp")
        (path,) = tmp_path.glob("scheme-*.json")
        data = json.loads(path.read_text())
        data["result"]["samples"] = []
        path.write_text(json.dumps(data))
        with pytest.raises(AttributeError):
            ctx.scheme(apps, "besttlp")


class TestStoreKinds:
    """Each kind of store entry is served back exactly, and only to the
    model that computed it."""

    APPS = ("BLK", "TRD")
    SCHEMES = ("dyncta", "pbs-ws")  # window log, TLP timeline, decisions

    def _products(self, root):
        ctx = ExperimentContext(small_config(), RunLengths.quick(), seed=5,
                                store=ResultStore(root), n_jobs=1)
        apps = ctx.pair_apps(*self.APPS)
        previous = set_metrics(MetricsRegistry())
        try:
            products = (ctx.alone_for(apps), ctx.surface(apps),
                        ctx.schemes(apps, self.SCHEMES))
            return products, get_metrics().counters
        finally:
            set_metrics(previous)

    def test_every_kind_round_trips_exactly_as_a_hit(self, tmp_path):
        computed, _ = self._products(tmp_path)
        assert computed[0][0].sweep and computed[2]["pbs-ws"].decisions
        assert computed[2]["dyncta"].result.windows
        loaded, counters = self._products(tmp_path)
        assert loaded == computed
        assert counters == {"cache.alone.hit": 2, "cache.surface.hit": 1,
                            "cache.scheme.hit": 2}

    def test_another_model_digest_recomputes_every_kind(self, tmp_path, monkeypatch):
        import repro.experiments.common as common

        computed, cold = self._products(tmp_path)
        n_files = len(list(tmp_path.iterdir()))
        monkeypatch.setattr(common, "MODEL_DIGEST", common.MODEL_DIGEST + "-changed")
        recomputed, counters = self._products(tmp_path)
        assert recomputed == computed
        # the same misses and saves as over an empty store, for every kind
        assert counters == cold
        assert {"cache.alone.save", "cache.surface.save", "cache.scheme.save"} <= set(cold)
        assert len(list(tmp_path.iterdir())) == 2 * n_files


class TestAloneCaching:
    def test_cache_hit_reproduces_profile(self, ctx):
        app = app_by_abbr("BLK")
        first = ctx.alone(app)
        second = ctx.alone(app)  # served from disk
        assert second.best_tlp == first.best_tlp
        assert second.ipc_alone == pytest.approx(first.ipc_alone)
        assert set(second.sweep) == set(first.sweep)

    def test_different_seed_different_key(self, tmp_path):
        a = ExperimentContext(small_config(), RunLengths.quick(), seed=1,
                              store=ResultStore(tmp_path))
        b = ExperimentContext(small_config(), RunLengths.quick(), seed=2,
                              store=ResultStore(tmp_path))
        app = app_by_abbr("BLK")
        a.alone(app)
        files_after_a = len(list(tmp_path.iterdir()))
        b.alone(app)
        assert len(list(tmp_path.iterdir())) > files_after_a


class TestSurfaceCaching:
    def test_surface_roundtrip(self, ctx):
        apps = ctx.pair_apps("BLK", "TRD")
        first = ctx.surface(apps)
        second = ctx.surface(apps)
        assert set(second) == set(first)
        combo = (8, 8)
        assert second[combo].samples[0].eb == pytest.approx(
            first[combo].samples[0].eb
        )


class TestSchemeCaching:
    def test_scheme_roundtrip(self, ctx):
        apps = ctx.pair_apps("BLK", "TRD")
        first = ctx.scheme(apps, "besttlp")
        second = ctx.scheme(apps, "besttlp")
        assert second.ws == pytest.approx(first.ws)
        assert second.combo == first.combo
        assert second.result.tlp_timeline == first.result.tlp_timeline

    def test_dynamic_scheme_cached_with_timeline(self, ctx):
        apps = ctx.pair_apps("BLK", "TRD")
        first = ctx.scheme(apps, "dyncta")
        second = ctx.scheme(apps, "dyncta")
        assert second.combo == first.combo
        assert len(second.result.tlp_timeline) == len(first.result.tlp_timeline)

    def test_unknown_scheme_rejected_before_simulating(self, ctx, tmp_path):
        apps = ctx.pair_apps("BLK", "TRD")
        with pytest.raises(ValueError, match="unknown schemes"):
            ctx.schemes(apps, ["besttlp", "nope"])
        assert not list(tmp_path.iterdir())

    def test_profile_key_ignores_dynamic_lengths(self, tmp_path):
        """Changing dynamic run lengths must not invalidate surfaces."""
        import dataclasses

        base = RunLengths.quick()
        longer = dataclasses.replace(base, dynamic_cycles=base.dynamic_cycles * 2)
        a = ExperimentContext(small_config(), base, seed=1,
                              store=ResultStore(tmp_path))
        b = ExperimentContext(small_config(), longer, seed=1,
                              store=ResultStore(tmp_path))
        app = app_by_abbr("BLK")
        a.alone(app)
        n_files = len(list(tmp_path.iterdir()))
        b.alone(app)  # must be a cache hit
        assert len(list(tmp_path.iterdir())) == n_files


class TestOneBatch:
    """A figure runs everything it misses as one pool batch across all its
    workloads, controller runs first; its static schemes are scored from
    the alone profiles and surfaces the batch made."""

    PAIRS = (("BLK", "TRD"), ("BLK", "FFT"), ("BFS", "LUD"))
    SCHEMES = ("besttlp", "dyncta", "bf-ws", "opt-ws")

    def _context(self, root, n_jobs):
        return ExperimentContext(small_config(), RunLengths.quick(), seed=3,
                                 store=ResultStore(root), n_jobs=n_jobs)

    @staticmethod
    def _count_batches(monkeypatch) -> list[list]:
        import repro.core.runner as runner
        import repro.experiments.common as common

        batches: list[list] = []

        def counting(real):
            def run_jobs(worker, specs, n_jobs=None, progress=None):
                batches.append(list(specs))
                return real(worker, specs, n_jobs=n_jobs, progress=progress)
            return run_jobs

        for module in (common, runner):
            monkeypatch.setattr(module, "run_jobs", counting(module.run_jobs))
        return batches

    @staticmethod
    def _count_runs(monkeypatch) -> list[tuple]:
        """Record every in-process ``Simulator.run`` as (apps, initial
        TLP, cycles, controller class or None)."""
        from repro.sim.engine import Simulator

        runs: list[tuple] = []
        real = Simulator.run

        def run(sim, max_cycles, *args, **kwargs):
            runs.append((tuple(a.abbr for a in sim.apps),
                         tuple(sorted((kwargs.get("initial_tlp") or {}).items())),
                         max_cycles, sim.controller and type(sim.controller).__name__))
            return real(sim, max_cycles, *args, **kwargs)

        monkeypatch.setattr(Simulator, "run", run)
        return runs

    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_comparison_runs_one_batch(self, tmp_path, monkeypatch, n_jobs):
        from repro.core.runner import SchemeJob
        from repro.experiments.fig9 import run_comparison

        batches = self._count_batches(monkeypatch)
        table = run_comparison(self._context(tmp_path / "batched", n_jobs),
                               "ws", self.SCHEMES, self.PAIRS, representative=())

        assert len(batches) == 1
        (batch,) = batches
        # longest first: the controller runs lead the batch
        assert [type(job) for job in batch[:3]] == [SchemeJob] * 3
        assert [job.tag for job in batch[:3]] == [
            ("scheme", "_".join(pair), "dyncta") for pair in self.PAIRS]
        assert not any(isinstance(job, SchemeJob) for job in batch[3:])
        assert sum(job.tag[0] == "surface" for job in batch) == 64 * len(self.PAIRS)
        alone = [job.tag for job in batch if job.tag[0] == "alone"]
        distinct = {app for pair in self.PAIRS for app in pair}
        assert sorted(alone) == sorted(
            ("alone", app, level) for app in distinct for level in TLP_LEVELS
        )

        reference = self._context(tmp_path / "per-pair", n_jobs)
        for names in self.PAIRS:
            results = reference.schemes(reference.pair_apps(*names), self.SCHEMES)
            base = results["besttlp"].ws
            assert table.per_workload["_".join(names)] == {
                s: r.ws / max(base, 1e-12) for s, r in results.items()
            }

    def test_a_static_run_no_surface_holds_takes_a_second_batch(
            self, tmp_path, monkeypatch):
        """bestTLP and maxTLP on workloads that request no search scheme
        run after the alone profiles that pick bestTLP's combination."""
        from repro.core.runner import SchemeJob

        batches = self._count_batches(monkeypatch)
        ctx = self._context(tmp_path, 2)
        workloads = [ctx.pair_apps(*pair) for pair in self.PAIRS]
        tables = ctx.schemes_for(workloads, ("besttlp", "maxtlp", "dyncta"))

        assert len(batches) == 2
        first, second = batches
        assert [job.tag[0] for job in first] == (
            ["scheme"] * 3 + ["alone"] * (len(first) - 3))
        assert all(isinstance(job, SchemeJob) for job in second)
        assert sorted(job.tag for job in second) == sorted(
            ("scheme", "_".join(pair), s)
            for pair in self.PAIRS for s in ("besttlp", "maxtlp"))
        for apps, table in zip(workloads, tables):
            best = tuple(p.best_tlp for p in ctx.alone_for(apps))
            assert table["besttlp"].combo == best

    def test_cold_stores_are_byte_identical_serial_and_pooled(self, tmp_path):
        from repro.experiments.fig9 import run_comparison

        stores = {}
        for n_jobs in (1, 2):
            root = tmp_path / f"jobs{n_jobs}"
            run_comparison(self._context(root, n_jobs), "ws", self.SCHEMES,
                           self.PAIRS[:2], representative=())
            stores[n_jobs] = {p.name: p.read_bytes() for p in root.iterdir()}
        assert stores[1] == stores[2]
        assert len(stores[1]) == 3 + 2 + 2 * len(self.SCHEMES)  # alone, surface, scheme

    def test_static_baselines_are_the_surface_runs(self, tmp_path):
        ctx = self._context(tmp_path, 1)
        apps = ctx.pair_apps("BLK", "TRD")
        results = ctx.schemes(apps, ("besttlp", "maxtlp", "opt-ws"))
        surface = ctx.surface(apps)
        for scheme in ("besttlp", "maxtlp"):
            result = results[scheme]
            assert result.result == surface[result.combo]
        assert results["maxtlp"].combo == (ctx.config.max_tlp,) * 2

    def test_every_run_simulates_once(self, tmp_path, monkeypatch):
        """One ``Simulator.run`` per alone level, per surface combination
        and per dynamic scheme: bestTLP and the searches reuse the
        surface, and a scheme named twice runs once."""
        runs = self._count_runs(monkeypatch)
        ctx = self._context(tmp_path, 1)
        apps = ctx.pair_apps("BLK", "TRD")
        ctx.schemes(apps, ("besttlp", "dyncta", "maxtlp", "dyncta", "opt-ws",
                           "bf-ws", "pbs-ws", "pbs-offline-ws"))
        assert len(runs) == len(set(runs))
        assert sorted(r[0] for r in runs if len(r[0]) == 1) == sorted(
            (abbr,) for abbr in ("BLK", "TRD") for _ in TLP_LEVELS)
        static = [r for r in runs if len(r[0]) == 2 and r[3] is None]
        assert len(static) == len(TLP_LEVELS) ** 2
        assert sorted(r[3] for r in runs if r[3]) == [
            "DynCTAController", "PBSController"]

    def test_a_scheme_named_twice_runs_once(self, tmp_path, monkeypatch):
        ctx = self._context(tmp_path, 1)
        apps = ctx.pair_apps("BLK", "TRD")
        ctx.alone_for(apps)
        runs = self._count_runs(monkeypatch)
        results = ctx.schemes(apps, ["dyncta", "dyncta"])
        assert list(results) == ["dyncta"]
        assert len(runs) == 1

    def test_the_zoo_is_profiled_in_one_batch(self, tmp_path, monkeypatch):
        """Table IV alone-profiles all 26 applications in one batch, into
        the store entries and rows one ``alone`` call per application
        gives."""
        from repro.experiments.table4 import run_table4
        from repro.workloads.table4 import APPLICATIONS

        batches = self._count_batches(monkeypatch)
        rows = run_table4(self._context(tmp_path / "batched", 2)).rows
        assert len(batches) == 1
        assert len(batches[0]) == len(APPLICATIONS) * len(TLP_LEVELS)

        reference = self._context(tmp_path / "per-app", 1)
        profiles = [reference.alone(app) for app in APPLICATIONS]
        assert [(r.abbr, r.best_tlp, r.ipc, r.eb) for r in rows] == [
            (p.abbr, p.best_tlp, p.ipc_alone, p.eb_alone) for p in profiles]
        stores = [{p.name: p.read_bytes() for p in (tmp_path / side).iterdir()}
                  for side in ("batched", "per-app")]
        assert stores[0] == stores[1]
        assert len(stores[0]) == len(APPLICATIONS)
