"""Tests for repro.exec: the parallel sweep executor and the
cache-coherence fixes that ride along with it.

Covers the pool runner itself (worker-count resolution, order
preservation, error propagation, progress), parallel-vs-serial
determinism of the profiling entry points, concurrent ResultStore
writers, cache round-trip equality including the window log, and the
post-warmup DRAM-utilization accounting.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.config import small_config
from repro.core.runner import (
    AloneProfile,
    RunLengths,
    SchemeResult,
    profile_alone,
    profile_surface,
)
from repro.exec import JobError, SimJob, resolve_jobs, run_jobs, run_sim_job
from repro.experiments.common import (
    ExperimentContext,
    ResultStore,
    _result_to_dict,
)
from repro.sim.engine import SimResult, Simulator
from repro.sim.stats import WindowSample
from repro.workloads.table4 import app_by_abbr


# --- module-level workers (must be picklable) ---------------------------------

def _square(x: int) -> int:
    return x * x


def _explode_on_three(x: int) -> int:
    if x == 3:
        raise RuntimeError("boom")
    return x


def _raise_interrupt(x: int) -> int:
    raise KeyboardInterrupt


def _save_repeatedly(spec: tuple[str, str, int]) -> None:
    """Hammer one store key from a worker process."""
    root, payload_id, n = spec
    store = ResultStore(root)
    for _ in range(n):
        store.save("race", "samekey", {"writer": payload_id, "blob": "x" * 2000})


# --- the pool runner ----------------------------------------------------------

class TestResolveJobs:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert resolve_jobs(3) == 3

    def test_env_var(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_jobs() == 5

    def test_default_is_cpu_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs() == (os.cpu_count() or 1)

    def test_invalid_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            resolve_jobs()

    def test_nonpositive(self):
        with pytest.raises(ValueError):
            resolve_jobs(0)


class TestRunJobs:
    def test_empty(self):
        assert run_jobs(_square, [], n_jobs=4) == []

    @pytest.mark.parametrize("n_jobs", [1, 4])
    def test_order_preserved(self, n_jobs):
        assert run_jobs(_square, range(20), n_jobs=n_jobs) == [
            x * x for x in range(20)
        ]

    @pytest.mark.parametrize("n_jobs", [1, 4])
    def test_error_names_spec(self, n_jobs):
        with pytest.raises(JobError, match="3") as err:
            run_jobs(_explode_on_three, range(6), n_jobs=n_jobs)
        assert err.value.spec == 3
        assert isinstance(err.value.__cause__, RuntimeError)

    @pytest.mark.parametrize("n_jobs", [1, 4])
    def test_error_preserves_worker_traceback(self, n_jobs):
        """The worker-side frame survives in JobError.args.

        For pool jobs the original traceback objects cannot cross the
        process boundary, so the rendered text is the only way to see
        *where* in the worker the job died.
        """
        with pytest.raises(JobError) as err:
            run_jobs(_explode_on_three, range(6), n_jobs=n_jobs)
        remote = err.value.remote_traceback
        assert remote == err.value.args[1]
        assert "RuntimeError: boom" in remote
        # the failing worker function is named in the preserved frames
        assert "_explode_on_three" in remote

    def test_keyboard_interrupt_not_wrapped(self):
        """Ctrl-C propagates as itself, never as a JobError."""
        with pytest.raises(KeyboardInterrupt):
            run_jobs(_raise_interrupt, range(3), n_jobs=1)

    def test_progress_counts_to_total(self):
        seen = []
        run_jobs(_square, range(5), n_jobs=1,
                 progress=lambda done, total, spec: seen.append((done, total)))
        assert seen == [(i, 5) for i in range(1, 6)]

    def test_progress_parallel_reaches_total(self):
        seen = []
        run_jobs(_square, range(8), n_jobs=4,
                 progress=lambda done, total, spec: seen.append(done))
        assert sorted(seen) == list(range(1, 9))


class TestProgressElapsed:
    """The extended progress hook: 4-positional callbacks get per-job
    elapsed seconds; legacy 3-arg callbacks keep working unchanged."""

    @pytest.mark.parametrize("n_jobs", [1, 4])
    def test_four_arg_callback_gets_elapsed(self, n_jobs):
        seen = []

        def progress(done, total, spec, elapsed):
            seen.append((done, total, spec, elapsed))

        run_jobs(_square, range(6), n_jobs=n_jobs, progress=progress)
        assert sorted(d for d, _, _, _ in seen) == list(range(1, 7))
        assert all(total == 6 for _, total, _, _ in seen)
        assert all(
            isinstance(elapsed, float) and elapsed >= 0.0
            for _, _, _, elapsed in seen
        )

    @pytest.mark.parametrize("n_jobs", [1, 4])
    def test_star_args_callback_gets_elapsed(self, n_jobs):
        calls = []
        run_jobs(_square, range(3), n_jobs=n_jobs,
                 progress=lambda *a: calls.append(a))
        assert all(len(a) == 4 for a in calls)

    def test_legacy_three_arg_callback_unchanged(self):
        calls = []
        run_jobs(_square, range(3), n_jobs=1,
                 progress=lambda done, total, spec: calls.append((done, spec)))
        assert [d for d, _ in calls] == [1, 2, 3]

    @pytest.mark.parametrize("n_jobs", [1, 4])
    def test_job_error_carries_duration(self, n_jobs):
        with pytest.raises(JobError) as err:
            run_jobs(_explode_on_three, range(6), n_jobs=n_jobs)
        assert err.value.duration is not None
        assert err.value.duration >= 0.0
        assert "after" in str(err.value)

    def test_job_error_without_duration_still_renders(self):
        err = JobError(spec=7, cause=RuntimeError("x"))
        assert err.duration is None
        assert "after" not in str(err)


class TestJobTraceEvents:
    """With a stream installed, every job leaves a timed ``job_done``."""

    @pytest.mark.parametrize("n_jobs", [1, 3])
    def test_jobs_traced(self, n_jobs, tmp_path):
        from repro.obs import LiveHub, job_stats, load_live, set_publisher

        hub = LiveHub("t", tmp_path / "events.ndjson")
        previous = set_publisher(hub.publisher)
        try:
            run_jobs(_square, range(5), n_jobs=n_jobs)
        finally:
            set_publisher(previous)
            hub.close()
        _, records = load_live(hub.path)
        jobs = [r for r in records if r["type"] == "job_done"]
        assert len(jobs) == 5
        assert sum(r["type"] == "job_start" for r in records) == 5
        for r in jobs:
            assert r["elapsed_s"] >= 0.0 and r["job"].startswith("job:")
        assert job_stats(records)["queue_wait_s"] >= 0.0
        if n_jobs == 1:
            assert {r["pid"] for r in jobs} == {os.getpid()}

    def test_untraced_run_emits_nothing(self):
        from repro.obs import get_publisher

        assert not get_publisher().enabled
        run_jobs(_square, range(3), n_jobs=1)  # must not raise or record


# --- parallel-vs-serial determinism -------------------------------------------

LEVELS = (1, 4, 16)  # a sub-lattice keeps the determinism tests fast


class TestDeterminism:
    def test_surface_parallel_matches_serial(self):
        cfg = small_config()
        apps = [app_by_abbr("BLK"), app_by_abbr("TRD")]
        lengths = RunLengths.quick()
        serial = profile_surface(cfg, apps, lengths=lengths, seed=9,
                                 levels=LEVELS, n_jobs=1)
        parallel = profile_surface(cfg, apps, lengths=lengths, seed=9,
                                   levels=LEVELS, n_jobs=4)
        assert list(serial) == list(parallel)  # same lattice order
        # byte-identical through the cache serialization
        for combo in serial:
            assert json.dumps(_result_to_dict(serial[combo])) == json.dumps(
                _result_to_dict(parallel[combo])
            )

    def test_alone_parallel_matches_serial(self):
        cfg = small_config()
        app = app_by_abbr("BFS")
        lengths = RunLengths.quick()
        serial = profile_alone(cfg, app, 1, lengths=lengths, seed=9,
                               levels=LEVELS, n_jobs=1)
        parallel = profile_alone(cfg, app, 1, lengths=lengths, seed=9,
                                 levels=LEVELS, n_jobs=4)
        assert serial == parallel

    def test_sim_job_worker_equals_direct_run(self):
        cfg = small_config()
        app = app_by_abbr("BLK")
        job = SimJob(config=cfg, apps=(app,), combo=(8,), cycles=4_000,
                     warmup=1_000, seed=2, core_split=(2,))
        direct = Simulator(cfg, [app], core_split=(2,), seed=2).run(
            4_000, warmup=1_000, initial_tlp={0: 8}
        )
        assert run_sim_job(job) == direct


# --- concurrent store writers -------------------------------------------------

class TestConcurrentStore:
    def test_concurrent_saves_of_same_key(self, tmp_path):
        specs = [(str(tmp_path), f"writer{i}", 25) for i in range(4)]
        run_jobs(_save_repeatedly, specs, n_jobs=4)
        final = ResultStore(tmp_path).load("race", "samekey")
        assert final is not None
        assert final["writer"] in {f"writer{i}" for i in range(4)}
        assert final["blob"] == "x" * 2000  # never a torn write
        leftovers = list(tmp_path.glob("*.tmp")) + list(tmp_path.glob(".*.tmp"))
        assert leftovers == []

    def test_save_is_atomic_rename(self, tmp_path):
        store = ResultStore(tmp_path)
        store.save("kind", "k", {"v": 1})
        store.save("kind", "k", {"v": 2})
        assert store.load("kind", "k") == {"v": 2}
        assert len(list(tmp_path.iterdir())) == 1


# --- cache round-trips --------------------------------------------------------

@pytest.fixture
def ctx(tmp_path):
    return ExperimentContext(
        config=small_config(),
        lengths=RunLengths.quick(),
        seed=5,
        store=ResultStore(tmp_path),
        n_jobs=1,
    )


class TestCacheRoundTrip:
    def test_scheme_roundtrip_field_for_field(self, ctx, tmp_path):
        """A cached SchemeResult must equal the fresh one exactly —
        including the window log (which old caches silently dropped)."""
        apps = ctx.pair_apps("BLK", "TRD")
        fresh = ctx.scheme(apps, "dyncta")
        assert fresh.result.windows, "dynamic run should log windows"
        ctx2 = ExperimentContext(
            config=small_config(), lengths=RunLengths.quick(), seed=5,
            store=ResultStore(tmp_path), n_jobs=1,
        )
        cached = ctx2.scheme(apps, "dyncta")
        assert cached == fresh  # dataclass equality: every field, incl. windows
        assert cached.result.windows == fresh.result.windows

    def test_surface_roundtrip_preserves_simresult(self, ctx):
        apps = ctx.pair_apps("BLK", "TRD")
        fresh = ctx.surface(apps)
        cached = ctx.surface(apps)
        assert cached == fresh

    def test_schemes_batch_matches_individual(self, ctx, tmp_path):
        apps = ctx.pair_apps("BLK", "TRD")
        batch = ctx.schemes(apps, ["besttlp", "maxtlp"])
        ctx2 = ExperimentContext(
            config=small_config(), lengths=RunLengths.quick(), seed=5,
            store=ResultStore(tmp_path / "other"), n_jobs=1,
        )
        for scheme, result in batch.items():
            assert ctx2.scheme(apps, scheme) == result

    def test_schemes_batch_parallel(self, ctx):
        apps = ctx.pair_apps("BLK", "TRD")
        parallel_ctx = ExperimentContext(
            config=ctx.config, lengths=ctx.lengths, seed=ctx.seed,
            store=ctx.store, n_jobs=3,
        )
        batch = parallel_ctx.schemes(apps, ["besttlp", "maxtlp", "dyncta"])
        assert set(batch) == {"besttlp", "maxtlp", "dyncta"}
        # the pool workers wrote through the shared store: all cached now
        assert ctx.schemes(apps, ["besttlp", "maxtlp", "dyncta"]) == batch

    def test_alone_for_batch_matches_alone(self, ctx, tmp_path):
        apps = ctx.pair_apps("BLK", "TRD")
        batch = ctx.alone_for(apps)
        ctx2 = ExperimentContext(
            config=small_config(), lengths=RunLengths.quick(), seed=5,
            store=ResultStore(tmp_path / "other"), n_jobs=1,
        )
        n_cores = ctx2.config.n_cores // 2
        for app, profile in zip(apps, batch):
            assert ctx2.alone(app, n_cores) == profile


# --- the bugfix batch ---------------------------------------------------------

class TestZeroIPCAlone:
    def test_from_result_names_the_app(self):
        sample = WindowSample(
            app_id=0, cycles=100.0, insts=10, ipc=0.1, l1_miss_rate=1.0,
            l2_miss_rate=1.0, cmr=1.0, bw=0.1, eb=0.1, avg_mem_latency=1.0,
            row_hit_rate=0.0,
        )
        result = SimResult(samples={0: sample}, cycles=100.0, tlp_timeline=[])
        broken = AloneProfile(abbr="DEAD", best_tlp=1, ipc_alone=0.0,
                              eb_alone=0.0)
        with pytest.raises(ValueError, match="DEAD"):
            SchemeResult.from_result("besttlp", "wl", (1,), result, [broken])


class TestDramUtilization:
    def test_whole_run_when_no_warmup(self):
        cfg = small_config()
        sim = Simulator(cfg, [app_by_abbr("BLK")], seed=3)
        result = sim.run(2_000, warmup=0, initial_tlp={0: 24})
        busy = sum(ch.busy_cycles for ch in sim.channels)
        assert result.dram_utilization == pytest.approx(
            busy / (2_000 * cfg.n_channels)
        )
        assert 0.0 < result.dram_utilization <= 1.0

    def test_warmup_region_excluded(self):
        """Utilization must cover only the measured region: it equals
        (busy(full) - busy(prefix)) / measured-cycles, where the prefix
        run is a deterministic replay of the warmup region."""
        cfg = small_config()
        app = app_by_abbr("BLK")
        prefix = Simulator(cfg, [app], seed=3)
        prefix.run(2_000, warmup=0, initial_tlp={0: 24})
        busy_prefix = sum(ch.busy_cycles for ch in prefix.channels)

        full = Simulator(cfg, [app], seed=3)
        result = full.run(4_000, warmup=2_000, initial_tlp={0: 24})
        busy_full = sum(ch.busy_cycles for ch in full.channels)

        expected = (busy_full - busy_prefix) / (2_000 * cfg.n_channels)
        # tolerance: one data-bus burst per channel can straddle the
        # warmup boundary in the two runs' event orderings
        tol = cfg.dram.burst_cycles / 2_000
        assert result.dram_utilization == pytest.approx(expected, abs=tol)

    def test_warmup_traffic_not_averaged_in(self):
        """The old accounting folded the warmup region (cold caches, so
        all misses go to DRAM) into the ratio; the measured-region value
        must differ from the whole-run average for a cacheable workload."""
        cfg = small_config()
        sim = Simulator(cfg, [app_by_abbr("BLK")], seed=3)
        result = sim.run(4_000, warmup=2_000, initial_tlp={0: 24})
        whole_run = sum(ch.busy_cycles for ch in sim.channels) / (
            4_000 * cfg.n_channels
        )
        assert abs(result.dram_utilization - whole_run) > 0.01
