"""Tests for repro.sim.engine: event queue, memory-path invariants,
multi-application execution, determinism, and TLP actuation."""

import dataclasses
import gc

import pytest

from repro.config import small_config
from repro.core.controller import StaticController
from repro.core.pbs import PBSController
from repro.core.runner import RunLengths
from repro.exec.jobs import SimJob, run_sim_job
from repro.experiments.common import ExperimentContext, ResultStore
from repro.experiments.open_system import SCENARIOS, run_open_scenario
from repro.sim.engine import EventQueue, MemTxn, Simulator
from repro.sim.probes import (
    LatencyHistogram,
    OccupancyProbe,
    QueueDepthProbe,
    attach,
)
from repro.workloads.phases import PhasedProfile
from repro.workloads.table4 import app_by_abbr

from tests.conftest import run_small_pair


class TestEventQueue:
    def test_runs_in_time_order(self):
        q = EventQueue()
        seen = []
        q.push(5.0, lambda t: seen.append(("b", t)))
        q.push(1.0, lambda t: seen.append(("a", t)))
        q.run_until(10.0)
        assert seen == [("a", 1.0), ("b", 5.0)]

    def test_ties_run_in_push_order(self):
        q = EventQueue()
        seen = []
        q.push(1.0, lambda t: seen.append("first"))
        q.push(1.0, lambda t: seen.append("second"))
        q.run_until(2.0)
        assert seen == ["first", "second"]

    def test_events_after_horizon_stay_queued(self):
        q = EventQueue()
        seen = []
        q.push(100.0, lambda t: seen.append(t))
        q.run_until(50.0)
        assert seen == []
        assert len(q) == 1
        assert q.now == 50.0

    def test_rejects_events_in_the_past(self):
        q = EventQueue()
        q.push(10.0, lambda t: q.push(5.0, lambda _: None))
        with pytest.raises(ValueError):
            q.run_until(20.0)

    def test_events_can_schedule_events(self):
        q = EventQueue()
        seen = []
        q.push(1.0, lambda t: q.push(t + 1, lambda u: seen.append(u)))
        q.run_until(5.0)
        assert seen == [2.0]

    # -- wheel-horizon boundary ------------------------------------------
    #
    # The calendar wheel covers WHEEL_SIZE buckets of 2**BUCKET_SHIFT
    # cycles.  A push landing *exactly* one horizon ahead (slot - cursor
    # == WHEEL_SIZE) wraps onto the cursor's own bucket under the slot
    # mask, so it must route to the overflow heap instead — otherwise it
    # would run a whole horizon early.

    HORIZON = float((EventQueue.WHEEL_SIZE << EventQueue.BUCKET_SHIFT))

    def test_exact_horizon_push_routes_to_overflow(self):
        q = EventQueue()
        q.push(self.HORIZON, lambda t: None)  # slot == cursor + WHEEL_SIZE
        assert len(q._overflow) == 1
        assert all(not b for b in q._wheel)

    def test_exact_horizon_event_does_not_run_early(self):
        q = EventQueue()
        seen = []
        q.push(self.HORIZON, lambda t: seen.append(("far", t)))
        q.push(1.0, lambda t: seen.append(("near", t)))
        q.run_until(self.HORIZON - 1.0)
        assert seen == [("near", 1.0)]  # a wrap would have run it at ~0
        q.run_until(self.HORIZON + 1.0)
        assert seen == [("near", 1.0), ("far", self.HORIZON)]

    def test_just_inside_horizon_stays_on_wheel(self):
        q = EventQueue()
        seen = []
        last_inside = self.HORIZON - float(1 << EventQueue.BUCKET_SHIFT)
        q.push(last_inside, lambda t: seen.append(t))
        assert not q._overflow
        q.run_until(self.HORIZON)
        assert seen == [last_inside]

    def test_boundary_after_cursor_advance(self):
        # The horizon is relative to the cursor, not to time zero: after
        # the wheel advances, the boundary moves with it.
        q = EventQueue()
        q.push(500.0, lambda t: None)
        q.run_until(600.0)  # cursor now at 600's bucket
        base = float(q._cursor << EventQueue.BUCKET_SHIFT)
        q.push(base + self.HORIZON, lambda t: None)
        assert len(q._overflow) == 1
        q.push(base + self.HORIZON - float(1 << EventQueue.BUCKET_SHIFT),
               lambda t: None)
        assert len(q._overflow) == 1  # just-inside push stayed on the wheel

    def test_ordering_across_horizon_in_segmented_runs(self):
        q = EventQueue()
        seen = []
        times = [self.HORIZON + 17.0, 3.0, self.HORIZON, 7.5,
                 2 * self.HORIZON + 1.0]
        for t in times:
            q.push(t, lambda now, t=t: seen.append(t))
        step = 1000.0
        end = 0.0
        while end < 2 * self.HORIZON + step:
            end += step
            q.run_until(end)
        assert seen == sorted(times)
        assert len(q) == 0


class TestSimulatorConstruction:
    def test_equal_core_split(self, small_cfg):
        sim = Simulator(small_cfg, [app_by_abbr("BLK"), app_by_abbr("TRD")])
        assert len(sim.cores_of_app[0]) == small_cfg.n_cores // 2
        assert len(sim.cores_of_app[1]) == small_cfg.n_cores // 2

    def test_explicit_core_split(self, small_cfg):
        sim = Simulator(
            small_cfg,
            [app_by_abbr("BLK"), app_by_abbr("TRD")],
            core_split=(1, 1),
        )
        assert [c.app_id for c in sim.cores] == [0, 1]

    def test_rejects_oversized_split(self, small_cfg):
        with pytest.raises(ValueError):
            Simulator(small_cfg, [app_by_abbr("BLK")], core_split=(99,))

    def test_rejects_mismatched_split(self, small_cfg):
        with pytest.raises(ValueError):
            Simulator(
                small_cfg, [app_by_abbr("BLK")], core_split=(1, 1)
            )

    def test_rejects_empty_workload(self, small_cfg):
        with pytest.raises(ValueError):
            Simulator(small_cfg, [])

    def test_full_warp_population(self, small_cfg):
        sim = Simulator(small_cfg, [app_by_abbr("BLK")], core_split=(1,))
        assert len(sim.cores[0].warps) == small_cfg.max_warps_per_core


class TestRunInvariants:
    def test_counter_conservation(self, small_cfg):
        res_sim = Simulator(
            small_cfg, [app_by_abbr("BFS"), app_by_abbr("BLK")], seed=3
        )
        res_sim.run(6000, warmup=1000, initial_tlp={0: 8, 1: 8})
        for app in (0, 1):
            s = res_sim.collector.apps[app]
            assert s.l1_misses <= s.l1_accesses
            assert s.l2_misses <= s.l2_accesses
            # every L2 access is an L1 miss that wasn't MSHR-merged
            assert s.l2_accesses <= s.l1_misses
            # every DRAM line is an L2 miss that wasn't merged
            assert s.dram_lines <= s.l2_misses
            assert s.insts > 0

    def test_bw_fraction_bounded(self, small_cfg):
        result = run_small_pair(small_cfg, "BLK", "TRD", 24, 24)
        total_bw = sum(result.samples[a].bw for a in (0, 1))
        assert 0.0 < total_bw <= 1.0
        assert 0.0 < result.dram_utilization <= 1.0

    def test_determinism(self, small_cfg):
        a = run_small_pair(small_cfg, "BFS", "BLK", seed=11)
        b = run_small_pair(small_cfg, "BFS", "BLK", seed=11)
        for app in (0, 1):
            assert a.samples[app].insts == b.samples[app].insts
            assert a.samples[app].bw == pytest.approx(b.samples[app].bw)

    def test_seed_changes_results(self, small_cfg):
        a = run_small_pair(small_cfg, "BFS", "BLK", seed=11)
        b = run_small_pair(small_cfg, "BFS", "BLK", seed=12)
        assert a.samples[0].insts != b.samples[0].insts

    def test_warmup_excluded_from_measurement(self, small_cfg):
        result = run_small_pair(small_cfg, "BLK", "TRD", cycles=8000, warmup=4000)
        assert result.cycles == 4000
        assert result.samples[0].cycles == 4000

    def test_rejects_warmup_ge_run(self, small_cfg):
        sim = Simulator(small_cfg, [app_by_abbr("BLK")], core_split=(1,))
        with pytest.raises(ValueError):
            sim.run(1000, warmup=1000)

    def test_apps_isolated_in_address_space(self, small_cfg):
        """Both apps make progress and register separate traffic."""
        result = run_small_pair(small_cfg, "BLK", "BLK")
        assert result.samples[0].insts > 0
        assert result.samples[1].insts > 0

    def test_transaction_free_list_recycles(self, small_cfg):
        sim = Simulator(small_cfg, [app_by_abbr("BFS"), app_by_abbr("GUPS")], seed=9)
        sim.run(6000, warmup=1000, initial_tlp={0: 16, 1: 16})
        assert len(sim._txn_pool) > 0, "transaction pool never recycled"


class TestWindowConservation:
    """Window-boundary stats attribution under the folded event paths.

    The event folds (all-hit WARP_RESP fold, multi-line fills, per-core
    stride chains) batch counter increments and can move an increment's
    attribution relative to the old one-event-per-hop shapes.  Totals
    must still be conserved: the per-window deltas sum to the cumulative
    counters with nothing lost or double-counted at window boundaries,
    and cutting windows must not perturb the simulation itself.
    """

    _FIELDS = (
        "insts", "l1_accesses", "l1_misses", "l2_accesses", "l2_misses",
        "dram_lines", "mem_requests", "mem_latency_sum", "row_hits",
        "row_misses",
    )

    def _run_with_windows(self, small_cfg):
        from repro.core.controller import StaticController

        snaps = []

        class _Snapshotting(StaticController):
            def on_window(self, sim, now, windows):
                snaps.append(
                    (now, {a: s.copy() for a, s in sim.collector.apps.items()})
                )

        ctrl = _Snapshotting({0: 8, 1: 8}, sample_period=500)
        sim = Simulator(
            small_cfg, [app_by_abbr("BLK"), app_by_abbr("TRD")],
            controller=ctrl, seed=5,
        )
        # Same initial_tlp as the controller's static combo, so the
        # controller-free twin run below follows an identical warp
        # trajectory (the controller's start() re-set is then a no-op).
        result = sim.run(6000, warmup=1000, initial_tlp={0: 8, 1: 8})
        return sim, result, snaps

    def test_window_sample_totals_match_cumulative(self, small_cfg):
        sim, result, snaps = self._run_with_windows(small_cfg)
        assert len(result.windows) >= 10  # the folds were actually crossed
        last_cut, last_snap = snaps[-1]
        peak = sim.collector.peak_lines_per_cycle
        for app in (0, 1):
            # Raw instruction counts ride in every WindowSample; their
            # sum over windows must equal the cumulative counter at the
            # last cut exactly (integers — no tolerance).
            assert sum(
                w[app].insts for _, w in result.windows
            ) == last_snap[app].insts
            # DRAM lines are reported as normalized bandwidth; undo the
            # normalization per window and compare the running total.
            lines = sum(
                w[app].bw * w[app].cycles * peak for _, w in result.windows
            )
            assert lines == pytest.approx(last_snap[app].dram_lines)

    def test_cumulative_deltas_telescope_across_cuts(self, small_cfg):
        sim, _result, snaps = self._run_with_windows(small_cfg)
        # Each boundary snapshot is monotone in every counter: an event
        # folded across a boundary may shift attribution by a window,
        # but can never make a cumulative counter step backwards.
        for app in (0, 1):
            prev = None
            for _now, snap in snaps:
                if prev is not None:
                    for f in self._FIELDS:
                        assert getattr(snap[app], f) >= getattr(prev[app], f)
                prev = snap

    def test_window_cutting_does_not_perturb_the_run(self, small_cfg):
        sim_a, _res, _snaps = self._run_with_windows(small_cfg)
        sim_b = Simulator(
            small_cfg, [app_by_abbr("BLK"), app_by_abbr("TRD")], seed=5
        )
        sim_b.run(6000, warmup=1000, initial_tlp={0: 8, 1: 8})
        for app in (0, 1):
            a, b = sim_a.collector.apps[app], sim_b.collector.apps[app]
            for f in self._FIELDS:
                assert getattr(a, f) == getattr(b, f), f


class TestTLPActuation:
    def test_initial_tlp_applied(self, small_cfg):
        sim = Simulator(small_cfg, [app_by_abbr("BLK"), app_by_abbr("TRD")])
        sim.run(2000, warmup=500, initial_tlp={0: 2, 1: 8})
        assert sim.current_tlp == {0: 2, 1: 8}
        assert all(c.tlp == 2 for c in sim.cores_of_app[0])
        assert all(c.tlp == 8 for c in sim.cores_of_app[1])

    def test_timeline_records_changes(self, small_cfg):
        sim = Simulator(small_cfg, [app_by_abbr("BLK"), app_by_abbr("TRD")])
        sim.events.push(1000.0, lambda t: sim.set_tlp(0, 4))
        result = sim.run(3000, warmup=500, initial_tlp={0: 24, 1: 24})
        changes = [(t, a, v) for t, a, v in result.tlp_timeline if t > 0]
        assert (1000.0, 0, 4) in changes
        assert result.final_tlp[0] == 4

    def test_lower_tlp_reduces_issue_rate(self, small_cfg):
        low = run_small_pair(small_cfg, "BLK", "BLK", 1, 1, cycles=6000)
        high = run_small_pair(small_cfg, "BLK", "BLK", 16, 16, cycles=6000)
        assert high.samples[0].insts > low.samples[0].insts

    def test_set_tlp_clamps(self, small_cfg):
        sim = Simulator(small_cfg, [app_by_abbr("BLK")], core_split=(1,))
        sim.set_tlp(0, 9999)
        assert sim.current_tlp[0] == small_cfg.max_tlp


class TestBypass:
    def test_l2_bypass_keeps_app_out_of_l2(self, small_cfg):
        sim = Simulator(small_cfg, [app_by_abbr("TRD"), app_by_abbr("BLK")], seed=5)
        sim.set_l2_bypass(0, True)
        sim.run(6000, warmup=1000, initial_tlp={0: 8, 1: 8})
        for l2 in sim.l2s:
            assert 0 not in l2.occupancy_by_app()

    def test_bypass_can_be_disabled(self, small_cfg):
        sim = Simulator(small_cfg, [app_by_abbr("TRD")], core_split=(1,), seed=5)
        sim.set_l2_bypass(0, True)
        sim.set_l2_bypass(0, False)
        sim.run(4000, warmup=1000, initial_tlp={0: 8})
        assert sum(l2.resident_lines for l2 in sim.l2s) > 0

    def test_l1_bypass(self, small_cfg):
        sim = Simulator(small_cfg, [app_by_abbr("BLK")], core_split=(1,), seed=5)
        sim.set_l1_bypass(0, True)
        sim.run(4000, warmup=1000, initial_tlp={0: 8})
        assert all(l1.resident_lines == 0 for l1 in sim.l1s[:1])


class TestWayQuota:
    def test_l2_quota_bounds_occupancy(self, small_cfg):
        quota = 2
        sim = Simulator(
            small_cfg,
            [app_by_abbr("TRD"), app_by_abbr("BLK")],
            seed=5,
            l2_way_quota={0: quota},
        )
        sim.run(6000, warmup=1000, initial_tlp={0: 24, 1: 24})
        for l2 in sim.l2s:
            for line_set in l2._sets:
                owned = sum(1 for owner in line_set.values() if owner == 0)
                assert owned <= quota


class TestRunOnce:
    def test_second_run_rejected(self, small_cfg):
        sim = Simulator(small_cfg, [app_by_abbr("BLK")], core_split=(1,))
        sim.run(2000, warmup=500, initial_tlp={0: 4})
        with pytest.raises(RuntimeError, match="runs once"):
            sim.run(2000, warmup=500, initial_tlp={0: 4})


def _garbage_after(run) -> int:
    """Objects the cyclic GC finds once ``run()`` and its simulator are gone.

    ``run`` builds, runs and drops its own simulator.  The collector is
    switched off meanwhile, so anything a finished run leaves in a
    reference cycle is still there for the final ``gc.collect()``.
    """
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


class TestRelease:
    """A finished run frees itself by reference counting alone."""

    @pytest.fixture(scope="class")
    def ctx(self, tmp_path_factory):
        ctx = ExperimentContext(
            config=small_config(),
            lengths=RunLengths.quick(),
            seed=5,
            store=ResultStore(tmp_path_factory.mktemp("results")),
            n_jobs=1,
        )
        ctx.alone_for([app_by_abbr("BLK"), app_by_abbr("TRD")])
        return ctx

    def test_fixed_tlp_job(self, small_cfg):
        job = SimJob(
            small_cfg, (app_by_abbr("BLK"), app_by_abbr("TRD")), (8, 4),
            cycles=6000, warmup=1500, seed=5,
        )
        assert _garbage_after(lambda: run_sim_job(job)) == 0

    @pytest.mark.parametrize(
        "scheme", ["pbs-ws", "pbs-fi", "pbs-hs", "dyncta", "ccws", "modbypass"]
    )
    def test_controller_scheme(self, ctx, scheme):
        apps = [app_by_abbr("BLK"), app_by_abbr("TRD")]
        assert _garbage_after(lambda: ctx.scheme(apps, scheme)) == 0

    @pytest.mark.parametrize("scenario", ["two-phase", "churn"])
    def test_open_system_scenario(self, medium_cfg, tmp_path, scenario):
        ctx = ExperimentContext(
            config=medium_cfg,
            lengths=RunLengths.quick(),
            seed=1,
            store=ResultStore(tmp_path),
            n_jobs=1,
        )

        def run():
            report = run_open_scenario(
                ctx, SCENARIOS[scenario], cycles=20000, warmup=2000,
                sample_period=500,
            )
            assert report.n_arrivals and report.n_departures

        assert _garbage_after(run) == 0

    def test_backlogged_run(self, small_cfg):
        """Ends with parked misses, a full DRAM queue and parked L2 misses."""
        cfg = small_cfg.with_(
            l1=dataclasses.replace(small_cfg.l1, mshr_entries=2),
            dram_queue_depth=4,
            dram=dataclasses.replace(small_cfg.dram, t_ccd=200),
        )

        def run():
            sim = Simulator(cfg, [app_by_abbr("GUPS"), app_by_abbr("BLK")], seed=3)
            lines = [
                a * cfg.line_bytes
                for a in range(64)
                if sim.addr_map.channel_of(a * cfg.line_bytes) == 0
            ][:8]
            for line in lines:
                sim._to_dram(MemTxn(line=line, app_id=0, channel=0), 0.0)
            sim.run(1000, warmup=250, initial_tlp={0: 24, 1: 24})
            assert any(sim._l1_deferred)
            assert sim.channels[0].is_full
            assert sim._dram_deferred[0]
            assert len(sim.events) > 0

        assert _garbage_after(run) == 0

    def test_event_past_the_wheel_horizon(self, small_cfg):
        """A controller window due after the run waits in the overflow heap."""
        controller = StaticController({0: 4}, sample_period=20_000)

        def run():
            sim = Simulator(
                small_cfg, [app_by_abbr("BLK")], core_split=(1,),
                controller=controller, seed=3,
            )
            sim.run(6000, warmup=1500)
            assert sim.window_log == [] and len(sim.events) > 0

        assert _garbage_after(run) == 0

    def test_phased_pair(self, small_cfg):
        phased = PhasedProfile(
            "PH", (app_by_abbr("BLK"), app_by_abbr("GUPS")),
            iterations_per_phase=20,
        )

        def run():
            sim = Simulator(small_cfg, [phased, app_by_abbr("TRD")], seed=3)
            sim.run(6000, warmup=1500, initial_tlp={0: 8, 1: 8})

        assert _garbage_after(run) == 0

    def test_probed_run(self, small_cfg):
        def run():
            sim = Simulator(
                small_cfg, [app_by_abbr("BLK"), app_by_abbr("BFS")], seed=3
            )
            latency = LatencyHistogram()
            attach(
                sim, latency=latency, queues=QueueDepthProbe(period=500.0),
                occupancy=OccupancyProbe(period=1000.0),
            )
            sim.run(8000, warmup=2000, initial_tlp={0: 8, 1: 8})
            assert latency.count(0) == sim.collector.apps[0].mem_requests

        assert _garbage_after(run) == 0

    def test_post_run_state_stays_readable(self, small_cfg):
        sim = Simulator(small_cfg, [app_by_abbr("GUPS")], core_split=(2,), seed=3)
        result = sim.run(4000, warmup=1000, initial_tlp={0: 24})
        left = sum(map(len, sim.events._wheel)) + len(sim.events._overflow)
        assert left == 0 and len(sim.events) > 0
        assert sim.collector.apps[0].insts > 0
        assert sim.tenancy.live == [0] and sim.tenancy.timeline == []
        assert sim.channels[0].busy_cycles > 0
        assert result.dram_utilization > 0


class TestEventCounts:
    """Events dispatched by three fixed runs, pinned exactly.

    Counted as scheduled minus still queued after ``run()``.  Event
    counts are seed-determined, so they hold on any host: a change
    meant to be bit-identical keeps them, and an event fold shows up
    here as an exact drop.
    """

    #: case -> (simulated cycles, events dispatched)
    PINNED = {
        "alone": (30_000, 10_002),
        "corun": (30_000, 8_779),
        "pbs-dynamic": (40_000, 6_752),
    }

    @staticmethod
    def _build(case: str, cycles: int):
        """(simulator, run kwargs) for one case."""
        cfg = small_config()
        if case == "alone":
            sim = Simulator(cfg, [app_by_abbr("BLK")], seed=7)
            initial = {0: 8}
        elif case == "corun":
            sim = Simulator(cfg, [app_by_abbr("BLK"), app_by_abbr("TRD")], seed=7)
            initial = {0: 8, 1: 8}
        else:
            controller = PBSController("ws", n_apps=2, sample_period=800)
            sim = Simulator(
                cfg, [app_by_abbr("BFS"), app_by_abbr("BLK")],
                controller=controller, seed=9,
            )
            initial = {0: 24, 1: 24}
        return sim, {"warmup": cycles // 10, "initial_tlp": initial}

    @pytest.mark.parametrize("case", list(PINNED))
    def test_events_dispatched(self, case):
        cycles, events = self.PINNED[case]
        sim, kwargs = self._build(case, cycles)
        sim.run(cycles, **kwargs)
        assert sim.events._seq - len(sim.events) == events
