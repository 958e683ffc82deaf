"""Warp streams are built at a warp's first activation, not at construction.

A run pays set-up only for the warps its TLP enables.  Building a stream
later must not change a single simulated number: every stream's RNG is
private and seeded by (seed, app, core, warp), and construction reads
only the core cursor's fixed base.  The order-independence tests force
every stream at construction, through the same builder the engine calls,
and require the very same ``SimResult`` as the lazy run.
"""

from __future__ import annotations

import pytest

from repro.config import TLP_LEVELS, medium_config, small_config
from repro.core.pbs import PBSController
from repro.core.policy import make_policy
from repro.experiments.open_system import SCENARIOS, build_schedule
from repro.sim.engine import Simulator
from repro.workloads.phases import PhasedProfile
from repro.workloads.table4 import app_by_abbr
from repro.workloads.trace import Trace, TraceProfile, record_trace


@pytest.fixture
def eager_streams(monkeypatch):
    """Build every warp's stream as soon as its core is populated.

    Covers construction and the repopulation of rebound cores alike.
    """
    populate = Simulator._populate_core

    def eager(sim, core, app_id):
        populate(sim, core, app_id)
        for warp in core.warps:
            warp.stream = sim._warp_stream(core, warp)

    monkeypatch.setattr(Simulator, "_populate_core", eager)


def _all_built(sim: Simulator) -> bool:
    return all(w.stream is not None for core in sim.cores for w in core.warps)


class TestFirstActivation:
    @pytest.mark.parametrize("level", [1, 6, TLP_LEVELS[-1]])
    def test_static_run_builds_only_the_enabled_warps(self, level):
        cfg = medium_config()
        sim = Simulator(cfg, [app_by_abbr("DS"), app_by_abbr("TRD")], seed=1)
        assert all(w.stream is None for core in sim.cores for w in core.warps)
        sim.run(2000, warmup=500, initial_tlp={0: level, 1: level})
        expected = min(cfg.schedulers_per_core * level, cfg.max_warps_per_core)
        for core in sim.cores:
            built = [w.warp_id for w in core.warps if w.stream is not None]
            assert built == list(range(expected)), core.core_id

    def test_raising_tlp_builds_the_newly_enabled_warps(self):
        cfg = small_config()
        sim = Simulator(cfg, [app_by_abbr("BLK")], core_split=(1,), seed=2)
        sim.events.push(1000.0, lambda t: sim.set_tlp(0, 4))
        sim.run(3000, warmup=500, initial_tlp={0: 1})
        built = [w.stream is not None for w in sim.cores[0].warps]
        assert built == [True] * 8 + [False] * (len(built) - 8)


class TestOrderIndependence:
    """Eager and lazy construction give bit-identical results."""

    def _pbs_pair(self):
        sim = Simulator(
            small_config(),
            [app_by_abbr("BLK"), app_by_abbr("TRD")],
            controller=PBSController("ws", n_apps=2, sample_period=500),
            seed=4,
        )
        return sim, sim.run(20000, warmup=2000, initial_tlp={0: 1, 1: 1})

    def _two_phase(self):
        cfg = medium_config()
        schedule = build_schedule(
            SCENARIOS["two-phase"], cycles=14000, warmup=2000, seed=1,
            max_live_cap=cfg.n_cores,
        )
        sim = Simulator(
            cfg,
            list(schedule.initial),
            controller=make_policy("pbs-ws", n_apps=2, sample_period=500),
            seed=1,
            arrivals=schedule.events,
        )
        return sim, sim.run(14000, warmup=2000)

    def _phased_pair(self):
        phased = PhasedProfile(
            abbr="PHZ",
            phases=(app_by_abbr("BFS"), app_by_abbr("BLK")),
            iterations_per_phase=5,
        )
        sim = Simulator(small_config(), [phased, app_by_abbr("TRD")], seed=3)
        sim.events.push(2000.0, lambda t: sim.set_tlp(0, 12))
        return sim, sim.run(6000, warmup=1000, initial_tlp={0: 2, 1: 4})

    @pytest.mark.parametrize("case", ["_pbs_pair", "_two_phase", "_phased_pair"])
    def test_eager_equals_lazy(self, case, request):
        _sim, lazy = getattr(self, case)()
        request.getfixturevalue("eager_streams")
        sim, eager = getattr(self, case)()
        assert _all_built(sim)
        assert eager == lazy

    # Each case activates warps for the first time mid-run, so the lazy
    # run builds those streams long after the eager one did.

    def test_pbs_pair_raises_and_lowers_tlp_mid_run(self):
        _sim, result = self._pbs_pair()
        mid_run = [tlp for t, _a, tlp in result.tlp_timeline if t > 0]
        assert max(mid_run) > 1 and min(mid_run) == 1

    def test_two_phase_rebinds_cores_mid_run(self):
        _sim, result = self._two_phase()
        assert [r["event"] for r in result.roster] == ["attach", "detach"]

    def test_phased_pair_leaves_warps_unbuilt(self):
        sim, _result = self._phased_pair()
        assert not _all_built(sim)


class TestPartialTrace:
    """A trace covering fewer warps than the core holds runs within it."""

    def _trace(self, n_warps: int) -> TraceProfile:
        full = record_trace(app_by_abbr("BLK"), small_config(), n_cores=1,
                            requests_per_warp=32)
        return TraceProfile(Trace(
            abbr=full.abbr,
            warps={k: v for k, v in full.warps.items() if k[1] < n_warps},
        ))

    def test_runs_at_a_tlp_the_recording_covers(self):
        cfg = small_config()
        sim = Simulator(cfg, [self._trace(8)], core_split=(1,), seed=3)
        result = sim.run(4000, warmup=1000, initial_tlp={0: 4})
        assert result.samples[0].insts > 0

    def test_raising_tlp_past_the_recording_names_core_and_warp(self):
        cfg = small_config()
        sim = Simulator(cfg, [self._trace(8)], core_split=(1,), seed=3)
        with pytest.raises(KeyError, match="no warp 8 on core 0"):
            sim.run(4000, warmup=1000, initial_tlp={0: 6})
