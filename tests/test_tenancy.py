"""Tests for open-system tenancy: core splitting, the attach/detach
lifecycle, arrival schedules and the policy registry."""

from __future__ import annotations

import pickle

import pytest

from repro.core.controller import StaticController
from repro.core.policy import (
    available_policies,
    get_policy,
    make_policy,
    register_policy,
)
from repro.experiments.common import _result_to_dict
from repro.sim.engine import Simulator
from repro.sim.tenancy import TenancyEvent, split_cores
from repro.workloads.arrivals import ArrivalSchedule
from repro.workloads.table4 import app_by_abbr

from tests.conftest import run_small_pair


class TestSplitCores:
    def test_remainder_is_distributed_not_lost(self):
        assert split_cores(8, 3) == (3, 3, 2)

    def test_even_split(self):
        assert split_cores(8, 2) == (4, 4)
        assert split_cores(8, 1) == (8,)

    @pytest.mark.parametrize("n_cores,n_apps", [(30, 4), (7, 3), (5, 5)])
    def test_always_sums_to_n_cores(self, n_cores, n_apps):
        split = split_cores(n_cores, n_apps)
        assert sum(split) == n_cores
        assert len(split) == n_apps
        # Remainder goes to the front; counts never differ by more than 1.
        assert max(split) - min(split) <= 1
        assert sorted(split, reverse=True) == list(split)

    def test_zero_apps_rejected(self):
        with pytest.raises(ValueError, match="at least one application"):
            split_cores(8, 0)

    def test_more_apps_than_cores_rejected(self):
        with pytest.raises(ValueError, match="more applications than cores"):
            split_cores(2, 3)


class TestTenancyEvent:
    def test_attach_carries_profile(self):
        ev = TenancyEvent(cycle=100, action="attach", profile=app_by_abbr("LUD"))
        assert ev.action == "attach"
        assert ev.profile.abbr == "LUD"

    def test_detach_carries_app_id(self):
        ev = TenancyEvent(cycle=100, action="detach", app_id=1)
        assert ev.app_id == 1

    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError, match="unknown tenancy action"):
            TenancyEvent(cycle=100, action="evict", app_id=0)

    def test_cycle_zero_rejected(self):
        with pytest.raises(ValueError, match="after cycle 0"):
            TenancyEvent(cycle=0, action="detach", app_id=0)

    def test_attach_requires_profile(self):
        with pytest.raises(ValueError, match="profile"):
            TenancyEvent(cycle=100, action="attach")

    def test_detach_requires_app_id(self):
        with pytest.raises(ValueError, match="app_id"):
            TenancyEvent(cycle=100, action="detach")


class TestCoreSplitValidation:
    def test_multi_app_under_allocation_rejected(self, small_cfg):
        apps = [app_by_abbr("BLK"), app_by_abbr("TRD")]
        with pytest.raises(ValueError, match="under-allocates"):
            Simulator(small_cfg, apps, core_split=(1, 0))

    def test_single_app_under_allocation_allowed(self, small_cfg):
        # Alone-profile runs deliberately use half the GPU.
        sim = Simulator(small_cfg, [app_by_abbr("BLK")], core_split=(1,))
        assert len(sim.cores_of_app[0]) == 1

    def test_default_split_uses_every_core(self, medium_cfg):
        apps = [app_by_abbr(a) for a in ("BLK", "TRD", "LUD")]
        sim = Simulator(medium_cfg, apps)
        counts = [len(sim.cores_of_app[a]) for a in (0, 1, 2)]
        assert counts == [3, 3, 2]


def _churn_events():
    return (
        TenancyEvent(cycle=3000, action="attach", profile=app_by_abbr("LUD")),
        TenancyEvent(cycle=5000, action="detach", app_id=0),
    )


class TestEngineChurn:
    def _run(self, medium_cfg, controller=None):
        sim = Simulator(
            medium_cfg,
            [app_by_abbr("BLK"), app_by_abbr("TRD")],
            controller=controller,
            seed=7,
            arrivals=_churn_events(),
        )
        result = sim.run(6000, warmup=1500, initial_tlp={0: 8, 1: 8})
        return sim, result

    def test_roster_timeline_records_both_events(self, medium_cfg):
        _sim, result = self._run(medium_cfg)
        assert [r["event"] for r in result.roster] == ["attach", "detach"]
        attach, detach = result.roster
        assert attach == {
            "cycle": 3000.0,
            "event": "attach",
            "app": 2,
            "abbr": "LUD",
            "roster": [0, 1, 2],
            "cores": [3, 3, 2],
        }
        assert detach["roster"] == [1, 2]
        assert detach["cores"] == [4, 4]

    def test_cores_rebound_to_survivors(self, medium_cfg):
        sim, _result = self._run(medium_cfg)
        assert len(sim.cores_of_app[0]) == 0
        assert len(sim.cores_of_app[1]) == 4
        assert len(sim.cores_of_app[2]) == 4
        assert all(c.app_id in (1, 2) for c in sim.cores)
        assert sim.live_apps == [1, 2]

    def test_detached_app_leaves_actuator_state(self, medium_cfg):
        sim, result = self._run(medium_cfg)
        assert 0 not in sim.current_tlp
        assert result.final_tlp.get(0) is None or 0 not in result.final_tlp
        # Late actuations aimed at the departed app are silently ignored.
        sim.set_tlp(0, 4)
        assert 0 not in sim.current_tlp

    def test_arrival_starts_at_max_tlp(self, medium_cfg):
        sim, _result = self._run(medium_cfg)
        assert sim.current_tlp[2] == sim.config.max_tlp

    def test_windows_never_straddle_a_roster_change(self, medium_cfg):
        _sim, result = self._run(medium_cfg)
        churn_cycles = [r["cycle"] for r in result.roster]
        cuts = [cut for cut, _w in result.windows]
        assert all(c in cuts for c in churn_cycles)
        prev = None
        for cut in cuts:
            if prev is not None:
                assert not any(prev < c < cut for c in churn_cycles)
            prev = cut

    def test_attach_beyond_capacity_rejected(self, small_cfg):
        sim = Simulator(small_cfg, [app_by_abbr("BLK"), app_by_abbr("TRD")])
        with pytest.raises(ValueError, match="occupy all"):
            sim.tenancy.attach(app_by_abbr("LUD"), 0)

    def test_detach_last_app_rejected(self, small_cfg):
        sim = Simulator(small_cfg, [app_by_abbr("BLK")])
        with pytest.raises(ValueError, match="last live application"):
            sim.tenancy.detach(0, 0)

    def test_detach_unknown_app_rejected(self, small_cfg):
        sim = Simulator(small_cfg, [app_by_abbr("BLK"), app_by_abbr("TRD")])
        with pytest.raises(ValueError, match="not live"):
            sim.tenancy.detach(7, 0)


class TestClosedSystemIdentity:
    """A run with an empty arrival schedule is the closed system."""

    _FIELDS = (
        "insts", "l1_accesses", "l1_misses", "l2_accesses", "l2_misses",
        "dram_lines", "mem_requests", "mem_latency_sum",
    )

    def test_empty_arrivals_is_bit_identical(self, small_cfg):
        plain = run_small_pair(small_cfg, "BLK", "TRD")
        with_arrivals = run_small_pair(small_cfg, "BLK", "TRD", arrivals=())
        assert with_arrivals.roster == []
        assert _result_to_dict(plain) == _result_to_dict(with_arrivals)

    def test_closed_roster_key_is_omitted(self, small_cfg):
        result = run_small_pair(small_cfg, "BLK", "TRD")
        assert "roster" not in _result_to_dict(result)


class _Snapshotting(StaticController):
    """Static controller that snapshots cumulative counters at every
    window cut *and* every roster change, so conservation can be checked
    across churn boundaries."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.snaps = []

    def _snap(self, sim, now):
        self.snaps.append(
            (float(now), {a: s.copy() for a, s in sim.collector.apps.items()})
        )

    def on_window(self, sim, now, windows):
        super().on_window(sim, now, windows)
        self._snap(sim, now)

    def on_attach(self, sim, now, app_id):
        self._snap(sim, now)

    def on_detach(self, sim, now, app_id):
        self._snap(sim, now)


class TestOpenWindowConservation:
    """Extends TestWindowConservation (test_engine.py) across churn."""

    def _run(self, medium_cfg):
        ctrl = _Snapshotting(combo={0: 8, 1: 8}, sample_period=500)
        sim = Simulator(
            medium_cfg,
            [app_by_abbr("BLK"), app_by_abbr("TRD")],
            controller=ctrl,
            seed=5,
            arrivals=_churn_events(),
        )
        result = sim.run(6000, warmup=1500, initial_tlp={0: 8, 1: 8})
        return sim, result, ctrl.snaps

    def test_window_insts_sum_to_cumulative_across_churn(self, medium_cfg):
        _sim, result, snaps = self._run(medium_cfg)
        last_cut, last_snap = max(snaps, key=lambda s: s[0])
        for app, stats in last_snap.items():
            total = sum(
                w[app].insts
                for cut, w in result.windows
                if cut <= last_cut and app in w
            )
            assert total == stats.insts

    def test_counters_monotone_across_roster_changes(self, medium_cfg):
        _sim, _result, snaps = self._run(medium_cfg)
        prev = None
        for _now, snap in snaps:
            if prev is not None:
                for app in prev:
                    if app not in snap:
                        continue
                    for f in TestClosedSystemIdentity._FIELDS:
                        assert getattr(snap[app], f) >= getattr(prev[app], f)
            prev = snap

    def test_arrival_counters_start_from_zero(self, medium_cfg):
        _sim, _result, snaps = self._run(medium_cfg)
        first_with_2 = next(snap for _now, snap in snaps if 2 in snap)
        # The attach-time snapshot runs before app 2 executes anything.
        assert first_with_2[2].insts == 0


class TestArrivalSchedule:
    def _apps(self, *abbrs):
        return tuple(app_by_abbr(a) for a in abbrs)

    def test_closed_schedule(self):
        sched = ArrivalSchedule.closed(self._apps("BLK", "TRD"))
        assert sched.is_closed
        assert sched.events == ()

    def test_empty_initial_rejected(self):
        with pytest.raises(ValueError, match="at least one initial"):
            ArrivalSchedule(initial=())

    def test_unsorted_events_rejected(self):
        events = (
            TenancyEvent(cycle=500, action="detach", app_id=0),
            TenancyEvent(cycle=100, action="detach", app_id=1),
        )
        with pytest.raises(ValueError, match="cycle order"):
            ArrivalSchedule(initial=self._apps("BLK"), events=events)

    def _seeded(self, seed=11, **kwargs):
        defaults = dict(
            max_cycles=200_000,
            seed=seed,
            mean_interarrival=20_000,
            mean_lifetime=40_000,
            max_live=3,
            min_live=1,
        )
        defaults.update(kwargs)
        return ArrivalSchedule.seeded(
            self._apps("BLK", "TRD"),
            self._apps("LUD", "BFS"),
            **defaults,
        )

    def test_same_seed_same_trace(self):
        a, b = self._seeded(seed=11), self._seeded(seed=11)
        assert a == b

    def test_different_seed_different_trace(self):
        assert self._seeded(seed=11) != self._seeded(seed=12)

    def test_seeded_trace_has_churn_in_both_directions(self):
        sched = self._seeded()
        actions = {ev.action for ev in sched.events}
        assert actions == {"attach", "detach"}
        assert not sched.is_closed

    def test_events_sorted_and_within_horizon(self):
        sched = self._seeded()
        cycles = [ev.cycle for ev in sched.events]
        assert cycles == sorted(cycles)
        assert all(0 < c < 200_000 for c in cycles)

    def test_roster_bounds_respected(self):
        sched = self._seeded(min_live=2, max_live=3)
        live = set(range(2))
        next_id = 2
        for ev in sched.events:
            if ev.action == "attach":
                live.add(next_id)
                next_id += 1
            else:
                live.discard(ev.app_id)
            assert 2 <= len(live) <= 3

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError, match="min_live"):
            self._seeded(min_live=0)
        with pytest.raises(ValueError, match="exceeds max_live"):
            self._seeded(max_live=1)
        with pytest.raises(ValueError, match="positive"):
            self._seeded(mean_interarrival=0)

    def test_no_candidates_rejected(self):
        with pytest.raises(ValueError, match="candidate"):
            ArrivalSchedule.seeded(
                self._apps("BLK"),
                (),
                max_cycles=1000,
                seed=1,
                mean_interarrival=100,
                mean_lifetime=100,
                max_live=2,
            )


class TestPolicyRegistry:
    def test_builtin_policies_available(self):
        names = available_policies()
        for expected in (
            "pbs-ws", "pbs-fi", "pbs-hs", "dyncta", "ccws", "modbypass",
            "static",
        ):
            assert expected in names

    def test_make_policy_builds_a_controller(self):
        ctrl = make_policy("pbs-ws", n_apps=2, sample_period=500)
        assert ctrl.n_apps == 2
        assert hasattr(ctrl, "on_window")
        assert hasattr(ctrl, "on_attach")
        assert hasattr(ctrl, "on_detach")

    def test_unknown_policy_lists_available(self):
        with pytest.raises(KeyError, match="pbs-ws"):
            make_policy("no-such-policy")

    def test_duplicate_registration_rejected(self):
        factory = get_policy("static")
        # Re-registering the same object is an idempotent no-op...
        assert register_policy("static", factory) is factory
        # ...but a different factory under a taken name is an error.
        with pytest.raises(ValueError, match="already registered"):
            register_policy("static", get_policy("dyncta"))

    def test_all_registered_factories_pickle(self):
        for name in available_policies():
            factory = get_policy(name)
            assert pickle.loads(pickle.dumps(factory)) is factory
