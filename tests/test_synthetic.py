"""Tests for repro.workloads.synthetic: profiles and address streams."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import small_config
from repro.sim.address import AddressMap
from repro.workloads.synthetic import AppProfile, CoreStream, stream_seed
from repro.workloads.table4 import APPLICATIONS


def make_stream(profile: AppProfile, app_id=0, core_id=0, warp_id=0, seed=1,
                core_stream=None):
    cfg = small_config()
    amap = AddressMap.from_config(cfg)
    if core_stream is None:
        core_stream = profile.make_core_stream(app_id, core_id, amap)
    return profile.make_stream(app_id, core_id, warp_id, seed, amap, core_stream)


STREAMING = AppProfile("STR", "streaming", r_m=0.2, p_seq=1.0, p_reuse=0.0,
                       footprint_lines=2, gap_jitter=0.0)
REUSER = AppProfile("REU", "reuser", r_m=0.2, p_seq=0.1, p_reuse=0.85,
                    footprint_lines=8)
RANDOM = AppProfile("RND", "random", r_m=0.2, p_seq=0.0, p_reuse=0.0,
                    footprint_lines=1, stream_lines=1 << 16)
SHARER = AppProfile("SHA", "sharer", r_m=0.2, p_seq=0.0, p_reuse=0.0,
                    shared_frac=1.0, shared_lines=64, footprint_lines=1)


class TestProfileValidation:
    def test_rejects_bad_r_m(self):
        with pytest.raises(ValueError):
            AppProfile("X", "x", r_m=0.0)
        with pytest.raises(ValueError):
            AppProfile("X", "x", r_m=1.5)

    def test_rejects_probability_overflow(self):
        with pytest.raises(ValueError):
            AppProfile("X", "x", r_m=0.1, p_seq=0.7, p_reuse=0.5)

    def test_rejects_zero_coalesce(self):
        with pytest.raises(ValueError):
            AppProfile("X", "x", r_m=0.1, coalesce=0)

    def test_inst_gap_and_intensity(self):
        p = AppProfile("X", "x", r_m=0.25)
        assert p.inst_gap == 4
        assert p.arithmetic_intensity == pytest.approx(3.0)

    def test_inst_gap_floors_at_one(self):
        assert AppProfile("X", "x", r_m=1.0).inst_gap == 1


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = make_stream(REUSER, seed=42)
        b = make_stream(REUSER, seed=42)
        for _ in range(200):
            assert a.next_request() == b.next_request()

    def test_different_warps_differ(self):
        shared = REUSER.make_core_stream(0, 0, AddressMap.from_config(small_config()))
        a = make_stream(REUSER, warp_id=0, core_stream=shared)
        b = make_stream(REUSER, warp_id=1, core_stream=shared)
        seq_a = [a.next_request() for _ in range(50)]
        seq_b = [b.next_request() for _ in range(50)]
        assert seq_a != seq_b

    def test_stream_seed_mixes_all_inputs(self):
        base = stream_seed(1, 0, 0, 0)
        assert stream_seed(2, 0, 0, 0) != base
        assert stream_seed(1, 1, 0, 0) != base
        assert stream_seed(1, 0, 1, 0) != base
        assert stream_seed(1, 0, 0, 1) != base


class TestLocality:
    def test_pure_sequential_is_contiguous(self):
        s = make_stream(STREAMING)
        lines = [s.next_request()[1][0] for _ in range(32)]
        deltas = {b - a for a, b in zip(lines, lines[1:])}
        assert deltas == {128}

    def test_warps_share_the_core_cursor(self):
        """Sequential accesses of co-resident warps interleave adjacently."""
        amap = AddressMap.from_config(small_config())
        shared = STREAMING.make_core_stream(0, 0, amap)
        a = make_stream(STREAMING, warp_id=0, core_stream=shared)
        b = make_stream(STREAMING, warp_id=1, core_stream=shared)
        la = a.next_request()[1][0]
        lb = b.next_request()[1][0]
        assert abs(lb - la) == 128

    def test_reuse_revisits_recent_lines(self):
        s = make_stream(REUSER)
        lines = [line for _ in range(400) for line in s.next_request()[1]]
        assert len(set(lines)) < len(lines) / 3, "heavy reuse expected"

    def test_random_profile_rarely_repeats(self):
        s = make_stream(RANDOM)
        lines = [s.next_request()[1][0] for _ in range(300)]
        assert len(set(lines)) > 250

    def test_shared_accesses_land_in_shared_region(self):
        s = make_stream(SHARER)
        base = AddressMap.app_base(0)
        hi = base + SHARER.shared_lines * 128
        for _ in range(100):
            for line in s.next_request()[1]:
                assert base <= line < hi

    def test_addresses_stay_in_app_region(self):
        for profile in (STREAMING, REUSER, RANDOM, SHARER):
            s = make_stream(profile, app_id=2)
            for _ in range(200):
                for line in s.next_request()[1]:
                    assert AddressMap.app_of(line) == 2


class TestRequestShape:
    def test_non_divergent_coalesce_is_sequential_block(self):
        p = AppProfile("X", "x", r_m=0.2, coalesce=4, p_seq=1.0, gap_jitter=0.0)
        s = make_stream(p)
        _, lines = s.next_request()
        assert len(lines) == 4
        assert lines == [lines[0] + i * 128 for i in range(4)]

    def test_divergent_lines_are_unique(self):
        p = AppProfile("X", "x", r_m=0.2, coalesce=8, divergent=True,
                       p_seq=0.0, p_reuse=0.0, stream_lines=1 << 16)
        s = make_stream(p)
        for _ in range(50):
            _, lines = s.next_request()
            assert len(lines) == len(set(lines))
            assert 1 <= len(lines) <= 8

    def test_gap_jitter_zero_is_exact(self):
        p = AppProfile("X", "x", r_m=0.25, gap_jitter=0.0)
        s = make_stream(p)
        gaps = {s.next_request()[0] for _ in range(50)}
        assert gaps == {4}

    def test_gap_always_positive(self):
        p = AppProfile("X", "x", r_m=1.0, gap_jitter=0.8)
        s = make_stream(p)
        assert all(s.next_request()[0] >= 1 for _ in range(100))


class TestCoreStream:
    def test_wraps_around(self):
        cs = CoreStream(base=0, n_lines=4, line_bytes=128)
        lines = [cs.next_line() for _ in range(6)]
        assert lines == [0, 128, 256, 384, 0, 128]

    def test_jump_moves_cursor(self):
        cs = CoreStream(base=1000 * 128, n_lines=100, line_bytes=128)
        cs.jump(50)
        assert cs.next_line() == (1000 + 50) * 128


class TestProfileProperties:
    @given(
        r_m=st.floats(0.01, 1.0),
        p_seq=st.floats(0.0, 0.5),
        p_reuse=st.floats(0.0, 0.4),
        coalesce=st.integers(1, 8),
    )
    @settings(max_examples=30)
    def test_any_valid_profile_generates(self, r_m, p_seq, p_reuse, coalesce):
        p = AppProfile("X", "x", r_m=r_m, p_seq=p_seq, p_reuse=p_reuse,
                       coalesce=coalesce, footprint_lines=4)
        s = make_stream(p)
        for _ in range(20):
            gap, lines = s.next_request()
            assert gap >= 1
            assert len(lines) <= coalesce
            assert all(line % 128 == 0 for line in lines)


#: bounds the bounded-draw equivalence covers: edge cases around powers
#: of two, and every size a Table 4 profile draws below
DRAW_BOUNDS = sorted(
    {1, 2, 3, 7, 8, 9, 2**20, 2**20 + 1}
    | {p.footprint_lines for p in APPLICATIONS}
    | {p.shared_lines for p in APPLICATIONS}
    | {p.stream_lines for p in APPLICATIONS}
)
#: ring sizes cover the small bounds only: a ring of 2**20 lines would
#: pre-fill a million entries per stream
RING_BOUNDS = [n for n in DRAW_BOUNDS if n <= 4096]
DRAW_SEEDS = (1, 7, 2024)


def _site_profile(site: str, n: int) -> AppProfile:
    """A profile whose every access takes one bounded-draw site."""
    if site == "ring":
        return AppProfile("T", "t", r_m=0.5, p_reuse=1.0, p_seq=0.0,
                          footprint_lines=n, gap_jitter=0.0)
    if site == "shared":
        return AppProfile("T", "t", r_m=0.5, p_reuse=0.0, p_seq=0.0,
                          shared_frac=1.0, shared_lines=n, footprint_lines=1,
                          gap_jitter=0.0)
    return AppProfile("T", "t", r_m=0.5, p_reuse=0.0, p_seq=0.0,
                      stream_lines=n, footprint_lines=4, gap_jitter=0.0)


class TestBoundedDraw:
    """The stream's inlined bounded draw is ``randrange(n)``, word for word.

    Each profile routes every access through one draw site.  The
    reference replays the stream's draws on ``random.Random(seed)`` with
    ``randrange``: the reuse-ring pre-fill, then one ``random()`` roll
    and one ``randrange(n)`` per access.  The addresses must match and
    both generators must end in the same state, so a CPython whose
    ``randrange`` consumes different words fails here first.
    """

    @pytest.mark.parametrize("site", ["ring", "shared", "jump"])
    def test_inlined_draw_matches_randrange(self, site):
        bounds = RING_BOUNDS if site == "ring" else DRAW_BOUNDS
        for n in bounds:
            profile = _site_profile(site, n)
            for seed in DRAW_SEEDS:
                stream = make_stream(profile, seed=seed)
                ref = random.Random(stream_seed(seed, 0, 0, 0))
                base = stream.core_stream.base
                ring = [
                    base + ref.randrange(profile.stream_lines) * 128
                    for _ in range(profile.footprint_lines)
                ]
                assert stream._ring == ring, (site, n, seed)
                for _ in range(64):
                    ref.random()
                    i = ref.randrange(n)
                    if site == "ring":
                        expected = ring[i]
                    elif site == "shared":
                        expected = stream.shared_base + i * 128
                    else:
                        expected = base + (i % profile.stream_lines) * 128
                    assert stream.next_request() == (
                        profile.inst_gap, [expected]
                    ), (site, n, seed)
                assert stream.rng.getstate() == ref.getstate(), (site, n, seed)
