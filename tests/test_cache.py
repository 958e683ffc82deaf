"""Tests for repro.sim.cache: LRU sets, bypass, quotas, MSHRs."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.cache import MSHRTable, SetAssocCache

LINE = 128


def make_cache(n_sets=4, assoc=2) -> SetAssocCache:
    return SetAssocCache(n_sets=n_sets, assoc=assoc, line_bytes=LINE)


def addr(set_idx: int, tag: int, n_sets: int = 4) -> int:
    """Build a line address landing in ``set_idx`` with a distinct tag."""
    return (tag * n_sets + set_idx) * LINE


class TestBasicCaching:
    def test_cold_miss_then_hit_after_fill(self):
        cache = make_cache()
        a = addr(0, 0)
        assert cache.access(a, app_id=0) is False
        cache.fill(a, app_id=0)
        assert cache.access(a, app_id=0) is True

    def test_miss_does_not_install(self):
        cache = make_cache()
        a = addr(0, 0)
        cache.access(a, app_id=0)
        assert cache.access(a, app_id=0) is False, "no fill yet, still a miss"

    def test_lru_eviction_order(self):
        cache = make_cache(n_sets=1, assoc=2)
        a, b, c = addr(0, 0, 1), addr(0, 1, 1), addr(0, 2, 1)
        cache.fill(a, 0)
        cache.fill(b, 0)
        victim = cache.fill(c, 0)
        assert victim == a, "the least recently used line is evicted"

    def test_hit_refreshes_lru(self):
        cache = make_cache(n_sets=1, assoc=2)
        a, b, c = addr(0, 0, 1), addr(0, 1, 1), addr(0, 2, 1)
        cache.fill(a, 0)
        cache.fill(b, 0)
        cache.access(a, 0)  # a becomes MRU
        victim = cache.fill(c, 0)
        assert victim == b

    def test_duplicate_fill_is_idempotent(self):
        cache = make_cache()
        a = addr(1, 0)
        cache.fill(a, 0)
        assert cache.fill(a, 0) is None
        assert cache.resident_lines == 1

    def test_sets_are_independent(self):
        cache = make_cache(n_sets=4, assoc=1)
        for s in range(4):
            cache.fill(addr(s, 0), 0)
        assert cache.resident_lines == 4

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            SetAssocCache(n_sets=0, assoc=2, line_bytes=LINE)


class TestBypass:
    def test_bypassed_app_does_not_install(self):
        cache = make_cache()
        cache.bypass_apps.add(1)
        a = addr(0, 0)
        cache.fill(a, app_id=1)
        assert cache.resident_lines == 0
        assert cache.access(a, app_id=1) is False

    def test_other_apps_unaffected(self):
        cache = make_cache()
        cache.bypass_apps.add(1)
        a = addr(0, 0)
        cache.fill(a, app_id=0)
        assert cache.access(a, app_id=0) is True


class TestWayQuota:
    def test_quota_evicts_own_lru(self):
        cache = make_cache(n_sets=1, assoc=4)
        cache.way_quota = {0: 2}
        a, b, c = addr(0, 0, 1), addr(0, 1, 1), addr(0, 2, 1)
        other = addr(0, 3, 1)
        cache.fill(other, 1)
        cache.fill(a, 0)
        cache.fill(b, 0)
        victim = cache.fill(c, 0)  # app 0 at quota: evicts its own LRU (a)
        assert victim == a
        assert cache.access(other, 1) is True, "co-runner's line survived"

    def test_without_quota_global_lru(self):
        cache = make_cache(n_sets=1, assoc=2)
        other = addr(0, 0, 1)
        cache.fill(other, 1)
        cache.fill(addr(0, 1, 1), 0)
        victim = cache.fill(addr(0, 2, 1), 0)
        assert victim == other, "global LRU evicts the co-runner's line"


class TestInvalidateAndOccupancy:
    def test_occupancy_by_app(self):
        cache = make_cache()
        cache.fill(addr(0, 0), 0)
        cache.fill(addr(0, 1), 1)
        assert cache.occupancy_by_app() == {0: 1, 1: 1}


class TestCacheProperties:
    @given(
        st.lists(
            st.tuples(st.integers(0, 63), st.integers(0, 1)),
            min_size=1,
            max_size=300,
        )
    )
    @settings(max_examples=50)
    def test_capacity_never_exceeded(self, ops):
        cache = make_cache(n_sets=2, assoc=3)
        for tag, app in ops:
            a = addr(tag % 2, tag, 2)
            if not cache.access(a, app):
                cache.fill(a, app)
        assert cache.resident_lines <= 2 * 3
        for line_set in cache._sets:
            assert len(line_set) <= 3

    @given(
        st.lists(st.integers(0, 31), min_size=1, max_size=200),
        st.integers(1, 4),
    )
    @settings(max_examples=50)
    def test_second_access_to_resident_line_always_hits(self, tags, assoc):
        """Once filled and immediately re-accessed, a line must hit."""
        cache = make_cache(n_sets=2, assoc=assoc)
        for tag in tags:
            a = addr(tag % 2, tag, 2)
            if not cache.access(a, 0):
                cache.fill(a, 0)
            assert cache.access(a, 0) is True


class TestMSHR:
    def test_new_then_merge(self):
        mshr = MSHRTable(4)
        assert mshr.allocate(0x100, "w0") == "new"
        assert mshr.allocate(0x100, "w1") == "merged"
        assert mshr.merges == 1
        assert sorted(mshr.release(0x100)) == ["w0", "w1"]

    def test_release_unknown_line_is_empty(self):
        assert MSHRTable(2).release(0x42) == []

    def test_full_table_rejects(self):
        mshr = MSHRTable(2)
        assert mshr.allocate(0x100, "a") == "new"
        assert mshr.allocate(0x200, "b") == "new"
        assert mshr.allocate(0x300, "c") == "full"
        assert mshr.allocation_failures == 1

    def test_full_table_still_merges(self):
        mshr = MSHRTable(1)
        mshr.allocate(0x100, "a")
        assert mshr.allocate(0x100, "b") == "merged"

    def test_release_frees_entry(self):
        mshr = MSHRTable(1)
        mshr.allocate(0x100, "a")
        mshr.release(0x100)
        assert mshr.allocate(0x200, "b") == "new"

    @given(st.lists(st.integers(0, 9), min_size=1, max_size=100))
    @settings(max_examples=50)
    def test_occupancy_bounded(self, lines):
        mshr = MSHRTable(4)
        for ln in lines:
            mshr.allocate(ln * 128, object())
            assert len(mshr) <= 4
