"""Tests for the Space-Saving TOP-K summary, including its guarantees."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.approx import SpaceSaving
from repro.core.approx.spacesaving import TopItem


def guaranteed_count(t: TopItem) -> int:
    """Lower bound on the item's true frequency."""
    return t.count - t.error


def guaranteed_top(ss: SpaceSaving, k: int) -> list[TopItem]:
    """The subset of ``ss.top(k)`` whose membership in the true top-k is
    provable: an item's guaranteed count is at least the (k+1)-th
    estimated count."""
    ranked = ss.top(len(ss))
    if len(ranked) <= k:
        return ranked
    threshold = ranked[k].count
    return [t for t in ranked[:k] if guaranteed_count(t) >= threshold]


class TestBasics:
    def test_exact_when_under_capacity(self):
        ss = SpaceSaving(capacity=10)
        stream = ["a"] * 5 + ["b"] * 3 + ["c"] * 1
        ss.update(stream)
        assert ss.estimate("a") == 5
        assert ss.estimate("b") == 3
        assert ss.estimate("c") == 1
        assert all(t.error == 0 for t in ss.top(3))

    def test_top_ordering(self):
        ss = SpaceSaving(capacity=10)
        ss.update(["x"] * 7 + ["y"] * 4 + ["z"] * 2)
        assert [t.item for t in ss.top(2)] == ["x", "y"]

    def test_unmonitored_item_estimate_zero(self):
        ss = SpaceSaving(capacity=2)
        ss.update(["a", "b"])
        assert ss.estimate("zzz") == 0

    def test_total_counts_offers(self):
        ss = SpaceSaving(capacity=2)
        ss.update(["a", "b", "c", "a"])
        assert ss.total == 4

    def test_offer_with_count(self):
        ss = SpaceSaving(capacity=4)
        ss.offer("a", count=10)
        ss.offer("a", count=5)
        assert ss.estimate("a") == 15

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            SpaceSaving(0)
        ss = SpaceSaving(1)
        with pytest.raises(ValueError):
            ss.offer("a", count=0)

    def test_capacity_bound_holds(self):
        ss = SpaceSaving(capacity=5)
        ss.update(str(i) for i in range(1000))
        assert len(ss) == 5

    def test_top_k_larger_than_monitored(self):
        ss = SpaceSaving(capacity=3)
        ss.update(["a", "b"])
        assert len(ss.top(10)) == 2

    def test_top_zero(self):
        ss = SpaceSaving(capacity=3)
        ss.update(["a"])
        assert ss.top(0) == []


class TestGuarantees:
    """The two Space-Saving guarantees from Metwally et al. (paper [36])."""

    def _zipf_stream(self, n, universe, seed, alpha=1.3):
        rng = random.Random(seed)
        weights = [1.0 / (i + 1) ** alpha for i in range(universe)]
        return rng.choices(range(universe), weights=weights, k=n)

    def test_count_bounds(self):
        """count - error <= true <= count for every monitored item."""
        stream = self._zipf_stream(5000, 300, seed=1)
        truth = Counter(stream)
        ss = SpaceSaving(capacity=50)
        ss.update(stream)
        for t in ss.top(50):
            assert guaranteed_count(t) <= truth[t.item] <= t.count

    def test_heavy_hitters_present(self):
        """Any item with frequency > N/capacity must be monitored."""
        stream = self._zipf_stream(8000, 500, seed=2)
        truth = Counter(stream)
        capacity = 40
        ss = SpaceSaving(capacity=capacity)
        ss.update(stream)
        threshold = len(stream) / capacity
        monitored = {t.item for t in ss.top(capacity)}
        for item, count in truth.items():
            if count > threshold:
                assert item in monitored, (item, count, threshold)

    def test_overestimation_bounded_by_n_over_m(self):
        """error_i <= N/capacity (the classic space-saving bound)."""
        stream = self._zipf_stream(6000, 400, seed=3)
        capacity = 60
        ss = SpaceSaving(capacity=capacity)
        ss.update(stream)
        bound = len(stream) / capacity
        for t in ss.top(capacity):
            assert t.error <= bound

    def test_guaranteed_top_is_truly_top(self):
        stream = self._zipf_stream(10000, 200, seed=4)
        truth = Counter(stream)
        ss = SpaceSaving(capacity=100)
        ss.update(stream)
        k = 10
        true_top = {item for item, _ in truth.most_common(k)}
        for t in guaranteed_top(ss, k):
            assert t.item in true_top


class TestMerge:
    def test_merge_counts_upper_bound(self):
        a = SpaceSaving(capacity=50)
        b = SpaceSaving(capacity=50)
        stream_a = ["x"] * 30 + ["y"] * 10
        stream_b = ["x"] * 5 + ["z"] * 20
        a.update(stream_a)
        b.update(stream_b)
        a.merge(b)
        truth = Counter(stream_a + stream_b)
        for t in a.top(50):
            assert truth[t.item] <= t.count
            assert guaranteed_count(t) <= truth[t.item]

    def test_merge_total(self):
        a, b = SpaceSaving(10), SpaceSaving(10)
        a.update(["p"] * 3)
        b.update(["q"] * 4)
        a.merge(b)
        assert a.total == 7


@settings(max_examples=50, deadline=None)
@given(
    stream=st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=500),
    capacity=st.integers(min_value=1, max_value=40),
)
def test_property_count_is_upper_bound(stream, capacity):
    truth = Counter(stream)
    ss = SpaceSaving(capacity)
    ss.update(stream)
    for t in ss.top(capacity):
        assert t.count >= truth[t.item]
        assert guaranteed_count(t) <= truth[t.item]
    assert len(ss) <= capacity
    assert ss.total == len(stream)
