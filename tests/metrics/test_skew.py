"""Skew analytics: known-answer distributions and detector edge cases."""

import random

import pytest

from repro.metrics.skew import (
    OverloadDetector,
    SkewSummary,
    gini,
    p99_mean_ratio,
    skew_summary,
    top_k,
)
from repro.metrics.stats import summarize


class TestGini:
    def test_empty_and_singleton_are_zero(self):
        assert gini([]) == 0.0
        assert gini([42.0]) == 0.0

    def test_all_equal_is_zero(self):
        assert gini([5, 5, 5, 5]) == pytest.approx(0.0)

    def test_all_zero_is_zero(self):
        assert gini([0, 0, 0]) == 0.0

    def test_total_concentration_approaches_one(self):
        # One of n entities carries everything: G = (n - 1) / n.
        assert gini([0, 0, 0, 100]) == pytest.approx(3 / 4)
        assert gini([0] * 99 + [1]) == pytest.approx(99 / 100)

    def test_known_hand_computed_value(self):
        # Sorted [1, 2, 3, 4]: Σ i·xᵢ = 1+4+9+16 = 30, total = 10.
        # G = 2·30 / (4·10) - 5/4 = 1.5 - 1.25 = 0.25.
        assert gini([3, 1, 4, 2]) == pytest.approx(0.25)

    def test_order_invariant(self):
        assert gini([9, 1, 5]) == gini([1, 5, 9])


class TestTopK:
    def test_hottest_first(self):
        loads = {1: 5.0, 2: 9.0, 3: 1.0}
        assert top_k(loads, 2) == [(2, 9.0), (1, 5.0)]

    def test_ties_break_toward_smaller_id(self):
        loads = {7: 3.0, 2: 3.0, 5: 3.0}
        assert top_k(loads, 3) == [(2, 3.0), (5, 3.0), (7, 3.0)]

    def test_k_larger_than_population(self):
        assert top_k({1: 1.0}, 10) == [(1, 1.0)]

    def test_nonpositive_k_is_empty(self):
        assert top_k({1: 1.0}, 0) == []


class TestP99MeanRatio:
    def test_empty_is_zero(self):
        assert p99_mean_ratio([]) == 0.0

    def test_zero_mean_is_zero(self):
        assert p99_mean_ratio([0, 0]) == 0.0

    def test_uniform_is_one(self):
        assert p99_mean_ratio([4, 4, 4, 4]) == pytest.approx(1.0)

    def test_skewed_tail(self):
        # 98 ones + two 100s: mean = 2.98; nearest-rank p99 over 100
        # values is the 99th sorted value (index 98) = 100.
        values = [1.0] * 98 + [100.0, 100.0]
        ratio = p99_mean_ratio(values)
        assert ratio == pytest.approx(100.0 / 2.98)


class TestSkewSummary:
    def test_summary_fields(self):
        loads = {1: 1.0, 2: 2.0, 3: 3.0, 4: 4.0}
        summary = skew_summary(loads, k=2)
        assert summary.count == 4
        assert summary.total == 10.0
        assert summary.gini == pytest.approx(0.25)
        assert summary.top == ((4, 4.0), (3, 3.0))

    def test_as_dict_is_json_shaped(self):
        record = skew_summary({1: 2.0}, k=1).as_dict()
        assert record["count"] == 1
        assert record["top"] == [[1, 2.0]]

    def test_one_sort_equals_the_composed_statistics(self):
        """``skew_summary`` reads the Gini coefficient and p99/mean off
        one sorted list; each equals, to the bit, the rank formula over
        its own sort and the ratio of ``summarize``'s p99 and mean."""
        rng = random.Random(5)
        for _ in range(300):
            loads = {
                node: rng.choice((0, rng.randrange(50), rng.random() * 1e4))
                for node in rng.sample(range(10_000), rng.randrange(0, 80))
            }
            data = sorted(float(v) for v in loads.values())
            n, total = len(data), sum(data)
            reference_gini = 0.0
            if n >= 2 and total > 0:
                weighted = sum(rank * v for rank, v in enumerate(data, start=1))
                reference_gini = (2.0 * weighted) / (n * total) - (n + 1) / n
            stats = summarize(loads.values())
            ratio = stats.p99 / stats.mean if stats.count and stats.mean else 0.0
            assert skew_summary(loads, k=3) == SkewSummary(
                count=n,
                total=sum(data, 0.0),
                gini=reference_gini,
                p99_mean_ratio=ratio,
                top=tuple(top_k(loads, 3)),
            )


class TestOverloadDetector:
    def test_empty_window_emits_nothing(self):
        detector = OverloadDetector()
        assert detector.observe(1.0, {}) == []
        assert detector.events == []

    def test_single_node_is_its_own_median(self):
        # One node's delta IS the median, so ratio == 1 < threshold.
        detector = OverloadDetector(threshold=4.0)
        assert detector.observe(1.0, {7: 100.0}) == []

    def test_hot_node_above_median_multiple_fires(self):
        detector = OverloadDetector(threshold=4.0)
        loads = {1: 1.0, 2: 1.0, 3: 1.0, 4: 1.0, 5: 50.0}
        events = detector.observe(1.0, loads)
        assert [event.node for event in events] == [5]
        event = events[0]
        assert event.window_load == 50.0
        assert event.median == 1.0
        assert event.ratio == pytest.approx(50.0)
        assert event.t == 1.0

    def test_windowed_deltas_not_cumulative(self):
        # A node hot in window 1 but idle in window 2 only fires once.
        detector = OverloadDetector(threshold=4.0)
        first = detector.observe(1.0, {1: 1.0, 2: 1.0, 3: 50.0})
        assert [event.node for event in first] == [3]
        # Cumulative loads unchanged for 3 => zero delta this window.
        second = detector.observe(2.0, {1: 2.0, 2: 2.0, 3: 50.0})
        assert second == []

    def test_quiet_window_uses_min_median_floor(self):
        # All-zero median falls back to min_median=1.0, so a lone
        # worker must clear threshold * 1.0, not threshold * 0.
        detector = OverloadDetector(threshold=4.0, min_median=1.0)
        loads = {1: 0.0, 2: 0.0, 3: 0.0, 4: 0.0, 5: 3.0}
        assert detector.observe(1.0, loads) == []
        loads_hot = {1: 0.0, 2: 0.0, 3: 0.0, 4: 0.0, 5: 3.0 + 4.5}
        events = detector.observe(2.0, loads_hot)
        assert [event.node for event in events] == [5]

    def test_tied_hot_nodes_fire_in_id_order(self):
        detector = OverloadDetector(threshold=2.0)
        loads = {9: 50.0, 1: 50.0, 2: 1.0, 3: 1.0, 4: 1.0}
        events = detector.observe(1.0, loads)
        assert [event.node for event in events] == [1, 9]

    def test_at_cutoff_does_not_fire(self):
        # Strictly-above semantics: exactly threshold x median is OK.
        detector = OverloadDetector(threshold=4.0)
        loads = {1: 2.0, 2: 2.0, 3: 2.0, 4: 8.0}
        assert detector.observe(1.0, loads) == []

    def test_even_count_median_averages_middle_two(self):
        detector = OverloadDetector(threshold=4.0)
        # Deltas [1, 3, 5, 100]: median = (3 + 5) / 2 = 4; cutoff 16.
        events = detector.observe(1.0, {1: 1.0, 2: 3.0, 3: 5.0, 4: 100.0})
        assert [event.node for event in events] == [4]
        assert events[0].median == pytest.approx(4.0)

    def test_node_absent_from_sample_keeps_its_history(self):
        detector = OverloadDetector(threshold=2.0)
        detector.observe(1.0, {1: 10.0, 2: 10.0, 3: 10.0})
        # Node 3 absent now: it takes no part in the window.
        events = detector.observe(2.0, {1: 11.0, 2: 11.0})
        assert events == []
        # Back, it is charged 2.0 since its last sample, not its whole
        # 12.0: against the median 1.0 that is not above 2x.
        events = detector.observe(3.0, {1: 12.0, 2: 12.0, 3: 12.0})
        assert events == []
        events = detector.observe(4.0, {1: 13.0, 2: 13.0, 3: 15.5})
        assert [(event.node, event.window_load) for event in events] == [(3, 3.5)]

    def test_invalid_parameters_raise(self):
        with pytest.raises(ValueError):
            OverloadDetector(threshold=0.0)
        with pytest.raises(ValueError):
            OverloadDetector(min_median=0.0)

    def test_events_accumulate_across_windows(self):
        detector = OverloadDetector(threshold=2.0)
        detector.observe(1.0, {1: 1.0, 2: 1.0, 3: 30.0})
        detector.observe(2.0, {1: 2.0, 2: 2.0, 3: 60.0})
        assert [event.t for event in detector.events] == [1.0, 2.0]
        assert {event.node for event in detector.events} == {3}
