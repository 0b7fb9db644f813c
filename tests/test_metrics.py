import math

import pytest
from hypothesis import given, settings, strategies as st

from asibench.errors import MetricError
from asibench.harness import AccuracySeries
from asibench.metrics import (
    BenchmarkScore,
    asi,
    coefficient_of_variation,
    compare,
    load_reference_scores,
    mean_accuracy,
    score,
)


def brute_force_cv(values):
    """Independent population-CV oracle: plain loops, no shared code path."""
    n = len(values)
    total = 0.0
    for v in values:
        total += v
    mean = total / n
    sq = 0.0
    for v in values:
        sq += (v - mean) ** 2
    return 100.0 * math.sqrt(sq / n) / mean


class TestMeanAccuracy:
    def test_constant_series(self):
        assert mean_accuracy([85.25] * 69) == pytest.approx(85.25, abs=1e-12)

    def test_small_symmetric(self):
        assert mean_accuracy([80.0, 90.0, 100.0]) == 90.0

    def test_constructed_target_mean(self):
        # symmetric deviations around the target leave the mean exact
        series = [89.702] + [89.702 + d for d in (1.0, -1.0) for _ in range(34)]
        assert len(series) == 69
        assert math.fsum(series) / 69 == pytest.approx(89.702, abs=1e-9)
        assert mean_accuracy(series) == pytest.approx(89.702, abs=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(MetricError):
            mean_accuracy([])


class TestCoefficientOfVariation:
    def test_constant_series_zero(self):
        assert coefficient_of_variation([85.0] * 10) == 0.0

    def test_hand_oracle_80_90_100(self):
        # population std = sqrt(200/3) = 8.1650, cv = 100 * std / 90
        expected = 100.0 * math.sqrt(200.0 / 3.0) / 90.0
        cv = coefficient_of_variation([80.0, 90.0, 100.0])
        assert cv == pytest.approx(expected, rel=1e-12)
        assert cv == pytest.approx(9.0722, abs=1e-4)

    def test_hand_oracle_with_outlier(self):
        # mean 88, population std 4.0
        cv = coefficient_of_variation([90.0, 90.0, 90.0, 90.0, 80.0])
        assert cv == pytest.approx(100.0 * 4.0 / 88.0, rel=1e-12)
        assert cv == pytest.approx(4.5454, abs=1e-4)

    def test_zero_mean_rejected(self):
        with pytest.raises(MetricError):
            coefficient_of_variation([0.0, 0.0])

    def test_empty_rejected(self):
        with pytest.raises(MetricError):
            coefficient_of_variation([])

    @given(
        st.lists(st.floats(min_value=1.0, max_value=100.0), min_size=3, max_size=69)
    )
    @settings(max_examples=300)
    def test_matches_brute_force(self, values):
        assert coefficient_of_variation(values) == pytest.approx(
            brute_force_cv(values), rel=1e-12, abs=1e-12
        )


class TestAsi:
    @pytest.mark.parametrize(
        "mean,cv,expected",
        [
            (85.250, 2.276, 0.948),  # published anchors
            (89.702, 1.479, 0.968),
            (88.663, 1.737, 0.962),
            (91.129, 3.980, 0.916),
            (89.715, 0.554, 0.988),
        ],
    )
    def test_published_anchors(self, mean, cv, expected):
        assert round(asi(mean, cv), 3) == expected

    def test_zero_cv_gives_one(self):
        assert asi(50.0, 0.0) == 1.0

    def test_balance_point(self):
        assert asi(3.7, 3.7) == 0.0

    def test_zero_mean_gives_minus_one(self):
        assert asi(0.0, 5.0) == -1.0

    def test_undefined_at_origin(self):
        with pytest.raises(MetricError):
            asi(0.0, 0.0)

    def test_negative_inputs_rejected(self):
        with pytest.raises(MetricError):
            asi(-1.0, 1.0)

    @pytest.mark.parametrize("mean,cv", [
        (float("nan"), 1.0), (50.0, float("nan")), (float("inf"), 1.0), (50.0, float("inf")),
    ])
    def test_non_finite_inputs_rejected(self, mean, cv):
        with pytest.raises(MetricError, match="finite"):
            asi(mean, cv)

    @given(
        st.floats(min_value=1e-6, max_value=100.0),
        st.floats(min_value=1e-6, max_value=50.0),
    )
    @settings(max_examples=2000)
    def test_bounds(self, mean, cv):
        assert -1.0 < asi(mean, cv) < 1.0

    @given(
        st.floats(min_value=0.1, max_value=99.0),
        st.floats(min_value=0.1, max_value=50.0),
        st.floats(min_value=0.01, max_value=1.0),
    )
    @settings(max_examples=1000)
    def test_strictly_monotone(self, mean, cv, delta):
        assert asi(mean + delta, cv) > asi(mean, cv)
        assert asi(mean, cv + delta) < asi(mean, cv)

    @given(
        st.floats(min_value=0.1, max_value=100.0),
        st.floats(min_value=0.1, max_value=50.0),
        st.sampled_from([0.5, 2.0, 10.0]),
    )
    @settings(max_examples=1000)
    def test_scale_invariance(self, mean, cv, k):
        assert abs(asi(k * mean, k * cv) - asi(mean, cv)) <= 1e-12


class TestScore:
    def test_perfect_classifier(self):
        s = score(AccuracySeries("perfect", tuple((c, 100.0) for c in range(69))))
        assert s.mean_accuracy_percent == 100.0
        assert s.cv_percent == 0.0
        assert s.asi == 1.0
        assert s.n_conditions == 69

    def test_composition_of_hand_oracles(self):
        s = score(AccuracySeries("m", ((0, 80.0), (1, 90.0), (2, 100.0))))
        cv = brute_force_cv([80.0, 90.0, 100.0])
        assert s.mean_accuracy_percent == 90.0
        assert s.asi == pytest.approx((90.0 - cv) / (90.0 + cv), rel=1e-12)
        assert s.asi == pytest.approx(0.81685, abs=1e-5)

    @given(
        st.lists(st.floats(min_value=1.0, max_value=100.0), min_size=3, max_size=69)
    )
    @settings(max_examples=200)
    def test_invariants(self, values):
        s = score(AccuracySeries("m", tuple(enumerate(values))))
        assert 0.0 <= s.mean_accuracy_percent <= 100.0
        assert s.cv_percent >= 0.0
        assert -1.0 <= s.asi <= 1.0
        assert s.asi == pytest.approx(
            (s.mean_accuracy_percent - s.cv_percent)
            / (s.mean_accuracy_percent + s.cv_percent),
            rel=1e-12,
        )

    @given(st.permutations([81.0, 92.5, 88.0, 99.0, 67.25]))
    @settings(max_examples=120)
    def test_permutation_invariance(self, values):
        baseline = [81.0, 92.5, 88.0, 99.0, 67.25]
        assert mean_accuracy(values) == pytest.approx(mean_accuracy(baseline), rel=1e-14)
        assert coefficient_of_variation(values) == pytest.approx(
            coefficient_of_variation(baseline), rel=1e-12
        )

    @given(
        st.lists(
            st.floats(min_value=5.0, max_value=80.0), min_size=3, max_size=20
        ).filter(lambda v: max(v) - min(v) > 1e-6),
        st.floats(min_value=0.5, max_value=20.0),
    )
    @settings(max_examples=300)
    def test_translation_shrinks_cv(self, values, shift):
        shifted = [v + shift for v in values]
        assert coefficient_of_variation(shifted) < coefficient_of_variation(values)


def _score(cv, mean, name="x"):
    return BenchmarkScore(name, mean, cv, asi(mean, cv), 69)


class TestCompare:
    def test_published_comparison(self):
        r4 = _score(1.479, 89.702, "R4")
        r8 = _score(1.737, 88.663, "R8")
        delta = compare(r4, r8)
        assert delta.cv_delta_percent == pytest.approx(
            100.0 * (1.737 / 1.479 - 1.0), rel=1e-12
        )
        assert delta.mean_delta_percent == pytest.approx(-1.158, abs=1e-3)
        assert delta.asi_ordering == "a"
        assert round(r4.asi, 3) == 0.968 and round(r8.asi, 3) == 0.962

    def test_self_comparison(self):
        s = _score(2.0, 90.0)
        delta = compare(s, s)
        assert delta.cv_delta_percent == 0.0
        assert delta.mean_delta_percent == 0.0
        assert delta.asi_ordering == "tie"

    def test_hand_arithmetic(self):
        delta = compare(_score(2.0, 80.0), _score(1.0, 90.0))
        assert delta.cv_delta_percent == pytest.approx(-50.0, rel=1e-12)
        assert delta.mean_delta_percent == pytest.approx(12.5, rel=1e-12)

    def test_zero_baseline_rejected(self):
        good = _score(1.0, 90.0)
        with pytest.raises(MetricError):
            compare(BenchmarkScore("z", 90.0, 0.0, 1.0, 69), good)


class TestReferenceFixture:
    def test_has_75_rows(self):
        assert len(load_reference_scores()) == 75

    def test_all_rows_consistent(self):
        for row in load_reference_scores():
            assert abs(asi(row.mean, row.cv) - row.asi) <= 0.001, row
