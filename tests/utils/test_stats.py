"""Tests for :mod:`repro.utils.stats`."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special
from scipy import stats as scipy_stats

from repro.utils.stats import (
    binomial_log_coefficient,
    binomial_log_pmf,
    binomial_mode,
    binomial_pmf,
    empirical_percentile,
    rates_from_scores,
    roc_points,
)


class TestEmpiricalPercentile:
    def test_median(self):
        assert empirical_percentile(
            np.array([1.0, 2.0, 3.0]),
            0.5,
        ) == pytest.approx(2.0)

    def test_extremes(self):
        data = np.arange(100, dtype=float)
        assert empirical_percentile(data, 0.0) == 0.0
        assert empirical_percentile(data, 1.0) == 99.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            empirical_percentile(np.array([]), 0.5)

    def test_bad_tau_rejected(self):
        with pytest.raises(ValueError):
            empirical_percentile(np.array([1.0]), 1.5)


class TestRatesFromScores:
    def test_simple_threshold(self):
        benign = np.array([1.0, 2.0, 3.0, 4.0])
        attacked = np.array([5.0, 6.0, 1.0])
        fp, dr = rates_from_scores(benign, attacked, threshold=4.0)
        assert fp == 0.0
        assert dr == pytest.approx(2.0 / 3.0)

    def test_alarm_is_strictly_greater(self):
        benign = np.array([2.0, 2.0])
        fp, _ = rates_from_scores(benign, np.array([3.0]), threshold=2.0)
        assert fp == 0.0

    def test_empty_inputs(self):
        fp, dr = rates_from_scores(np.array([]), np.array([]), 0.0)
        assert fp == 0.0 and dr == 0.0


class TestRocPoints:
    def test_perfect_separation_reaches_corner(self):
        benign = np.random.default_rng(0).normal(0, 1, 200)
        attacked = benign + 100.0
        _, fp, dr = roc_points(benign, attacked)
        # Some threshold should achieve DR=1 with FP=0.
        assert np.any((dr == 1.0) & (fp == 0.0))

    def test_curve_monotone_in_fp(self):
        rng = np.random.default_rng(1)
        benign = rng.normal(0, 1, 300)
        attacked = rng.normal(1, 1, 300)
        _, fp, dr = roc_points(benign, attacked)
        # roc_points returns the curve sorted by (FP, DR); the detection
        # rate must never decrease along that ordering.
        assert np.all(np.diff(fp) >= -1e-12)
        assert np.all(np.diff(dr) >= -1e-12)

    def test_spans_zero_to_one(self):
        benign = np.array([0.0, 1.0, 2.0])
        attacked = np.array([1.5, 2.5])
        _, fp, dr = roc_points(benign, attacked)
        assert fp.min() == 0.0 and fp.max() == 1.0
        assert dr.min() == 0.0 and dr.max() == 1.0

    def test_limited_thresholds(self):
        rng = np.random.default_rng(2)
        benign = rng.normal(size=1000)
        attacked = rng.normal(size=1000)
        thresholds, _, _ = roc_points(benign, attacked, num_thresholds=20)
        assert len(thresholds) <= 22  # 20 quantiles + 2 sentinels

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            roc_points(np.array([]), np.array([]))

    def test_empty_side_rejected(self):
        """Regression: an empty benign (or attacked) sample used to yield
        FPR = 1.0 (or DR = 1.0) at every threshold instead of failing."""
        scores = np.array([0.1, 0.7, 0.3])
        with pytest.raises(ValueError):
            roc_points(np.array([]), scores)
        with pytest.raises(ValueError):
            roc_points(scores, np.array([]))

    def test_agrees_with_rates_from_scores(self):
        """Each swept (FP, DR) point must match the single-threshold helper."""
        rng = np.random.default_rng(3)
        benign = rng.normal(0, 1, 150)
        attacked = rng.normal(1.5, 1, 120)
        thresholds, fp, dr = roc_points(benign, attacked)
        for threshold, f, d in zip(thresholds, fp, dr):
            expected = rates_from_scores(benign, attacked, threshold)
            assert (f, d) == pytest.approx(expected)


class TestBinomialPmf:
    def test_matches_scipy_on_integers(self):
        n, p = 30, 0.37
        ks = np.arange(0, n + 1)
        ours = binomial_pmf(ks, n, np.full(ks.shape, p))
        ref = scipy_stats.binom.pmf(ks, n, p)
        np.testing.assert_allclose(ours, ref, rtol=1e-10, atol=1e-12)

    def test_sums_to_one(self):
        n, p = 25, 0.2
        ks = np.arange(0, n + 1)
        assert binomial_pmf(ks, n, np.full(ks.shape, p)).sum() == pytest.approx(1.0)

    def test_outside_support_is_zero(self):
        assert binomial_pmf(np.array([-1.0]), 10, np.array([0.5]))[0] == 0.0
        assert binomial_pmf(np.array([11.0]), 10, np.array([0.5]))[0] == 0.0

    def test_degenerate_probabilities(self):
        assert binomial_pmf(
            np.array([0.0]),
            10,
            np.array([0.0]),
        )[0] == pytest.approx(1.0)
        assert binomial_pmf(np.array([3.0]), 10, np.array([0.0]))[0] == 0.0
        assert binomial_pmf(
            np.array([10.0]),
            10,
            np.array([1.0]),
        )[0] == pytest.approx(1.0)
        assert binomial_pmf(np.array([9.0]), 10, np.array([1.0]))[0] == 0.0

    def test_log_pmf_no_nans(self):
        ks = np.array([0.0, 5.0, 10.0])
        ps = np.array([0.0, 0.5, 1.0])
        out = binomial_log_pmf(ks, 10, ps)
        assert not np.any(np.isnan(out))

    def test_non_integer_k_between_neighbors(self):
        # The Gamma generalisation should interpolate smoothly.
        n, p = 20, 0.4
        val = binomial_pmf(np.array([7.5]), n, np.array([p]))[0]
        lo = scipy_stats.binom.pmf(7, n, p)
        hi = scipy_stats.binom.pmf(8, n, p)
        assert min(lo, hi) * 0.5 < val < max(lo, hi) * 1.5


class TestBinomialMode:
    def test_matches_argmax_of_pmf(self):
        for n, p in [(20, 0.3), (50, 0.71), (7, 0.5), (10, 0.05)]:
            ks = np.arange(0, n + 1)
            pmf = scipy_stats.binom.pmf(ks, n, p)
            expected_mode = ks[np.argmax(pmf)]
            ours = binomial_mode(n, np.array([p]))[0]
            # Mode ties can differ by one; the pmf values must match.
            assert scipy_stats.binom.pmf(ours, n, p) == pytest.approx(
                scipy_stats.binom.pmf(expected_mode, n, p), rel=1e-9
            )

    def test_clipped_to_support(self):
        assert binomial_mode(10, np.array([1.0]))[0] == 10.0
        assert binomial_mode(10, np.array([0.0]))[0] == 0.0


def _gammaln_coefficient(k, n):
    """The reference expression the coefficient table is built from."""
    k = np.asarray(k, dtype=np.float64)
    n = float(n)
    with np.errstate(divide="ignore", invalid="ignore"):
        return (
            special.gammaln(n + 1.0)
            - special.gammaln(k + 1.0)
            - special.gammaln(n - k + 1.0)
        )


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestBinomialLogCoefficient:
    """Integer counts read a per-``n`` table; the bits never change."""

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(0, 1000),
        ks=st.lists(st.floats(0.0, 1.0), min_size=0, max_size=40),
    )
    def test_integer_counts_equal_the_gammaln_expression(self, n, ks):
        k = np.floor(np.asarray(ks, dtype=np.float64) * (n + 1)).clip(0, n)
        assert _same_bits(binomial_log_coefficient(k, n), _gammaln_coefficient(k, n))

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(0, 1000),
        ks=st.lists(
            st.one_of(
                st.integers(-5, 1005).map(float),
                st.floats(-5.0, 1005.0),
                st.sampled_from([np.nan, np.inf, -np.inf, -0.0]),
            ),
            min_size=1,
            max_size=40,
        ),
    )
    def test_mixed_arrays_take_the_fallback_with_the_same_bits(self, n, ks):
        k = np.asarray(ks, dtype=np.float64)
        assert _same_bits(binomial_log_coefficient(k, n), _gammaln_coefficient(k, n))

    def test_full_support_and_scalars(self):
        k = np.arange(301, dtype=np.float64)
        got = binomial_log_coefficient(k, 300)
        assert _same_bits(got, _gammaln_coefficient(k, 300))
        for value in (0.0, 7.0, 300.0, 7.5, 301.0):
            got = binomial_log_coefficient(np.float64(value), 300)
            assert type(got) is type(_gammaln_coefficient(value, 300))
            assert _same_bits(got, _gammaln_coefficient(value, 300))

    @pytest.mark.parametrize("n", [40.5, -3.0, float(2**17)])
    def test_untabled_n_uses_the_expression(self, n):
        k = np.arange(5, dtype=np.float64)
        assert _same_bits(binomial_log_coefficient(k, n), _gammaln_coefficient(k, n))

    def test_result_keeps_the_expression_layout(self):
        """Downstream reductions sum in memory order, so the gathered
        result must have the strides the expression's output has."""
        rng = np.random.default_rng(3)
        base = rng.integers(0, 41, size=(6, 5, 4)).astype(np.float64)
        views = [
            base,
            np.asfortranarray(base),
            base.transpose(1, 2, 0),
            base[:, ::2, 1:],
            np.broadcast_to(base[:1], base.shape),
            np.broadcast_to(base[:, :1], base.shape),
        ]
        for view in views:
            got = binomial_log_coefficient(view, 40)
            want = _gammaln_coefficient(view, 40)
            assert got.strides == want.strides
            assert _same_bits(got, want)
            assert got.flags.writeable
