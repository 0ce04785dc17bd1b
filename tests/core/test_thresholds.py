"""Tests for :mod:`repro.core.thresholds`."""

import numpy as np
import pytest

from repro.core.thresholds import derive_threshold


class TestDeriveThreshold:
    def test_percentile_semantics(self):
        scores = np.arange(1000, dtype=float)
        thr = derive_threshold(scores, tau=0.99)
        # About 1% of benign samples exceed the threshold.
        assert float(np.mean(scores > thr)) == pytest.approx(0.01, abs=0.002)

    def test_interpolates_between_order_statistics(self):
        # τ = 0.9 of the way through 0..99 lies a tenth past 89.
        scores = np.arange(100, dtype=float)
        assert derive_threshold(scores, tau=0.9) == pytest.approx(89.1)

    def test_tau_one_is_max(self):
        scores = np.array([3.0, 9.0, 1.0])
        assert derive_threshold(scores, 1.0) == 9.0

    def test_monotone_in_tau(self):
        rng = np.random.default_rng(0)
        scores = rng.normal(size=500)
        taus = [0.5, 0.9, 0.99, 0.999]
        thrs = [derive_threshold(scores, t) for t in taus]
        assert all(a <= b for a, b in zip(thrs, thrs[1:]))

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            derive_threshold(np.array([]), 0.9)
        with pytest.raises(ValueError):
            derive_threshold(np.array([1.0]), 1.5)
