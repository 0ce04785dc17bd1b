"""Statistical helpers: percentiles, binomial pmfs and ROC bookkeeping.

The LAD detection pipeline only needs a small number of statistical
primitives, but they sit on the hot path (they are evaluated for every
victim and every candidate threshold), so they are implemented as
vectorised NumPy kernels rather than per-sample Python code.
"""

from __future__ import annotations

import functools
from typing import Optional, Tuple

import numpy as np
from scipy import special

from repro.utils.validation import check_probability

__all__ = [
    "empirical_percentile",
    "rates_from_scores",
    "roc_points",
    "binomial_pmf",
    "binomial_log_pmf",
    "binomial_log_coefficient",
    "binomial_mode",
]


def empirical_percentile(samples: np.ndarray, tau: float) -> float:
    """Return the ``tau``-quantile of *samples* (``tau`` in [0, 1]).

    This is the paper's threshold-selection rule (Section 5.5): during
    training, the detection threshold is the value below which ``τ`` percent
    of the benign metric results fall; ``1 − τ`` is the nominal
    false-positive rate.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size == 0:
        raise ValueError("cannot take a percentile of an empty sample")
    check_probability("tau", tau)
    return float(np.quantile(samples, tau, method="linear"))


def rates_from_scores(
    benign_scores: np.ndarray,
    attacked_scores: np.ndarray,
    threshold: float,
) -> Tuple[float, float]:
    """Return ``(false_positive_rate, detection_rate)`` at a given threshold.

    A sample raises an alarm when its score is *strictly greater* than the
    threshold (scores follow the convention "larger = more anomalous").
    """
    benign_scores = np.asarray(benign_scores, dtype=np.float64)
    attacked_scores = np.asarray(attacked_scores, dtype=np.float64)
    fp = float(np.mean(benign_scores > threshold)) if benign_scores.size else 0.0
    dr = float(np.mean(attacked_scores > threshold)) if attacked_scores.size else 0.0
    return fp, dr


def roc_points(
    benign_scores: np.ndarray,
    attacked_scores: np.ndarray,
    num_thresholds: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Compute an ROC curve by sweeping the detection threshold.

    Parameters
    ----------
    benign_scores, attacked_scores:
        Anomaly scores of benign and attacked samples (larger = more
        anomalous).
    num_thresholds:
        When given, the thresholds are ``num_thresholds`` evenly spaced
        quantiles of the pooled scores; otherwise every distinct pooled score
        is used (exact ROC).

    Returns
    -------
    thresholds, fp_rates, detection_rates:
        Arrays sorted by increasing false-positive rate.
    """
    benign_scores = np.asarray(benign_scores, dtype=np.float64).ravel()
    attacked_scores = np.asarray(attacked_scores, dtype=np.float64).ravel()
    if benign_scores.size == 0:
        raise ValueError("need at least one benign score to build an ROC curve")
    if attacked_scores.size == 0:
        raise ValueError("need at least one attacked score to build an ROC curve")
    pooled = np.concatenate([benign_scores, attacked_scores])

    if num_thresholds is None:
        candidates = np.unique(pooled)
    else:
        qs = np.linspace(0.0, 1.0, int(num_thresholds))
        candidates = np.unique(np.quantile(pooled, qs))
    # Add sentinels so the curve spans (0, 0) .. (1, 1).
    lo = candidates[0] - 1.0
    hi = candidates[-1] + 1.0
    thresholds = np.concatenate([[lo], candidates, [hi]])

    # Vectorised alarm counting: for each threshold, the number of samples
    # whose score exceeds it.  ``searchsorted`` on the sorted scores gives
    # the count of scores <= threshold in O(log n) per threshold.
    benign_sorted = np.sort(benign_scores)
    attacked_sorted = np.sort(attacked_scores)
    fp = 1.0 - np.searchsorted(
        benign_sorted,
        thresholds,
        side="right",
    ) / benign_sorted.size
    dr = 1.0 - np.searchsorted(
        attacked_sorted,
        thresholds,
        side="right",
    ) / attacked_sorted.size

    # Sort by (false-positive rate, detection rate) so ties in FP caused by
    # distinct thresholds still yield a non-decreasing detection-rate curve.
    order = np.lexsort((dr, fp))
    return thresholds[order], fp[order], dr[order]


#: Largest ``n`` whose log-coefficients are tabulated (512 KiB per table).
_TABLE_LIMIT = 1 << 16


def _log_coefficient_expression(k: np.ndarray, n: float) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        return (
            special.gammaln(n + 1.0)
            - special.gammaln(k + 1.0)
            - special.gammaln(n - k + 1.0)
        )


@functools.lru_cache(maxsize=16)
def _log_coefficient_table(n: float) -> Optional[np.ndarray]:
    """The expression at ``k = 0 … n``, or ``None`` unless ``n`` is a small count."""
    if not (n.is_integer() and 0.0 <= n <= _TABLE_LIMIT):
        return None
    table = _log_coefficient_expression(np.arange(int(n) + 1, dtype=np.float64), n)
    table.flags.writeable = False
    return table


def binomial_log_coefficient(k: np.ndarray, n: float) -> np.ndarray:
    """Log of the (Gamma-generalised) binomial coefficient ``log C(n, k)``.

    This is the observation-only part of :func:`binomial_log_pmf`: it does
    not depend on the success probability, so batched likelihood kernels
    evaluate it once per observation instead of once per
    ``(observation, candidate)`` pair — ``gammaln`` is by far the most
    expensive term of the pmf.

    When every ``k`` is an integer in ``[0, n]`` (neighbour counts always
    are), the values are gathered from a table cached per ``n``: the same
    ``gammaln`` expression evaluated once at ``0 … n``.  The expression is
    element-wise, so each entry carries the bits the expression gives that
    ``k``, and the gather returns them in the layout the expression's
    output would have.  Any other call — fractional (tainted) counts,
    values outside the support, NaN, or an ``n`` that is not a count up to
    ``2**16`` — evaluates the expression.
    """
    k = np.asarray(k, dtype=np.float64)
    n = float(n)
    table = _log_coefficient_table(n)
    if table is not None:
        # NaN, infinities, fractions and values outside [0, n] do not
        # survive flooring and clamping unchanged.  The index is a ufunc
        # output like the expression's, so the gather keeps its layout
        # (reductions downstream sum in memory order).
        whole = np.minimum(np.maximum(np.floor(k), 0.0), n)
        if (whole == k).all():
            return table[whole.astype(np.intp)]
    return _log_coefficient_expression(k, n)


def binomial_log_pmf(k: np.ndarray, n: float, p: np.ndarray) -> np.ndarray:
    """Log of the binomial pmf ``P(X = k)`` with ``X ~ Binomial(n, p)``.

    Vectorised and numerically safe: ``p`` values of exactly 0 or 1 are
    handled without producing NaNs, and non-integer ``k`` (the attacked
    observations can be real-valued) uses the natural Gamma-function
    generalisation of the binomial coefficient.
    """
    k = np.asarray(k, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    n = float(n)
    k, p = np.broadcast_arrays(k, p)

    with np.errstate(divide="ignore", invalid="ignore"):
        log_coeff = binomial_log_coefficient(k, n)
        log_p = np.where(k > 0, k * np.log(np.where(p > 0, p, 1.0)), 0.0)
        log_q = np.where(
            n - k > 0, (n - k) * np.log(np.where(p < 1, 1.0 - p, 1.0)), 0.0
        )
        out = log_coeff + log_p + log_q

    # Outside the support the probability is zero.
    invalid = (k < 0) | (k > n)
    out = np.where(invalid, -np.inf, out)
    # p == 0 forces X == 0, p == 1 forces X == n.
    out = np.where((p <= 0) & (k > 0), -np.inf, out)
    out = np.where((p >= 1) & (k < n), -np.inf, out)
    return out


def binomial_pmf(k: np.ndarray, n: float, p: np.ndarray) -> np.ndarray:
    """Binomial pmf ``P(X = k)`` with ``X ~ Binomial(n, p)`` (vectorised)."""
    return np.exp(binomial_log_pmf(k, n, p))


def binomial_mode(n: float, p: np.ndarray) -> np.ndarray:
    """Most probable value of a ``Binomial(n, p)`` variable.

    The mode is ``floor((n + 1) p)`` (with the convention that ties are
    resolved downwards), clipped to the support ``[0, n]``.  The greedy
    adversary against the Probability metric drives each observation toward
    this value.
    """
    p = np.asarray(p, dtype=np.float64)
    mode = np.floor((float(n) + 1.0) * p)
    return np.clip(mode, 0.0, float(n))
