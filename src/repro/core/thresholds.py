"""Detection-threshold derivation (paper Section 5.5).

Thresholds are obtained by training: the metric is evaluated on benign
simulated deployments, and the threshold is the ``τ``-percentile of the
resulting score distribution, so that a fraction ``1 − τ`` of benign samples
would (nominally) raise a false alarm.
"""

from __future__ import annotations

import numpy as np

from repro.utils.stats import empirical_percentile
from repro.utils.validation import check_probability

__all__ = ["derive_threshold"]


def derive_threshold(benign_scores: np.ndarray, tau: float = 0.99) -> float:
    """The ``τ``-percentile detection threshold of a benign score sample.

    Parameters
    ----------
    benign_scores:
        Metric values computed on benign training data (no attacks).
    tau:
        Fraction of benign samples that must stay below the threshold;
        ``1 − tau`` is the nominal false-positive rate.
    """
    check_probability("tau", tau)
    return empirical_percentile(np.asarray(benign_scores, dtype=np.float64), tau)
