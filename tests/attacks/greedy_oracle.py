"""Per-row reference oracle for :class:`repro.attacks.greedy.GreedyMetricMinimizer`.

:meth:`GreedyMetricMinimizer.taint_batch` runs every metric over a whole
``(k, n_groups)`` batch at once; for the Probability metric that is a
lock-step greedy with a masked ``argmin`` per step.  This module keeps the
textbook one-victim-at-a-time procedure the batch must reproduce bit for
bit: re-evaluate every group's log-pmf, walk the groups in stable
ascending order, and lower the first one still above its mode.  The tests
and the ``taint_batch_probability`` benchmark compare against it.
"""

from __future__ import annotations

import numpy as np

from repro.attacks.greedy import GreedyMetricMinimizer
from repro.core.metrics import DiffMetric, ProbabilityMetric
from repro.utils.stats import binomial_log_pmf, binomial_mode


def sequential_probability_greedy(
    honest: np.ndarray,
    expected: np.ndarray,
    budget: float,
    group_size: int,
    *,
    allows_increase: bool,
) -> np.ndarray:
    """The Probability-metric greedy for one victim, one node per iteration."""
    m = float(group_size)
    probs = np.clip(expected / m, 0.0, 1.0)
    modes = binomial_mode(m, probs)

    o = honest.astype(np.float64).copy()
    if allows_increase:
        o = np.where(modes > o, modes, o)

    remaining = budget
    while remaining > 0:
        log_pmf = binomial_log_pmf(o, m, probs)
        # Stable order: equal log-probabilities go to the lowest index.
        for idx in np.argsort(log_pmf, kind="stable"):
            if o[idx] > modes[idx] and o[idx] > 0:
                step = min(1.0, o[idx] - modes[idx], remaining)
                o[idx] -= step
                remaining -= step
                break
        else:
            break
    return o


def oracle_taint(
    adversary: GreedyMetricMinimizer,
    honest: np.ndarray,
    expected: np.ndarray,
    budget,
    *,
    group_size=None,
) -> np.ndarray:
    """One victim's taint without going through :meth:`taint_batch`.

    The Probability metric runs :func:`sequential_probability_greedy`; the
    Diff and Add-all metrics run their shape-generic strategies on the
    single row.
    """
    a = np.asarray(honest, dtype=np.float64)
    mu = np.asarray(expected, dtype=np.float64)
    x = float(int(budget))
    if isinstance(adversary.metric, ProbabilityMetric):
        return sequential_probability_greedy(
            a,
            mu,
            x,
            int(group_size),
            allows_increase=adversary.attack_class.allows_increase,
        )
    if isinstance(adversary.metric, DiffMetric):
        return adversary._taint_diff(a, mu, x, group_size)
    return adversary._taint_add_all(a, mu, x)


def oracle_taint_batch(
    adversary: GreedyMetricMinimizer,
    honest: np.ndarray,
    expected: np.ndarray,
    budgets,
    *,
    group_size=None,
) -> np.ndarray:
    """Stack :func:`oracle_taint` over the rows of a batch."""
    return np.vstack(
        [
            oracle_taint(adversary, h, e, b, group_size=group_size)
            for h, e, b in zip(honest, expected, budgets)
        ]
    )
