"""The greedy metric-minimising adversary (paper Section 7.1).

After displacing the victim's estimated location, the adversary taints the
victim's observation so that the chosen detection metric becomes as small as
possible, subject to the constraints of the attack class (Dec-Bounded or
Dec-Only).  The paper sketches the procedure for the Diff metric under
Dec-Bounded attacks; this module implements the analogous optimal/greedy
procedure for every (attack class x metric) combination:

* **Diff metric** — entries with ``µ_i > a_i`` are raised to ``µ_i`` for free
  (Dec-Bounded only); entries with ``a_i > µ_i`` are lowered toward ``µ_i``
  using the shared decrease budget.  Every unit of decrease reduces the
  metric by exactly one, so the allocation order does not affect the final
  metric value; the implementation spends the budget on the largest
  discrepancies first (deterministic and what a rational adversary would do
  if interrupted).
* **Add-all metric** — raising an entry can never lower ``Σ max(o_i, µ_i)``,
  so both attack classes reduce to the same decrease-allocation problem as
  the Diff metric's second stage.
* **Probability metric** — each per-group binomial pmf is unimodal in
  ``o_i`` with mode ``⌊(m+1)·g_i⌋``; the adversary pushes every entry toward
  its mode (free increases under Dec-Bounded) and then spends the decrease
  budget one node at a time on whichever group currently has the smallest
  probability, stopping when the minimum can no longer be improved.  A
  batch of victims steps in lock-step: each step is one masked ``argmin``
  over the rows that can still progress (groups not above their mode are
  keyed ``+inf``), moves one column per row by
  ``min(1, o_i − mode_i, remaining)``, and recomputes only that column's
  log-pmf.  Ties go to the lowest group index.

The tie rule replaced the order of an unstable ``np.argsort``, which for
100 groups is not index order.  The two rules pick different groups only
when several groups share the smallest log-probability; in practice these
are groups with ``µ_i = 0`` that the observation still counts (log-pmf
``−inf``).  Such a group stays at ``−inf`` until it reaches its mode 0, so
the greedy clears every one of them before it touches a finite group,
whatever their order.  If the budget clears them all, the end state is the
same under either rule; if it does not, some group stays at ``−inf`` and
the score clips to :attr:`ProbabilityMetric.max_score` either way.  The
Probability score is therefore unchanged, and so are the keys of the
cached ``attacked_scores`` and ``temporal`` artifacts, which store scores
rather than tainted observations.

The tainted observations are real-valued: the paper's greedy sets
``o_i = µ_i`` exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from repro.attacks.base import AttackBudget
from repro.attacks.constraints import AttackClass, resolve_attack_class
from repro.core.metrics import (
    AddAllMetric,
    AnomalyMetric,
    DiffMetric,
    ProbabilityMetric,
    resolve_metric,
)
from repro.utils.stats import binomial_log_pmf, binomial_mode

__all__ = ["GreedyMetricMinimizer", "taint_observation"]


def _allocate_decreases(
    honest: np.ndarray, targets: np.ndarray, budget
) -> np.ndarray:
    """Lower entries of *honest* toward *targets* spending at most *budget*.

    Entries where ``honest <= target`` are untouched.  The budget is spent on
    the largest gaps first; the final entry touched may receive a fractional
    decrease so that the full budget is used exactly when it is binding.

    Vectorised over victims: *honest*/*targets* may be ``(n,)`` vectors with
    a scalar budget or ``(k, n)`` batches with one budget per row.  Both
    shapes run the identical numpy operations row-wise (stable descending
    sort, exclusive prefix sums, clipped spends), so the batch result is
    bit-for-bit the stack of the per-row results.
    """
    honest = np.asarray(honest, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    single = honest.ndim == 1
    o = np.atleast_2d(honest)
    t = np.atleast_2d(targets)
    b = np.asarray(budget, dtype=np.float64).reshape(-1, 1)
    gaps = np.clip(o - t, 0.0, None)
    totals = gaps.sum(axis=1, keepdims=True)

    # Rows with enough budget close every gap completely (exactly to the
    # target); rows without any budget stay honest.
    out = np.where((totals <= b) & (gaps > 0), t, o)

    binding = ((totals > b) & (b > 0)).ravel()
    if np.any(binding):
        gaps_b = gaps[binding]
        order = np.argsort(-gaps_b, axis=1, kind="stable")
        sorted_gaps = np.take_along_axis(gaps_b, order, axis=1)
        # Exclusive prefix sum: budget remaining before each rank is spent.
        spent_before = np.concatenate(
            [
                np.zeros((sorted_gaps.shape[0], 1)),
                np.cumsum(sorted_gaps, axis=1)[:, :-1],
            ],
            axis=1,
        )
        remaining = b[binding] - spent_before
        spends_sorted = np.clip(np.minimum(sorted_gaps, remaining), 0.0, None)
        spends = np.empty_like(spends_sorted)
        np.put_along_axis(spends, order, spends_sorted, axis=1)
        out[binding] = o[binding] - spends
    return out[0] if single else out


@dataclass
class GreedyMetricMinimizer:
    """Adversary that taints an observation to minimise a detection metric.

    Parameters
    ----------
    metric:
        The detection metric the adversary is trying to evade (name or
        instance).
    attack_class:
        ``"dec_bounded"`` or ``"dec_only"`` (name or instance).
    """

    metric: Union[str, AnomalyMetric] = "diff"
    attack_class: Union[str, AttackClass] = "dec_bounded"

    def __post_init__(self) -> None:
        self.metric = resolve_metric(self.metric)
        self.attack_class = resolve_attack_class(self.attack_class)

    # -- public API ----------------------------------------------------------

    def taint(
        self,
        honest_observation: np.ndarray,
        expected_observation: np.ndarray,
        budget: Union[AttackBudget, int],
        *,
        group_size: Optional[int] = None,
    ) -> np.ndarray:
        """Return the metric-minimising tainted observation for one victim.

        The one-row case of :meth:`taint_batch`.

        Parameters
        ----------
        honest_observation:
            The victim's untainted observation ``a``.
        expected_observation:
            The expected observation ``µ`` at the (spoofed) estimated
            location.
        budget:
            Number of compromised nodes in the victim's neighbourhood.
        group_size:
            Sensors per group ``m``; required by the Probability metric and
            used as the physical upper bound on any count.
        """
        a = np.asarray(honest_observation, dtype=np.float64)
        mu = np.asarray(expected_observation, dtype=np.float64)
        if a.shape != mu.shape or a.ndim != 1:
            raise ValueError("observations must be matching 1-D vectors")
        return self.taint_batch(a[None], mu[None], [budget], group_size=group_size)[0]

    def taint_batch(
        self,
        honest_observations: np.ndarray,
        expected_observations: np.ndarray,
        budgets: Sequence[Union[AttackBudget, int]],
        *,
        group_size: Optional[int] = None,
    ) -> np.ndarray:
        """Taint a whole batch of victims at once.

        Every metric runs over all victims together with per-row budgets:
        the Diff and Add-all metrics as one 2-D :func:`_allocate_decreases`,
        the Probability metric as the lock-step greedy of
        :meth:`_taint_probability`.  Each row is bit-for-bit what the
        greedy computes for that victim alone.
        """
        honest = np.asarray(honest_observations, dtype=np.float64)
        expected = np.asarray(expected_observations, dtype=np.float64)
        if honest.ndim != 2 or honest.shape != expected.shape:
            raise ValueError("batch inputs must be matching (k, n_groups) arrays")
        if len(budgets) != honest.shape[0]:
            raise ValueError("need one budget per victim")
        x = np.array([float(int(b)) for b in budgets], dtype=np.float64)

        if isinstance(self.metric, DiffMetric):
            return self._taint_diff(honest, expected, x, group_size)
        if isinstance(self.metric, AddAllMetric):
            return self._taint_add_all(honest, expected, x)
        if isinstance(self.metric, ProbabilityMetric):
            if group_size is None:
                raise ValueError("group_size is required for the Probability metric")
            return self._taint_probability(honest, expected, x, int(group_size))
        return honest.copy()  # pragma: no cover - future metrics: no taint

    # -- per-metric strategies ------------------------------------------------

    def _taint_diff(
        self, a: np.ndarray, mu: np.ndarray, x, group_size: Optional[int]
    ) -> np.ndarray:
        """Diff-metric taint; shape-generic (one victim or a ``(k, n)`` batch)."""
        if self.attack_class.allows_increase:
            # Free increases: match mu wherever the honest count is short.
            upper = float(group_size) if group_size is not None else np.inf
            o = np.where(mu > a, np.minimum(mu, upper), a.astype(np.float64))
        else:
            o = a.astype(np.float64).copy()
        return _allocate_decreases(o, np.minimum(mu, o), x)

    def _taint_add_all(self, a: np.ndarray, mu: np.ndarray, x) -> np.ndarray:
        # Increases never help; only decreases toward mu matter.
        # Shape-generic like _taint_diff.
        return _allocate_decreases(a.astype(np.float64), np.minimum(mu, a), x)

    def _taint_probability(
        self, a: np.ndarray, mu: np.ndarray, x, group_size: int
    ) -> np.ndarray:
        """Probability-metric taint; shape-generic like :meth:`_taint_diff`.

        All rows step in lock-step (see the module docstring): one masked
        ``argmin`` per step over the rows that can still progress, after
        which only the moved column of each row gets a fresh log-pmf.
        """
        single = a.ndim == 1
        m = float(group_size)
        probs = np.clip(np.atleast_2d(mu) / m, 0.0, 1.0)
        modes = binomial_mode(m, probs)

        o = np.atleast_2d(a).astype(np.float64)
        if self.attack_class.allows_increase:
            o = np.where(modes > o, modes, o)
        remaining = np.full(o.shape[0], x, dtype=np.float64)

        # Only a group above its mode can move toward it (modes are
        # non-negative, so such a group still has a node to remove).
        eligible = o > modes
        key = np.where(eligible, binomial_log_pmf(o, m, probs), np.inf)
        rows = np.flatnonzero((remaining > 0) & eligible.any(axis=1))
        while rows.size:
            # argmin returns the first minimum: ties go to the lowest index.
            cols = np.argmin(key[rows], axis=1)
            # A row whose minimum is ineligible has nothing left to lower.
            movable = eligible[rows, cols]
            rows, cols = rows[movable], cols[movable]
            if not rows.size:
                break
            step = np.minimum(
                np.minimum(1.0, o[rows, cols] - modes[rows, cols]), remaining[rows]
            )
            o[rows, cols] -= step
            remaining[rows] -= step
            moved = o[rows, cols]
            still = moved > modes[rows, cols]
            eligible[rows, cols] = still
            key[rows, cols] = np.where(
                still, binomial_log_pmf(moved, m, probs[rows, cols]), np.inf
            )
            rows = rows[remaining[rows] > 0]
        return o[0] if single else o


def taint_observation(
    honest_observation: np.ndarray,
    expected_observation: np.ndarray,
    budget: Union[AttackBudget, int],
    *,
    metric: Union[str, AnomalyMetric] = "diff",
    attack_class: Union[str, AttackClass] = "dec_bounded",
    group_size: Optional[int] = None,
) -> np.ndarray:
    """Functional one-shot wrapper around :class:`GreedyMetricMinimizer`."""
    adversary = GreedyMetricMinimizer(metric=metric, attack_class=attack_class)
    return adversary.taint(
        honest_observation, expected_observation, budget, group_size=group_size
    )
