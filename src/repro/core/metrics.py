"""The three LAD anomaly metrics (paper Sections 5.2–5.4).

All metrics follow the convention **larger score = more anomalous**, so a
single thresholding rule ("alarm when score > threshold") applies uniformly:

* :class:`DiffMetric` — ``DM = Σ_i |o_i − µ_i|`` (Section 5.2);
* :class:`AddAllMetric` — ``AM = Σ_i max(o_i, µ_i)`` (Section 5.3);
* :class:`ProbabilityMetric` — the paper raises an alarm when the *smallest*
  per-group binomial probability ``Pr(X_i = o_i | L_e)`` falls below a
  threshold (Section 5.4); to keep the "larger = worse" convention the score
  is the negative log of that smallest probability, which is a monotone
  transform and therefore yields identical detection decisions and ROC
  curves.

Every metric exposes a vectorised ``compute`` over batches of
``(observation, expected)`` rows, and ``score``, which takes a
:class:`~repro.deployment.knowledge.DeploymentKnowledge` and locations and
is the one path that turns claims into scores.
"""

from __future__ import annotations

import abc
from typing import List, Optional, Union

import numpy as np

from repro.deployment.knowledge import DeploymentKnowledge
from repro.registry import Registry
from repro.utils.stats import binomial_log_pmf

__all__ = [
    "AnomalyMetric",
    "DiffMetric",
    "AddAllMetric",
    "ProbabilityMetric",
    "METRICS",
    "resolve_metric",
    "ALL_METRICS",
]

#: Registry of anomaly metrics; third-party metrics plug in with
#: ``@METRICS.register(...)`` (also exposed as :func:`repro.metrics.register`).
METRICS = Registry("metric")


def _as_batches(
    observations: np.ndarray,
    expected: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, bool]:
    """Normalise observation/expected inputs to matching 2-D batches."""
    obs = np.asarray(observations, dtype=np.float64)
    exp = np.asarray(expected, dtype=np.float64)
    single = obs.ndim == 1
    if obs.ndim == 1:
        obs = obs[None, :]
    if exp.ndim == 1:
        exp = exp[None, :]
    if exp.shape[0] == 1 and obs.shape[0] > 1:
        exp = np.broadcast_to(exp, obs.shape)
    if obs.shape != exp.shape:
        raise ValueError(
            f"observations {obs.shape} and expected {exp.shape} are incompatible"
        )
    return obs, exp, single


class AnomalyMetric(abc.ABC):
    """Base class of the LAD inconsistency metrics."""

    #: Canonical short name used in configs, reports and the CLI.
    name: str = "abstract"

    #: Name used in the paper's figures.
    paper_name: str = "abstract"

    @abc.abstractmethod
    def compute(
        self,
        observations: np.ndarray,
        expected: np.ndarray,
        group_size: Optional[int] = None,
    ) -> Union[float, np.ndarray]:
        """Anomaly scores for ``(observation, expected)`` batches.

        Parameters
        ----------
        observations:
            Observation vectors, shape ``(n_groups,)`` or ``(k, n_groups)``.
        expected:
            Matching expected observations ``µ``.
        group_size:
            Sensors per group ``m``; only the Probability metric needs it.

        Returns
        -------
        A scalar for single inputs, otherwise an array of shape ``(k,)``.
        """

    def score(
        self,
        knowledge: DeploymentKnowledge,
        locations,
        observations: np.ndarray,
    ) -> np.ndarray:
        """Score *observations* against the expectations at *locations*.

        This is the one batch-scoring path: benign training scores, the
        temporal engine's benign epochs and every served claim go through
        it.  (Attacked scores call ``compute`` on the ``µ`` the attack
        already evaluated at the spoofed locations.)  Returns float64
        scores, shape ``(k,)`` for a batch.
        """
        expected = knowledge.expected_observation(locations)
        return np.asarray(
            self.compute(observations, expected, group_size=knowledge.group_size),
            dtype=np.float64,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


@METRICS.register("difference", "dm")
class DiffMetric(AnomalyMetric):
    """The Difference metric ``DM = Σ_i |o_i − µ_i|`` (Section 5.2)."""

    name = "diff"
    paper_name = "Diff Metric"

    def compute(self, observations, expected, group_size=None):
        obs, exp, single = _as_batches(observations, expected)
        scores = np.abs(obs - exp).sum(axis=1)
        return float(scores[0]) if single else scores


@METRICS.register("addall", "am")
class AddAllMetric(AnomalyMetric):
    """The Add-all metric ``AM = Σ_i max(o_i, µ_i)`` (Section 5.3).

    Intuition: the union of the observation expected at the claimed location
    and the observation actually made contains many neighbours when the two
    locations are far apart (the union covers both neighbourhoods), and only
    slightly more than either alone when they are close.
    """

    name = "add_all"
    paper_name = "Add All Metric"

    def compute(self, observations, expected, group_size=None):
        obs, exp, single = _as_batches(observations, expected)
        scores = np.maximum(obs, exp).sum(axis=1)
        return float(scores[0]) if single else scores


@METRICS.register("prob", "pm")
class ProbabilityMetric(AnomalyMetric):
    """The Probability metric (Section 5.4).

    For each group the probability of seeing exactly ``o_i`` neighbours out
    of ``m`` is ``Binomial(o_i; m, g_i(L_e))``.  The paper alarms when the
    *minimum* of these probabilities falls below a (small) threshold; the
    score reported here is ``−log(min_i Pr(X_i = o_i | L_e))`` so that larger
    scores mean "more anomalous" like the other metrics.  Because the
    transform is strictly monotone, thresholding the score at ``−log(p)`` is
    exactly equivalent to thresholding the probability at ``p``, and the ROC
    curves are unchanged.
    """

    name = "probability"
    paper_name = "Probability Metric"

    #: Scores are clipped to this value when the minimum probability is zero
    #: (e.g. observing a neighbour from a group whose membership probability
    #: rounds to zero at the claimed location).
    max_score: float = 745.0  # -log of the smallest positive double

    def compute(self, observations, expected, group_size=None):
        if group_size is None:
            raise ValueError("the Probability metric requires group_size (m)")
        obs, exp, single = _as_batches(observations, expected)
        m = float(group_size)
        probs = np.clip(exp / m, 0.0, 1.0)
        log_pmf = binomial_log_pmf(obs, m, probs)
        min_log = log_pmf.min(axis=1)
        scores = np.minimum(-min_log, self.max_score)
        return float(scores[0]) if single else scores

    def min_probability(
        self, observations, expected, group_size: int
    ) -> Union[float, np.ndarray]:
        """The raw paper-form statistic ``min_i Pr(X_i = o_i | L_e)``."""
        scores = self.compute(observations, expected, group_size=group_size)
        return np.exp(-np.asarray(scores)) if not np.isscalar(scores) else float(
            np.exp(-scores)
        )


#: All metrics studied in the paper, in the order of Figure 4.
ALL_METRICS: List[AnomalyMetric] = [DiffMetric(), AddAllMetric(), ProbabilityMetric()]


def resolve_metric(metric: Union[str, AnomalyMetric]) -> AnomalyMetric:
    """Resolve a metric name through :data:`METRICS` (instances pass through)."""
    return METRICS.resolve(metric)
