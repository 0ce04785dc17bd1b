"""Detection-rate / false-positive evaluation under attack (Section 7.1).

This module implements the paper's evaluation procedure as reusable
building blocks:

1. pick victim nodes from a deployed network and record their honest
   observations ``a`` and actual locations ``L_a``;
2. simulate a localization attack of degree ``D`` by drawing the spoofed
   estimated location ``L_e`` uniformly at distance ``D`` from ``L_a``;
3. taint each victim's observation with the greedy adversary (given the
   attack class, the detection metric under evaluation, and the fraction
   ``x`` of compromised neighbours);
4. score the tainted ``(L_e, o)`` pairs with the detection metric.

The resulting attacked scores, combined with benign scores from
:mod:`repro.core.training`, yield ROC curves and detection rates at a fixed
false-positive budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, List, Union

import numpy as np

from repro.core.metrics import AnomalyMetric, resolve_metric
from repro.core.roc import RocCurve, compute_roc
from repro.core.thresholds import derive_threshold
from repro.core.verdict import Verdict, verdicts_from_scores
from repro.deployment.knowledge import DeploymentKnowledge
from repro.utils.rng import as_generator
from repro.utils.validation import check_fraction, check_positive

if TYPE_CHECKING:  # pragma: no cover - imported for type checkers only
    from repro.attacks.constraints import AttackClass

__all__ = [
    "DetectionOutcome",
    "attack_observations",
    "attacked_scores_from_observations",
    "evaluate_detection",
]


@dataclass(frozen=True, eq=False)
class DetectionOutcome:
    """Full result of one detection evaluation — the one operating-point record.

    :func:`evaluate_detection` builds it; :meth:`LadSession.outcome`
    returns it, and :meth:`SweepRunner.detection_rates` maps every sweep
    point to it.  Read the operating point by name (``.detection_rate``,
    ``.threshold``, ``.false_positive_rate``).  It also carries the
    underlying score samples and — via :meth:`verdicts` —
    the same per-decision :class:`~repro.core.verdict.Verdict` objects the
    online :class:`~repro.serving.DetectionService` emits, so offline and
    online decisions are comparable by construction.

    Attributes
    ----------
    benign_scores, attacked_scores:
        The underlying score samples.
    detection_rate:
        Detection rate at the requested false-positive budget.
    false_positive_rate:
        The false-positive budget the detection rate was read at.
    threshold:
        The threshold realising that operating point.
    metric:
        Canonical name of the metric that produced the scores (``""`` when
        the caller scored raw arrays without naming the metric).
    """

    benign_scores: np.ndarray
    attacked_scores: np.ndarray
    detection_rate: float
    false_positive_rate: float
    threshold: float
    metric: str = ""

    @cached_property
    def roc(self) -> RocCurve:
        """The full ROC curve over the score samples (computed lazily)."""
        return compute_roc(self.benign_scores, self.attacked_scores)

    def verdicts(self) -> List[Verdict]:
        """One :class:`Verdict` per attacked sample at this operating point.

        These are the batch path's per-decision records: the same dataclass
        (and the same ``score > threshold`` rule) the streaming
        :class:`~repro.serving.DetectionService` returns per claim.
        """
        return verdicts_from_scores(
            self.attacked_scores,
            threshold=self.threshold,
            metric=self.metric,
            false_positive_rate=self.false_positive_rate,
        )

    def __eq__(self, other):
        """Value equality, with the score arrays compared elementwise.

        The resumability tests compare whole ``{point: outcome}`` maps
        across warm/cold runs, so equality must be well-defined for the
        array fields (the generated dataclass ``==`` would raise on them).
        """
        if not isinstance(other, DetectionOutcome):
            return NotImplemented
        return (
            self.detection_rate == other.detection_rate
            and self.false_positive_rate == other.false_positive_rate
            and self.threshold == other.threshold
            and self.metric == other.metric
            and np.array_equal(self.benign_scores, other.benign_scores)
            and np.array_equal(self.attacked_scores, other.attacked_scores)
        )


def attacked_scores_from_observations(
    knowledge: DeploymentKnowledge,
    honest_observations: np.ndarray,
    actual_locations: np.ndarray,
    *,
    metric: Union[str, AnomalyMetric],
    attack_class: Union[str, "AttackClass"] = "dec_bounded",
    degree_of_damage: float = 120.0,
    compromised_fraction: float = 0.10,
    rng=None,
    localizer=None,
) -> np.ndarray:
    """Attacked anomaly scores from pre-computed honest observations.

    This is the inner loop of the evaluation procedure; it is split out so
    that parameter sweeps (many degrees of damage, many compromise levels)
    can reuse the same honest observations instead of re-running neighbour
    discovery for every parameter combination.

    Parameters
    ----------
    knowledge:
        Deployment knowledge shared by the victims.
    honest_observations:
        Honest observation vectors ``a``, shape ``(k, n_groups)``.
    actual_locations:
        The victims' actual locations ``L_a``, shape ``(k, 2)``.
    metric:
        The detection metric under evaluation (the greedy adversary
        minimises this same metric — the worst case for the defender).
    attack_class, degree_of_damage, compromised_fraction, rng, localizer:
        As in :func:`attack_observations`.
    """
    metric = resolve_metric(metric)
    tainted, spoofed, expected = attack_observations(
        knowledge,
        honest_observations,
        actual_locations,
        metric=metric,
        attack_class=attack_class,
        degree_of_damage=degree_of_damage,
        compromised_fraction=compromised_fraction,
        rng=rng,
        localizer=localizer,
    )
    scores = metric.compute(tainted, expected, group_size=knowledge.group_size)
    return np.asarray(scores, dtype=np.float64)


def attack_observations(
    knowledge: DeploymentKnowledge,
    honest_observations: np.ndarray,
    actual_locations: np.ndarray,
    *,
    metric: Union[str, AnomalyMetric],
    attack_class: Union[str, "AttackClass"] = "dec_bounded",
    degree_of_damage: float = 120.0,
    compromised_fraction: float = 0.10,
    rng=None,
    localizer=None,
):
    """Run one attack and return its raw claim material.

    Steps 2–3 of the evaluation procedure without the scoring step:
    spoof each victim's location at distance ``D`` and taint its
    observation with the greedy adversary.  Returns the triple
    ``(tainted_observations, spoofed_locations, expected_observations)``
    — the first two are exactly what a compromised node would submit to
    the online detector (see :meth:`LadSession.attacked_claims
    <repro.experiments.session.LadSession.attacked_claims>`), the third
    is the ``µ`` at the spoofed locations that scoring reuses.

    *localizer* is the localization scheme under attack (or ``None`` for
    the abstract D-attack).  The paper's Dec-* classes ignore it;
    modality-targeted classes (:mod:`repro.attacks.modality`) use it to
    gate their displacement — an RSSI amplifier displaces nothing under a
    hop-count scheme — and, because they attack the measurement channel
    rather than the neighbour protocol, skip the greedy observation taint
    entirely (``taints_observation = False``).
    """
    from repro.attacks.base import AttackBudget
    from repro.attacks.constraints import resolve_attack_class
    from repro.attacks.greedy import GreedyMetricMinimizer
    from repro.attacks.localization_attacks import DisplacementAttack

    metric = resolve_metric(metric)
    attack_class = resolve_attack_class(attack_class)
    check_positive("degree_of_damage", degree_of_damage, strict=False)
    check_fraction("compromised_fraction", compromised_fraction)
    generator = as_generator(rng)

    honest = np.asarray(honest_observations, dtype=np.float64)
    actual = np.asarray(actual_locations, dtype=np.float64)
    if honest.ndim != 2 or actual.shape != (honest.shape[0], 2):
        raise ValueError("honest_observations and actual_locations shapes disagree")

    damage = attack_class.effective_damage(degree_of_damage, localizer)
    displacement = DisplacementAttack(damage)
    spoofed = displacement.spoof_locations(
        actual, generator, region=knowledge.region
    )
    expected = knowledge.expected_observation(spoofed)
    if not attack_class.taints_observation:
        # Physical-layer adversary: the neighbour counts stay honest.
        return honest.copy(), spoofed, expected
    adversary = GreedyMetricMinimizer(metric=metric, attack_class=attack_class)
    budgets = [
        AttackBudget.from_fraction(int(round(count)), compromised_fraction)
        for count in honest.sum(axis=1)
    ]
    tainted = adversary.taint_batch(
        honest, expected, budgets, group_size=knowledge.group_size
    )
    return tainted, spoofed, expected


def evaluate_detection(
    benign_scores: np.ndarray,
    attacked_scores: np.ndarray,
    *,
    false_positive_rate: float = 0.01,
    metric: Union[str, AnomalyMetric, None] = None,
) -> DetectionOutcome:
    """Bundle a fixed-FP operating point (plus a lazy ROC) into one outcome.

    The threshold is set to the tightest value whose benign false-positive
    rate does not exceed the budget — exactly the ``τ``-percentile training
    rule of Section 5.5 applied to the benign sample — and the detection
    rate is the fraction of attacked scores above it.
    """
    check_fraction("false_positive_rate", false_positive_rate)
    benign_scores = np.asarray(benign_scores, dtype=np.float64)
    attacked_scores = np.asarray(attacked_scores, dtype=np.float64)
    threshold = derive_threshold(benign_scores, 1.0 - false_positive_rate)
    return DetectionOutcome(
        benign_scores=benign_scores,
        attacked_scores=attacked_scores,
        detection_rate=float(np.mean(attacked_scores > threshold)),
        false_positive_rate=false_positive_rate,
        threshold=threshold,
        metric="" if metric is None else resolve_metric(metric).name,
    )
