"""Tests for :mod:`repro.core.evaluation` (the Section 7.1 procedure)."""

import numpy as np
import pytest

from repro.core.evaluation import (
    attacked_scores_from_observations,
    evaluate_detection,
)


@pytest.fixture(scope="module")
def victim_sample(small_network, small_index):
    """``victim_sample(stop)``: honest observations ``a`` and actual
    locations ``L_a`` of the victims ``0, 5, 10, …`` below node *stop*."""

    def sample(stop):
        victims = np.arange(0, stop, 5)
        return (
            small_index.observations_of_nodes(victims),
            small_network.positions[victims],
        )

    return sample


class TestAttackedScores:
    def test_scores_shape_and_positivity(self, small_knowledge, victim_sample):
        honest, actual = victim_sample(100)
        scores = attacked_scores_from_observations(
            small_knowledge,
            honest,
            actual,
            metric="diff",
            degree_of_damage=100.0,
            compromised_fraction=0.1,
            rng=0,
        )
        assert scores.shape == (actual.shape[0],)
        assert np.all(scores >= 0.0)

    def test_larger_damage_gives_larger_scores(self, small_knowledge, victim_sample):
        honest, actual = victim_sample(300)
        means = []
        for degree in (20.0, 80.0, 160.0):
            scores = attacked_scores_from_observations(
                small_knowledge,
                honest,
                actual,
                metric="diff",
                degree_of_damage=degree,
                compromised_fraction=0.1,
                rng=1,
            )
            means.append(scores.mean())
        assert means[0] < means[1] < means[2]

    def test_more_compromise_gives_smaller_scores(
        self, small_knowledge, victim_sample
    ):
        honest, actual = victim_sample(300)
        means = []
        for fraction in (0.0, 0.2, 0.5):
            scores = attacked_scores_from_observations(
                small_knowledge,
                honest,
                actual,
                metric="diff",
                degree_of_damage=100.0,
                compromised_fraction=fraction,
                rng=2,
            )
            means.append(scores.mean())
        assert means[0] > means[1] > means[2]

    def test_dec_only_scores_at_least_dec_bounded(
        self, small_knowledge, victim_sample
    ):
        """The Dec-Bounded adversary is stronger, so it achieves lower
        (harder to detect) scores on average."""
        honest, actual = victim_sample(300)
        kwargs = dict(
            metric="diff",
            degree_of_damage=60.0,
            compromised_fraction=0.2,
            rng=3,
        )
        bounded = attacked_scores_from_observations(
            small_knowledge, honest, actual, attack_class="dec_bounded", **kwargs
        )
        only = attacked_scores_from_observations(
            small_knowledge, honest, actual, attack_class="dec_only", **kwargs
        )
        assert bounded.mean() < only.mean()

    def test_from_observations_matches_manual_pipeline(self, small_knowledge):
        """The helper applied to hand-built observations is deterministic
        given a seed and respects the attack constraints."""
        rng = np.random.default_rng(4)
        actual = np.array([[200.0, 200.0], [300.0, 150.0]])
        honest = small_knowledge.expected_observation(actual)
        a = attacked_scores_from_observations(
            small_knowledge, honest, actual, metric="diff", degree_of_damage=80.0,
            compromised_fraction=0.1, rng=11,
        )
        b = attacked_scores_from_observations(
            small_knowledge, honest, actual, metric="diff", degree_of_damage=80.0,
            compromised_fraction=0.1, rng=11,
        )
        np.testing.assert_allclose(a, b)
        assert a.shape == (2,)

    def test_shape_validation(self, small_knowledge):
        with pytest.raises(ValueError):
            attacked_scores_from_observations(
                small_knowledge,
                np.zeros((3, small_knowledge.n_groups)),
                np.zeros((2, 2)),
                metric="diff",
            )


class TestDetectionRateReadout:
    def test_fixed_fp_semantics(self):
        benign = np.arange(1000, dtype=float)
        attacked = np.full(100, 2000.0)
        outcome = evaluate_detection(benign, attacked, false_positive_rate=0.01)
        assert outcome.detection_rate == 1.0
        assert float(np.mean(benign > outcome.threshold)) <= 0.011

    def test_overlapping_distributions(self):
        rng = np.random.default_rng(0)
        benign = rng.normal(0, 1, 2000)
        attacked = rng.normal(1.0, 1, 2000)
        dr_1 = evaluate_detection(benign, attacked, false_positive_rate=0.01)
        dr_10 = evaluate_detection(benign, attacked, false_positive_rate=0.10)
        assert 0.0 < dr_1.detection_rate < dr_10.detection_rate < 1.0

    def test_evaluate_detection_bundle(self):
        rng = np.random.default_rng(1)
        benign = rng.normal(0, 1, 500)
        attacked = rng.normal(3, 1, 500)
        outcome = evaluate_detection(benign, attacked, false_positive_rate=0.05)
        assert outcome.false_positive_rate == 0.05
        assert 0.9 < outcome.detection_rate <= 1.0
        assert outcome.roc.auc() > 0.95
        assert outcome.benign_scores.shape == (500,)

    def test_invalid_fp_rejected(self):
        with pytest.raises(ValueError):
            evaluate_detection(
                np.array([1.0]), np.array([2.0]), false_positive_rate=1.5
            )
