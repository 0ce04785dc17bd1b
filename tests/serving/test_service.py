"""Tests for :class:`repro.serving.DetectionService`.

The load-bearing guarantees:

* service verdicts are **bit-identical** to offline ``LadSession`` scoring
  for the same claims — across every registered localizer;
* batch composition never changes a verdict (batched == sequential,
  bit for bit);
* warm startup from an :class:`ArtifactStore` performs zero training.
"""

import numpy as np
import pytest

from repro.core.metrics import resolve_metric
from repro.core.thresholds import derive_threshold
from repro.core.training import benign_scores, collect_training_data
from repro.experiments.session import LadSession
from repro.experiments.store import ArtifactStore
from repro.localization.base import LOCALIZERS
from repro.serving import DetectionService, LocationClaim
from repro.serving.claims import ClaimError


def _training_claims(session, metric=None):
    """One claim per training sample: the offline benign-score inputs.

    ``benign_scores`` scores each training observation against the
    expectation at its *estimated* location, so claims built from the
    same ``(observation, estimated location)`` pairs must score
    bit-identically through the service.
    """
    training = session.training_data
    return [
        LocationClaim(
            observation=training.observations[i],
            claimed_location=training.estimated_locations[i],
            claim_id=f"t-{i}",
            metric=metric,
        )
        for i in range(training.observations.shape[0])
    ]


class TestOfflineEquivalence:
    @pytest.mark.parametrize("localizer", sorted(LOCALIZERS.available()))
    def test_scores_bit_identical_across_localizers(
        self, tiny_config, localizer
    ):
        """The acceptance criterion: online == offline, every localizer."""
        session = LadSession(tiny_config, localizer=localizer)
        service = DetectionService.from_session(
            session, metrics=("diff",), false_positive_rate=0.05
        )
        verdicts = service.verify_batch(_training_claims(session))
        scores = np.array([verdict.score for verdict in verdicts])
        assert np.array_equal(scores, session.benign_scores("diff"))
        assert service.threshold("diff") == session.threshold(
            "diff", false_positive_rate=0.05
        )

    def test_attacked_claims_score_like_offline_sweep(self, tiny_session):
        """Attacked serving claims reproduce the offline attacked scores."""
        service = tiny_session.service(metrics=("diff",))
        claims = tiny_session.attacked_claims(
            "diff",
            "dec_bounded",
            degree_of_damage=120.0,
            compromised_fraction=0.1,
        )
        scores = np.array(
            [verdict.score for verdict in service.verify_batch(claims)]
        )
        offline = tiny_session.attacked_scores(
            "diff",
            "dec_bounded",
            degree_of_damage=120.0,
            compromised_fraction=0.1,
        )
        assert np.array_equal(scores, offline)
        outcome = tiny_session.outcome(
            "diff",
            "dec_bounded",
            degree_of_damage=120.0,
            compromised_fraction=0.1,
        )
        online_rate = np.mean(scores > service.threshold("diff"))
        assert online_rate == outcome.detection_rate

    def test_flag_rule_matches_verdict_type(self, tiny_service, tiny_session):
        verdict = tiny_service.verify_batch(
            _training_claims(tiny_session)[:1]
        )[0]
        assert verdict.anomalous == (
            verdict.score > tiny_service.threshold("diff")
        )
        assert verdict.decision in ("accept", "flag")


class TestBatchInvariance:
    def test_batched_equals_sequential_bit_for_bit(
        self, tiny_service, tiny_session
    ):
        claims = _training_claims(tiny_session)
        batched = tiny_service.verify_batch(claims)
        sequential = [tiny_service.verify_batch([claim])[0] for claim in claims]
        for together, alone in zip(batched, sequential):
            assert together.score == alone.score
            assert together.anomalous == alone.anomalous

    def test_batch_composition_irrelevant(self, tiny_service, tiny_session):
        claims = _training_claims(tiny_session)
        full = {
            verdict.claim_id: verdict.score
            for verdict in tiny_service.verify_batch(claims)
        }
        shuffled = list(reversed(claims))
        for verdict in tiny_service.verify_batch(shuffled[:7]):
            assert verdict.score == full[verdict.claim_id]

    def test_mixed_metrics_in_one_batch(self, tiny_service, tiny_session):
        claims = _training_claims(tiny_session)[:6]
        mixed = [
            LocationClaim(
                observation=claim.observation,
                claimed_location=claim.claimed_location,
                claim_id=claim.claim_id,
                metric="diff" if i % 2 == 0 else "add_all",
            )
            for i, claim in enumerate(claims)
        ]
        verdicts = tiny_service.verify_batch(mixed)
        for i, verdict in enumerate(verdicts):
            name = "diff" if i % 2 == 0 else "add_all"
            pure = tiny_service.verify_batch(
                [
                    LocationClaim(
                        observation=mixed[i].observation,
                        claimed_location=mixed[i].claimed_location,
                        metric=name,
                    )
                ]
            )[0]
            assert verdict.metric == name
            assert verdict.score == pure.score

    def test_empty_batch(self, tiny_service):
        assert tiny_service.verify_batch([]) == []


class TestBatchContract:
    """What a claim's batch-mates may change, for every metric.

    A claim carrying its location is scored row by row, so its verdict is
    the same alone and inside any mixed batch.  Location-less claims are
    localized together (the coarse level is one matrix product over the
    batch), so their verdict is pinned to the estimate
    ``localize_observations`` gives on their own batch.
    """

    METRICS = ("diff", "add_all", "probability")

    @pytest.fixture(scope="class")
    def service(self, tiny_session):
        return DetectionService(
            tiny_session.knowledge,
            thresholds={name: 25.0 for name in self.METRICS},
            localizer=tiny_session.localizer,
        )

    @pytest.fixture(scope="class")
    def mixed_batch(self, tiny_session):
        """Located and location-less claims of every metric, interleaved."""
        training = tiny_session.training_data
        return [
            LocationClaim(
                observation=training.observations[i],
                claimed_location=(
                    None if i % 4 == 3 else training.estimated_locations[i]
                ),
                claim_id=f"m-{i}",
                metric=self.METRICS[i % 3],
            )
            for i in range(24)
        ]

    @staticmethod
    def _batches(claims):
        return [claims, claims[::-1], claims[5:17], claims[::3]]

    @pytest.mark.parametrize("metric", METRICS)
    def test_located_verdict_same_alone_and_in_mixed_batches(
        self, service, mixed_batch, metric
    ):
        located = [
            claim
            for claim in mixed_batch
            if claim.claimed_location is not None and claim.metric == metric
        ]
        alone = {claim.claim_id: service.verify_batch([claim])[0] for claim in located}
        checked = 0
        for batch in self._batches(mixed_batch):
            for verdict in service.verify_batch(batch):
                if verdict.claim_id not in alone:
                    continue
                solo = alone[verdict.claim_id]
                assert verdict.metric == solo.metric == metric
                assert verdict.score == solo.score
                assert verdict.anomalous == solo.anomalous
                checked += 1
        assert checked >= 2 * len(located)

    @pytest.mark.parametrize("metric", METRICS)
    def test_locationless_verdict_is_score_at_its_batch_estimate(
        self, service, mixed_batch, metric
    ):
        knowledge = service.knowledge
        checked = 0
        for batch in self._batches(mixed_batch):
            verdicts = service.verify_batch(batch)
            pending = [
                row for row, claim in enumerate(batch) if claim.claimed_location is None
            ]
            observations = np.stack([batch[row].observation for row in pending])
            estimates = service.localizer.localize_observations(knowledge, observations)
            mine = [
                pos for pos, row in enumerate(pending) if batch[row].metric == metric
            ]
            expected = resolve_metric(metric).score(
                knowledge, estimates[mine], observations[mine]
            )
            got = np.array([verdicts[pending[pos]].score for pos in mine])
            assert np.array_equal(got, expected)
            checked += len(mine)
        assert checked > 0


class TestDetectionDecisions:
    """The LAD rule on hand-built claims: a claim is flagged exactly when
    its score at the claimed location exceeds the trained threshold."""

    CENTER = np.array([250.0, 250.0])

    @pytest.fixture(scope="class")
    def honest_observation(self, small_knowledge):
        """The expected observation at :attr:`CENTER` — what an honest node
        there sees on average."""
        return small_knowledge.expected_observation(self.CENTER[None, :])[0]

    def test_consistent_location_not_flagged(
        self, small_knowledge, honest_observation
    ):
        service = DetectionService(small_knowledge, thresholds={"diff": 30.0})
        verdict = service.verify(
            LocationClaim(observation=honest_observation, claimed_location=self.CENTER)
        )
        assert not verdict.anomalous
        assert verdict.score == pytest.approx(0.0, abs=1e-6)
        assert verdict.metric == "diff"

    def test_displaced_location_flagged(self, small_knowledge, honest_observation):
        service = DetectionService(small_knowledge, thresholds={"diff": 30.0})
        verdict = service.verify(
            LocationClaim(
                observation=honest_observation,
                claimed_location=self.CENTER + np.array([150.0, 0.0]),
            )
        )
        assert verdict.anomalous
        assert verdict.score > verdict.threshold

    def test_given_threshold_decides_strictly(
        self, small_knowledge, honest_observation
    ):
        """A hand-given threshold is the one applied: a claim scoring
        exactly at it is accepted, one just above it is flagged."""
        claim = LocationClaim(
            observation=honest_observation,
            claimed_location=self.CENTER + np.array([150.0, 0.0]),
        )
        score = DetectionService(
            small_knowledge, thresholds={"diff": 30.0}
        ).verify(claim).score
        at = DetectionService(small_knowledge, thresholds={"diff": score})
        below = DetectionService(
            small_knowledge, thresholds={"diff": np.nextafter(score, -np.inf)}
        )
        assert at.threshold("diff") == score
        assert at.verify(claim).threshold == score
        assert not at.verify(claim).anomalous
        assert below.verify(claim).anomalous

    def test_two_claim_batch(self, small_knowledge, honest_observation):
        service = DetectionService(small_knowledge, thresholds={"diff": 30.0})
        verdicts = service.verify_batch(
            [
                LocationClaim(observation=honest_observation, claimed_location=loc)
                for loc in ([250.0, 250.0], [420.0, 250.0])
            ]
        )
        assert [verdict.decision for verdict in verdicts] == ["accept", "flag"]

    def test_probability_metric_flags_far_claim(
        self, small_knowledge, honest_observation
    ):
        service = DetectionService(small_knowledge, thresholds={"probability": 50.0})
        near, far = (
            service.verify(
                LocationClaim(observation=honest_observation, claimed_location=loc)
            )
            for loc in (self.CENTER, self.CENTER + np.array([200.0, 0.0]))
        )
        assert near.metric == "probability"
        assert not near.anomalous
        assert far.anomalous

    def test_trained_threshold_bounds_benign_false_positives(
        self, small_generator, small_knowledge
    ):
        training = collect_training_data(
            small_generator,
            num_samples=30,
            samples_per_network=15,
            rng=5,
            knowledge=small_knowledge,
        )
        threshold = derive_threshold(
            benign_scores(training, small_knowledge, "diff"), 0.95
        )
        service = DetectionService(
            small_knowledge, thresholds={"diff": threshold}, false_positive_rate=0.05
        )
        verdicts = service.verify_batch(
            [
                LocationClaim(observation=obs, claimed_location=loc)
                for obs, loc in zip(
                    training.observations, training.estimated_locations
                )
            ]
        )
        # Roughly 5% of the training samples themselves exceed the threshold.
        assert np.mean([verdict.anomalous for verdict in verdicts]) <= 0.15


class TestLocalization:
    def test_localize_then_verify_matches_manual_pipeline(
        self, tiny_service, tiny_session
    ):
        training = tiny_session.training_data
        claims = [
            LocationClaim(observation=training.observations[i])
            for i in range(5)
        ]
        verdicts = tiny_service.verify_batch(claims)
        estimates = tiny_session.localizer.localize_observations(
            tiny_session.knowledge, training.observations[:5]
        )
        expected = tiny_session.knowledge.expected_observation(estimates)
        from repro.core.metrics import resolve_metric

        scores = resolve_metric("diff").compute(
            training.observations[:5],
            expected,
            group_size=tiny_session.knowledge.group_size,
        )
        assert np.array_equal(
            np.array([verdict.score for verdict in verdicts]), scores
        )

    def test_beacon_scheme_rejects_locationless_claims(self, tiny_config):
        session = LadSession(tiny_config, localizer="centroid")
        service = DetectionService.from_session(session, metrics=("diff",))
        training = session.training_data
        with pytest.raises(ClaimError, match="localize"):
            service.verify_batch(
                [LocationClaim(observation=training.observations[0])]
            )


class TestValidation:
    def test_wrong_observation_length_rejected(self, tiny_service):
        with pytest.raises(ClaimError, match="group"):
            tiny_service.validate(
                LocationClaim(
                    observation=[1.0, 2.0], claimed_location=[0.0, 0.0]
                )
            )

    def test_unthresholded_metric_rejected(self, tiny_service):
        claim = LocationClaim(
            observation=np.zeros(tiny_service.n_groups),
            claimed_location=[0.0, 0.0],
            metric="probability",
        )
        with pytest.raises(ClaimError, match="threshold"):
            tiny_service.validate(claim)

    def test_threshold_of_untrained_metric_raises(self, tiny_service):
        with pytest.raises(KeyError, match="probability"):
            tiny_service.threshold("probability")

    def test_validate_returns_canonical_metric(self, tiny_service, tiny_session):
        alias = _training_claims(tiny_session, metric="dm")[0]
        default = _training_claims(tiny_session)[0]
        assert tiny_service.validate(alias) == "diff"
        assert tiny_service.validate(default) == tiny_service.default_metric
        assert tiny_service.verify_batch([alias])[0].metric == "diff"

    def test_needs_at_least_one_threshold(self, tiny_session):
        with pytest.raises(ValueError, match="at least one"):
            DetectionService(tiny_session.knowledge, thresholds={})

    def test_default_metric_must_be_thresholded(self, tiny_session):
        with pytest.raises(ValueError, match="no trained"):
            DetectionService(
                tiny_session.knowledge,
                thresholds={"diff": 1.0},
                metric="add_all",
            )


class TestWarmStartup:
    METRICS = ("diff", "add_all")

    def test_warm_startup_needs_a_store(self, tiny_session):
        with pytest.raises(ValueError, match="store"):
            DetectionService.from_session(tiny_session, require_warm=True)

    def test_cold_store_refuses_instead_of_training(
        self, tiny_config, tmp_path
    ):
        session = LadSession(tiny_config, store=ArtifactStore(tmp_path))
        with pytest.raises(KeyError, match="cold store"):
            DetectionService.from_session(
                session, metrics=self.METRICS, require_warm=True
            )

    def test_warm_startup_trains_nothing(
        self, tiny_config, tmp_path, monkeypatch
    ):
        """A warm service boots purely from store hits — zero training."""
        store = ArtifactStore(tmp_path)
        live = LadSession(tiny_config, store=store)
        expected = {
            name: live.threshold(name, false_positive_rate=0.02)
            for name in self.METRICS
        }

        import repro.experiments.session as session_module

        def refuse(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("training ran during a warm startup")

        monkeypatch.setattr(session_module, "collect_training_data", refuse)
        warm_store = ArtifactStore(tmp_path)
        warm_session = LadSession(tiny_config, store=warm_store)
        service = DetectionService.from_session(
            warm_session,
            metrics=self.METRICS,
            false_positive_rate=0.02,
            require_warm=True,
        )
        assert warm_store.hit_counts["benign_scores"] == len(self.METRICS)
        assert warm_store.misses == 0
        for name in self.METRICS:
            assert service.threshold(name) == expected[name]


class TestFromSpec:
    def test_from_spec_file(self):
        from pathlib import Path

        spec_path = (
            Path(__file__).parents[2] / "examples" / "specs" / "tiny_sweep.toml"
        )
        service = DetectionService.from_spec(spec_path)
        # The spec's metric list and FP budget become the service's.
        assert service.metrics == ["diff", "probability"]
        assert service.false_positive_rate == 0.05
