"""Tests for :mod:`repro.events.temporal` — the epoch-stepped engine.

The three contract guarantees under test:

1. **Degeneracy** — an empty timeline reproduces the static evaluation
   bit for bit (same attacked scores, same verdicts).
2. **Latency** — an attack switching on at epoch ``k`` yields a finite
   detection latency of at least ``k``.
3. **Determinism** — serial and process-fan-out runs are identical, and
   warm (cached) runs equal cold ones, including interrupt -> resume.
"""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from repro.events import EventSpec, TemporalOutcome, TemporalWorld, TimelineSpec
from repro.experiments.config import SimulationConfig
from repro.experiments.session import LadSession
from repro.experiments.store import ArtifactStore
from repro.experiments.sweep import SweepPoint

ATTACK_EPOCH = 4

POINT = SweepPoint(
    metric="diff",
    attack="dec_bounded",
    degree_of_damage=120.0,
    compromised_fraction=0.1,
)


@pytest.fixture(scope="module")
def tiny_config():
    return SimulationConfig(
        group_size=40,
        num_training_samples=30,
        training_samples_per_network=15,
        num_victims=30,
        victims_per_network=15,
        gz_omega=300,
        seed=777,
    )


@pytest.fixture(scope="module")
def tiny_session(tiny_config):
    return LadSession(tiny_config)


@pytest.fixture(scope="module")
def attack_timeline():
    """Jitter every epoch; the attack switches on at ``ATTACK_EPOCH``."""
    return TimelineSpec(
        epochs=8,
        events=(
            EventSpec(
                kind="mobility",
                action="jitter",
                period=1.0,
                start=1.0,
                fraction=0.25,
                amplitude=5.0,
            ),
            EventSpec(kind="attack", action="on", at=(float(ATTACK_EPOCH),)),
        ),
    )


class TestTemporalWorld:
    def test_replays_the_sessions_victims(self, tiny_session):
        """Epoch 0 of an un-evented world == the static victim sample."""
        world = TemporalWorld.from_session(tiny_session)
        observations, positions = world.victim_state()
        victims = tiny_session.victims()
        np.testing.assert_array_equal(observations, victims.observations)
        np.testing.assert_array_equal(positions, victims.actual_locations)
        assert world.victim_alive().all()

    def test_copy_isolates_mutation(self, tiny_session):
        base = TemporalWorld.from_session(tiny_session)
        fork = base.copy()
        rng = np.random.default_rng(0)
        fork.apply_mobility("jitter", 1.0, 10.0, rng)
        fork.apply_churn("leave", 0.5, rng)
        fork.apply_beacons("fail", 1.0, 30.0)
        base_obs, base_pos = base.victim_state()
        victims = tiny_session.victims()
        np.testing.assert_array_equal(base_obs, victims.observations)
        np.testing.assert_array_equal(base_pos, victims.actual_locations)
        assert base.victim_alive().all()
        assert base.beacon_noise_std == 0.0
        assert not fork.victim_alive().all()

    def test_churn_leave_then_join_restores_nodes(self, tiny_session):
        world = TemporalWorld.from_session(tiny_session)
        rng = np.random.default_rng(1)
        world.apply_churn("leave", 1.0, rng)
        assert not world.victim_alive().any()
        # departed nodes are heard by nobody
        observations, _ = world.victim_state()
        assert observations.sum() == 0.0
        world.apply_churn("join", 1.0, rng)
        assert world.victim_alive().all()
        restored, _ = world.victim_state()
        np.testing.assert_array_equal(restored, tiny_session.victims().observations)

    def test_waypoint_mobility_stays_in_region(self, tiny_session):
        world = TemporalWorld.from_session(tiny_session)
        rng = np.random.default_rng(2)
        region = world.region
        for _ in range(5):
            world.apply_mobility("waypoint", 1.0, 50.0, rng)
        _, positions = world.victim_state()
        assert (positions[:, 0] >= region.x_min).all()
        assert (positions[:, 0] <= region.x_max).all()
        assert (positions[:, 1] >= region.y_min).all()
        assert (positions[:, 1] <= region.y_max).all()

    def test_beacon_restore_clears_degradation(self, tiny_session):
        world = TemporalWorld.from_session(tiny_session)
        world.apply_beacons("fail", 0.5, 30.0)
        world.apply_beacons("compromise", 0.5, 30.0)
        assert world.beacon_noise_std == 15.0
        assert world.beacon_bias == 15.0
        world.apply_beacons("restore", 1.0, 0.0)
        assert world.beacon_noise_std == 0.0
        assert world.beacon_bias == 0.0


class TestDegeneracy:
    def test_empty_timeline_equals_static_scores(self, tiny_session):
        """The tentpole contract: no events -> the static evaluation."""
        outcome = tiny_session.temporal(TimelineSpec()).run(
            POINT, false_positive_rate=0.05
        )
        static = tiny_session.attacked_scores(
            POINT.metric,
            POINT.attack,
            degree_of_damage=POINT.degree_of_damage,
            compromised_fraction=POINT.compromised_fraction,
        )
        assert outcome.num_epochs == 1
        np.testing.assert_array_equal(outcome.scores[0], static)

    def test_empty_timeline_equals_static_verdicts(self, tiny_session):
        outcome = tiny_session.temporal(TimelineSpec()).run(
            POINT, false_positive_rate=0.05
        )
        static = tiny_session.outcome(
            POINT.metric,
            POINT.attack,
            degree_of_damage=POINT.degree_of_damage,
            compromised_fraction=POINT.compromised_fraction,
            false_positive_rate=0.05,
        )
        temporal_verdicts = outcome.verdicts(0)
        static_verdicts = static.verdicts()
        assert len(temporal_verdicts) == len(static_verdicts)
        for ours, theirs in zip(temporal_verdicts, static_verdicts):
            assert ours.anomalous == theirs.anomalous
            assert ours.score == theirs.score
            assert ours.threshold == theirs.threshold


class TestOnlineMetrics:
    def test_attack_at_epoch_k_has_latency_at_least_k(
        self, tiny_session, attack_timeline
    ):
        outcome = tiny_session.temporal(attack_timeline).run(
            POINT, false_positive_rate=0.05
        )
        assert outcome.detection_latency is not None
        assert outcome.detection_latency >= ATTACK_EPOCH
        # before the switch-on nothing is attacked, afterwards everything is
        rates = outcome.detection_rates()
        assert (rates[:ATTACK_EPOCH] == 0.0).all()
        assert rates[ATTACK_EPOCH:].max() > 0.0
        assert outcome.detection_time == outcome.times[outcome.detection_latency]
        assert not outcome.attacked[: ATTACK_EPOCH].any()
        assert outcome.attacked[ATTACK_EPOCH:].all()

    def test_event_labels_recorded_at_fire_epochs(self, tiny_session, attack_timeline):
        outcome = tiny_session.temporal(attack_timeline).run(
            POINT, false_positive_rate=0.05
        )
        assert outcome.events[0] == ()
        assert "mobility:jitter" in outcome.events[1]
        assert "attack:on" in outcome.events[ATTACK_EPOCH]

    def test_delivery_collapses_under_full_churn(self, tiny_session):
        timeline = TimelineSpec(
            epochs=3,
            events=(EventSpec(kind="churn", action="leave", at=(1.0,), fraction=1.0),),
        )
        outcome = tiny_session.temporal(timeline).run(POINT, false_positive_rate=0.05)
        assert outcome.delivery_rates()[1] == 0.0
        assert np.isnan(outcome.scores[1]).all()
        # dead nodes submit no claims, so nothing can be flagged either
        assert not outcome.flagged[1:].any()

    def test_beacon_failure_perturbs_benign_scores(self, tiny_session):
        quiet = TimelineSpec(
            epochs=2,
            events=(EventSpec(kind="attack", action="on", at=(99.0,)),),
        )
        noisy = TimelineSpec(
            epochs=2,
            events=(
                EventSpec(kind="attack", action="on", at=(99.0,)),
                EventSpec(
                    kind="beacons",
                    action="fail",
                    at=(1.0,),
                    fraction=1.0,
                    amplitude=40.0,
                ),
            ),
        )
        runner = tiny_session.temporal(quiet)
        baseline = runner.run(POINT, false_positive_rate=0.05)
        degraded = tiny_session.temporal(noisy).run(POINT, false_positive_rate=0.05)
        np.testing.assert_array_equal(baseline.scores[0], degraded.scores[0])
        assert not np.array_equal(baseline.scores[1], degraded.scores[1])

    def test_as_dict_is_json_ready(self, tiny_session, attack_timeline):
        import json

        outcome = tiny_session.temporal(attack_timeline).run(
            POINT, false_positive_rate=0.05
        )
        payload = json.loads(json.dumps(outcome.as_dict()))
        assert payload["detection_latency"] == outcome.detection_latency
        assert len(payload["detection_rates"]) == outcome.num_epochs


class TestDeterminism:
    def test_serial_equals_parallel(self, tiny_session, attack_timeline):
        points = [
            POINT,
            SweepPoint(
                metric="diff",
                attack="dec_bounded",
                degree_of_damage=80.0,
                compromised_fraction=0.1,
            ),
        ]
        serial = tiny_session.temporal(attack_timeline).outcomes(
            points, false_positive_rate=0.05
        )
        with warnings.catch_warnings():
            # a fan-out fallback would hide a broken parallel path
            warnings.simplefilter("error")
            parallel = tiny_session.temporal(
                attack_timeline, workers=2
            ).outcomes(points, false_positive_rate=0.05)
        assert serial == parallel

    def test_serial_equals_spawned_workers(
        self, tiny_session, attack_timeline, spawn_pool
    ):
        """Spawned workers unpickle the runner's state (world, knowledge,
        timeline) and still reproduce the serial outcomes bit for bit."""
        points = [POINT, replace(POINT, degree_of_damage=80.0)]
        serial = tiny_session.temporal(attack_timeline).outcomes(
            points, false_positive_rate=0.05
        )
        with warnings.catch_warnings():
            # a fan-out fallback would hide a broken pickled transport
            warnings.simplefilter("error")
            spawned = tiny_session.temporal(attack_timeline, workers=2).outcomes(
                points, false_positive_rate=0.05
            )
        assert spawned == serial

    def test_warm_equals_cold_and_resumes(
        self, tiny_config, attack_timeline, tmp_path
    ):
        points = [
            POINT,
            SweepPoint(
                metric="diff",
                attack="dec_bounded",
                degree_of_damage=80.0,
                compromised_fraction=0.1,
            ),
        ]
        store = ArtifactStore(tmp_path / "cache")
        cold_session = LadSession(tiny_config, store=store)
        # "interrupt" after the first point (the up-front probe pass has
        # already counted both points as misses)...
        first = next(
            cold_session.temporal(attack_timeline).iter_outcomes(
                points, false_positive_rate=0.05
            )
        )
        assert store.miss_counts["temporal"] == 2
        # ...then resume: the finished point is served from disk.
        resumed_store = ArtifactStore(tmp_path / "cache")
        resumed_session = LadSession(tiny_config, store=resumed_store)
        resumed = resumed_session.temporal(attack_timeline).outcomes(
            points, false_positive_rate=0.05
        )
        assert resumed_store.hit_counts["temporal"] == 1
        assert resumed_store.miss_counts["temporal"] == 1
        assert resumed[points[0]] == first[1]
        # a fully-warm rerun recomputes nothing and matches bit for bit
        warm_store = ArtifactStore(tmp_path / "cache")
        warm_session = LadSession(tiny_config, store=warm_store)
        warm = warm_session.temporal(attack_timeline).outcomes(
            points, false_positive_rate=0.05
        )
        assert warm_store.miss_counts["temporal"] == 0
        assert warm_store.hit_counts["temporal"] == len(points)
        assert warm == resumed
        storeless = LadSession(tiny_config).temporal(attack_timeline).outcomes(
            points, false_positive_rate=0.05
        )
        assert warm == storeless

    def test_timeline_change_invalidates_cache(self, tiny_config, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        session = LadSession(tiny_config, store=store)
        session.temporal(TimelineSpec(epochs=2)).run(POINT, false_positive_rate=0.05)
        assert store.miss_counts["temporal"] == 1
        session.temporal(TimelineSpec(epochs=3)).run(POINT, false_positive_rate=0.05)
        # a different timeline must never alias the first one's artifact
        assert store.miss_counts["temporal"] == 2
        assert store.hit_counts["temporal"] == 0


class TestHopSchemesUnderMobility:
    """Regression: a ``[timeline]`` mobility scenario over DV-Hop runs.

    DV-Hop training resolves flooding rows through
    :func:`repro.localization.beacons.beacon_contexts`; before hop rows
    were gathered by node index, any position that was not bit-identical
    to a ``network.positions`` row (mobility jitter, dtype round trips)
    raised from the exact-tuple lookup.  This pins the whole pipeline —
    spec with a mobility timeline, DV-Hop localizer, temporal engine —
    end to end.
    """

    def test_dvhop_timeline_with_mobility_runs(self, tiny_config):
        from repro.localization.beacons import BeaconSpec

        config = tiny_config.with_beacons(
            BeaconSpec(count=9, transmit_range=400.0)
        )
        session = LadSession(config, localizer="dvhop")
        timeline = TimelineSpec(
            epochs=6,
            events=(
                EventSpec(
                    kind="mobility",
                    action="jitter",
                    period=1.0,
                    start=1.0,
                    fraction=0.5,
                    amplitude=10.0,
                ),
                EventSpec(kind="attack", action="on", at=(3.0,)),
            ),
        )
        outcome = session.temporal(timeline).run(
            POINT, false_positive_rate=0.05
        )
        assert outcome.scores.shape[0] == 6
        assert np.isfinite(outcome.scores[outcome.alive]).all()
        assert outcome.detection_latency is None or outcome.detection_latency >= 0

    def test_dvhop_timeline_is_deterministic(self, tiny_config):
        from repro.localization.beacons import BeaconSpec

        config = tiny_config.with_beacons(
            BeaconSpec(count=9, transmit_range=400.0)
        )
        timeline = TimelineSpec(
            epochs=4,
            events=(
                EventSpec(
                    kind="mobility",
                    action="jitter",
                    period=1.0,
                    start=1.0,
                    fraction=0.5,
                    amplitude=10.0,
                ),
                EventSpec(kind="attack", action="on", at=(2.0,)),
            ),
        )
        a = LadSession(config, localizer="dvhop").temporal(timeline).run(
            POINT, false_positive_rate=0.05
        )
        b = LadSession(config, localizer="dvhop").temporal(timeline).run(
            POINT, false_positive_rate=0.05
        )
        np.testing.assert_array_equal(a.scores, b.scores)
        np.testing.assert_array_equal(a.alive, b.alive)


class TestOutcomeEdgeCases:
    def _outcome(self, scores, attacked, alive, threshold=1.0):
        scores = np.asarray(scores, dtype=np.float64)
        epochs, victims = scores.shape
        return TemporalOutcome(
            point=POINT,
            scores=np.asarray(scores, dtype=np.float64),
            attacked=np.asarray(attacked, dtype=bool),
            alive=np.asarray(alive, dtype=bool),
            times=np.arange(epochs, dtype=np.float64),
            events=tuple(() for _ in range(epochs)),
            threshold=threshold,
            false_positive_rate=0.05,
        )

    def test_never_detected_latency_is_none(self):
        outcome = self._outcome(
            scores=np.zeros((3, 2)),
            attacked=np.ones((3, 2)),
            alive=np.ones((3, 2)),
        )
        assert outcome.detection_latency is None
        assert outcome.detection_time is None
        assert outcome.first_false_positive is None
        assert outcome.first_false_positive_time is None

    def test_drift_needs_two_attacked_epochs(self):
        outcome = self._outcome(
            scores=np.full((3, 2), 5.0),
            attacked=[[True, True], [False, False], [False, False]],
            alive=np.ones((3, 2)),
        )
        assert outcome.detection_drift == 0.0

    def test_drift_measures_first_to_last_attacked_epoch(self):
        outcome = self._outcome(
            scores=[[5.0, 5.0], [5.0, 0.0], [0.0, 0.0]],
            attacked=np.ones((3, 2)),
            alive=np.ones((3, 2)),
        )
        assert outcome.detection_drift == -1.0
        np.testing.assert_allclose(outcome.detection_rates(), [1.0, 0.5, 0.0])
