"""Tests for :mod:`repro.experiments.session`."""

from pathlib import Path

import numpy as np
import pytest

from repro.attacks.constraints import DecBoundedAttack
from repro.attacks.modality import RssiAmplificationAttack
from repro.core.metrics import DiffMetric
from repro.experiments.config import SimulationConfig
from repro.experiments.scenario import ScenarioSpec
from repro.experiments.session import LadSession
from repro.localization.beacons import BeaconSpec


@pytest.fixture(scope="module")
def tiny_simulation():
    """A fast simulation: paper physics but few Monte-Carlo samples and a
    sparser network (m=60) so the module's tests run in seconds."""
    config = SimulationConfig(
        group_size=60,
        num_training_samples=60,
        training_samples_per_network=30,
        num_victims=60,
        victims_per_network=30,
        gz_omega=400,
        seed=99,
    )
    return LadSession(config)


class TestCaching:
    def test_knowledge_cached(self, tiny_simulation):
        assert tiny_simulation.knowledge is tiny_simulation.knowledge

    def test_training_data_cached(self, tiny_simulation):
        assert tiny_simulation.training_data is tiny_simulation.training_data
        assert tiny_simulation.training_data.num_samples == 60

    def test_benign_scores_cached_per_metric(self, tiny_simulation):
        a = tiny_simulation.benign_scores("diff")
        b = tiny_simulation.benign_scores("diff")
        assert a is b
        c = tiny_simulation.benign_scores("add_all")
        assert c is not a

    def test_victims_cached(self, tiny_simulation):
        sample = tiny_simulation.victims()
        assert sample is tiny_simulation.victims()
        assert sample.observations.shape[0] == 60
        assert sample.actual_locations.shape == (60, 2)


class TestEvaluationEntryPoints:
    def test_attacked_scores_shape(self, tiny_simulation):
        scores = tiny_simulation.attacked_scores(
            "diff", "dec_bounded", degree_of_damage=120.0, compromised_fraction=0.1
        )
        assert scores.shape == (60,)

    def test_attack_scores_deterministic_per_parameters(self, tiny_simulation):
        a = tiny_simulation.attacked_scores(
            "diff", "dec_bounded", degree_of_damage=120.0, compromised_fraction=0.1
        )
        b = tiny_simulation.attacked_scores(
            "diff", "dec_bounded", degree_of_damage=120.0, compromised_fraction=0.1
        )
        np.testing.assert_allclose(a, b)

    def test_roc_and_detection_rate(self, tiny_simulation):
        roc = tiny_simulation.roc(
            "diff", "dec_bounded", degree_of_damage=160.0, compromised_fraction=0.1
        )
        assert roc.detection_rate_at(1.0) == 1.0
        outcome = tiny_simulation.outcome(
            "diff",
            "dec_bounded",
            degree_of_damage=160.0,
            compromised_fraction=0.1,
            false_positive_rate=0.05,
        )
        assert 0.0 <= outcome.detection_rate <= 1.0
        assert np.isfinite(outcome.threshold)

    def test_detection_rate_increases_with_damage(self, tiny_simulation):
        low = tiny_simulation.outcome(
            "diff", "dec_bounded", degree_of_damage=30.0, compromised_fraction=0.1
        )
        high = tiny_simulation.outcome(
            "diff", "dec_bounded", degree_of_damage=160.0, compromised_fraction=0.1
        )
        assert high.detection_rate >= low.detection_rate

    def test_outcome_bundle(self, tiny_simulation):
        outcome = tiny_simulation.outcome(
            "diff", "dec_bounded", degree_of_damage=120.0, compromised_fraction=0.1
        )
        assert outcome.attacked_scores.shape == (60,)
        assert 0.0 <= outcome.detection_rate <= 1.0

    def test_benign_localization_error_reported(self, tiny_simulation):
        error = tiny_simulation.benign_localization_error()
        assert 0.0 < error < 100.0

    def test_default_config_used_when_omitted(self):
        sim = LadSession()
        assert sim.config.group_size == 300


class TestLegacyShimRemoval:
    """The one-release deprecation shims are gone, not just deprecated."""

    def test_lad_simulation_removed(self):
        import repro
        import repro.experiments

        with pytest.raises(AttributeError, match="LadSimulation"):
            repro.LadSimulation
        assert not hasattr(repro.experiments, "LadSimulation")
        with pytest.raises(ModuleNotFoundError):
            import repro.experiments.harness  # noqa: F401

    def test_get_metric_removed(self):
        import repro
        import repro.core

        with pytest.raises(AttributeError, match="get_metric"):
            repro.get_metric
        assert not hasattr(repro.core, "get_metric")

    @pytest.mark.parametrize(
        "name",
        [
            "LADDetector",
            "ThresholdTable",
            "attacked_scores_for_victims",
            "detection_rate_at_false_positive",
        ],
    )
    def test_second_detector_path_removed(self, name):
        """``DetectionService`` is the one detector and ``evaluate_detection``
        the one operating-point reader; the parallel names are gone."""
        import repro
        import repro.core

        with pytest.raises(AttributeError, match=name):
            getattr(repro, name)
        assert not hasattr(repro.core, name)

    def test_detector_module_removed(self):
        with pytest.raises(ModuleNotFoundError):
            import repro.core.detector  # noqa: F401

    def test_session_detection_rate_alias_removed(self):
        assert not hasattr(LadSession, "detection_rate")

    def test_outcome_is_not_a_tuple(self, tiny_simulation):
        outcome = tiny_simulation.outcome(
            "diff", "dec_bounded", degree_of_damage=120.0, compromised_fraction=0.1
        )
        with pytest.raises(TypeError):
            tuple(outcome)


class TestBeaconSessions:
    """Beacon-based localizers are first-class session citizens."""

    @pytest.fixture(scope="class")
    def beacon_config(self):
        return SimulationConfig(
            group_size=40,
            num_training_samples=30,
            training_samples_per_network=15,
            num_victims=30,
            victims_per_network=15,
            gz_omega=300,
            seed=31,
            beacons=BeaconSpec(count=9, layout="grid", transmit_range=450.0),
        )

    def test_session_deploys_configured_beacons(self, beacon_config):
        session = LadSession(beacon_config, localizer="centroid")
        beacons = session.beacons
        assert beacons is not None
        assert beacons.num_beacons == 9
        assert session.beacons is beacons  # cached
        # The whole pipeline runs end to end behind the beacon scheme.
        outcome = session.outcome(
            "diff",
            "dec_bounded",
            degree_of_damage=160.0,
            compromised_fraction=0.1,
            false_positive_rate=0.05,
        )
        assert 0.0 <= outcome.detection_rate <= 1.0
        assert np.isfinite(outcome.threshold)

    def test_beacon_scheme_defaults_spec_when_config_has_none(self):
        config = SimulationConfig(
            group_size=40,
            num_training_samples=20,
            training_samples_per_network=10,
            num_victims=20,
            victims_per_network=10,
            gz_omega=300,
            seed=31,
        )
        session = LadSession(config, localizer="mmse")
        assert session.beacon_spec == BeaconSpec()
        assert session.beacons.num_beacons == BeaconSpec().count

    def test_beaconless_session_deploys_no_beacons(self, tiny_simulation):
        assert tiny_simulation.beacon_spec is None
        assert tiny_simulation.beacons is None

    def test_beacon_placement_is_seed_deterministic(self, beacon_config):
        from dataclasses import replace

        random_config = replace(
            beacon_config,
            beacons=BeaconSpec(count=7, layout="random", seed=3),
        )
        a = LadSession(random_config, localizer="centroid").beacons
        b = LadSession(random_config, localizer="centroid").beacons
        np.testing.assert_array_equal(a.positions, b.positions)
        reseeded = replace(
            random_config,
            beacons=BeaconSpec(count=7, layout="random", seed=4),
        )
        c = LadSession(reseeded, localizer="centroid").beacons
        assert not np.array_equal(a.positions, c.positions)

    def test_apit_localizer_matches_config_region(self):
        config = SimulationConfig(group_size=40, region_size=500.0)
        session = LadSession(config, localizer="apit")
        assert session.localizer.region.x_max == 500.0


#: tiny_sweep.toml's config and its D = 80 point.
_TINY_SWEEP = ScenarioSpec.from_file(
    Path(__file__).resolve().parents[2] / "examples" / "specs" / "tiny_sweep.toml"
).config
_D80 = {"degree_of_damage": 80.0, "compromised_fraction": 0.1}


class _ScaledDiff(DiffMetric):
    """An unregistered Diff variant that doubles every score."""

    def compute(self, observations, expected, group_size=None):
        return 2.0 * super().compute(observations, expected, group_size)


class _LooseDecBounded(DecBoundedAttack):
    """An unregistered subclass of a registered attack class."""


#: Every session method that takes a metric, called with *metric*.
_METRIC_METHODS = {
    "attacked_scores": lambda s, m: s.attacked_scores(m, "dec_bounded", **_D80),
    "attacked_claims": lambda s, m: s.attacked_claims(m, "dec_bounded", **_D80),
    "roc": lambda s, m: s.roc(m, "dec_bounded", **_D80),
    "outcome": lambda s, m: s.outcome(m, "dec_bounded", **_D80),
    "benign_scores": lambda s, m: s.benign_scores(m),
    "benign_scores_key": lambda s, m: s.benign_scores_key(m),
    "threshold": lambda s, m: s.threshold(m),
}


@pytest.fixture(scope="module")
def tiny_sweep_session():
    """A reference session on tiny_sweep's config, spelled canonically."""
    return LadSession(_TINY_SWEEP)


class TestRegisteredNames:
    """A point keeps registered names: spellings alias, and an instance the
    registry would not build under its name raises instead of being scored
    (or cached) as that name."""

    def test_attack_spellings_score_identically_cold(self, tiny_sweep_session):
        respelled = LadSession(_TINY_SWEEP).attacked_scores(
            "diff", "Dec-Bounded", **_D80
        )
        np.testing.assert_array_equal(
            respelled,
            tiny_sweep_session.attacked_scores("diff", "dec_bounded", **_D80),
        )

    @pytest.mark.parametrize(
        "first, second",
        [("Dec-Bounded", "dec_bounded"), ("dec_bounded", "Dec-Bounded")],
    )
    def test_attack_spellings_share_one_artifact(
        self, tiny_sweep_session, tmp_path, first, second
    ):
        LadSession(_TINY_SWEEP, store=tmp_path).attacked_scores("diff", first, **_D80)
        warm = LadSession(_TINY_SWEEP, store=tmp_path)
        served = warm.attacked_scores("diff", second, **_D80)
        assert warm.store.stats() == {"hits": 1, "misses": 0}
        np.testing.assert_array_equal(
            served,
            tiny_sweep_session.attacked_scores("diff", "dec_bounded", **_D80),
        )

    @pytest.mark.parametrize("method", sorted(_METRIC_METHODS))
    def test_unregistered_metric_instance_raises(self, method):
        with pytest.raises(ValueError, match="register"):
            _METRIC_METHODS[method](LadSession(_TINY_SWEEP), _ScaledDiff())

    @pytest.mark.parametrize(
        "attack",
        [_LooseDecBounded(), RssiAmplificationAttack(gain_db=12.0)],
        ids=["subclass", "configured"],
    )
    def test_unregistered_attack_instance_raises(self, attack):
        """A point would score either with the registered defaults."""
        session = LadSession(_TINY_SWEEP)
        for read in (session.attacked_scores, session.outcome, session.roc):
            with pytest.raises(ValueError, match="register"):
                read("diff", attack, **_D80)

    def test_stock_instances_equal_their_names(self, tiny_sweep_session):
        session = LadSession(_TINY_SWEEP)
        by_instance = session.outcome(DiffMetric(), DecBoundedAttack(), **_D80)
        assert by_instance == tiny_sweep_session.outcome("diff", "dec_bounded", **_D80)
        key = session.benign_scores_key(DiffMetric())
        assert key == tiny_sweep_session.benign_scores_key("diff")

    def test_rejected_instance_leaves_the_threshold_alone(self, tiny_sweep_session):
        session = LadSession(_TINY_SWEEP)
        with pytest.raises(ValueError):
            session.outcome(_ScaledDiff(), "dec_bounded", **_D80)
        assert session.threshold("diff") == tiny_sweep_session.threshold("diff")
        expected = tiny_sweep_session.outcome("diff", "dec_bounded", **_D80)
        assert session.outcome("diff", "dec_bounded", **_D80) == expected
