"""Tests for :mod:`repro.experiments.scenario` (declarative scenario specs)."""

import numpy as np
import pytest

from repro.experiments.config import SimulationConfig
from repro.experiments.scenario import ScenarioSpec
from repro.experiments.session import LadSession
from repro.experiments.sweep import SweepPoint
from repro.localization.base import LOCALIZERS
from repro.localization.beacons import BeaconSpec


@pytest.fixture()
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


@pytest.fixture()
def spec(tiny_config):
    return ScenarioSpec(
        name="roundtrip",
        description="spec round-trip fixture",
        metrics=("diff", "add_all"),
        attacks=("dec_bounded", "dec_only"),
        degrees=(80.0, 160.0),
        fractions=(0.1, 0.3),
        false_positive_rate=0.05,
        config=tiny_config,
    )


class TestConstruction:
    def test_names_canonicalised(self):
        spec = ScenarioSpec(
            metrics=("DM", "Add-All"), attacks=("Dec-Bounded",), localizer="MLE"
        )
        assert spec.metrics == ("diff", "add_all")
        assert spec.attacks == ("dec_bounded",)
        assert spec.localizer == "beaconless"

    def test_unknown_component_rejected(self):
        with pytest.raises(ValueError, match="unknown metric"):
            ScenarioSpec(metrics=("entropy",))
        with pytest.raises(ValueError, match="unknown attack class"):
            ScenarioSpec(attacks=("mitm",))
        with pytest.raises(ValueError, match="unknown localizer"):
            ScenarioSpec(localizer="gps")

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="at least one value"):
            ScenarioSpec(degrees=())

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError):
            ScenarioSpec(fractions=(1.5,))
        with pytest.raises(ValueError):
            ScenarioSpec(degrees=(-10.0,))

    def test_grid_compiles_to_sweep_points(self, spec):
        points = spec.points()
        assert len(points) == spec.grid_size == 2 * 2 * 2 * 2
        assert points[0] == SweepPoint("diff", "dec_bounded", 80.0, 0.1)
        assert points[-1] == SweepPoint("add_all", "dec_only", 160.0, 0.3)

    def test_density_values_default_to_config(self, spec):
        assert spec.density_values() == (40,)
        dense = ScenarioSpec(group_sizes=(100, 300))
        assert dense.density_values() == (100, 300)

    def test_localizer_values_default_to_single_localizer(self, spec):
        assert spec.localizer_values() == ("beaconless",)
        multi = ScenarioSpec(localizers=("Centroid", "dv-hop"))
        assert multi.localizers == ("centroid", "dvhop")
        assert multi.localizer_values() == ("centroid", "dvhop")
        with pytest.raises(ValueError, match="unknown localizer"):
            ScenarioSpec(localizers=("gps",))


class TestRoundTrip:
    def test_toml_round_trip_is_lossless(self, spec):
        assert ScenarioSpec.from_toml(spec.to_toml()) == spec

    def test_json_round_trip_is_lossless(self, spec):
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    @pytest.mark.parametrize("suffix", [".toml", ".json"])
    def test_file_round_trip_preserves_grid(self, spec, tmp_path, suffix):
        path = tmp_path / f"spec{suffix}"
        spec.to_file(path)
        loaded = ScenarioSpec.from_file(path)
        assert loaded == spec
        assert loaded.points() == spec.points()

    def test_partial_config_keeps_defaults(self):
        spec = ScenarioSpec.from_toml(
            'name = "partial"\n[config]\ngroup_size = 50\n'
        )
        assert spec.config.group_size == 50
        assert spec.config.radio_range == 100.0
        assert spec.config.seed == SimulationConfig().seed

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario field"):
            ScenarioSpec.from_toml('name = "x"\ntypo_field = 1\n')
        with pytest.raises(ValueError, match="unknown config field"):
            ScenarioSpec.from_toml('[config]\ntypo_field = 1\n')

    def test_beacon_table_round_trips(self, tiny_config):
        spec = ScenarioSpec(
            name="beacons",
            localizer="centroid",
            localizers=("centroid", "mmse"),
            config=tiny_config.with_beacons(
                BeaconSpec(count=9, layout="perimeter", noise_std=2.0, seed=5)
            ),
        )
        text = spec.to_toml()
        assert "[beacons]" in text
        loaded = ScenarioSpec.from_toml(text)
        assert loaded == spec
        assert loaded.beacons == spec.config.beacons
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_beacons_omitted_when_not_configured(self, spec):
        assert "beacons" not in spec.as_dict()
        assert "[beacons]" not in spec.to_toml()

    def test_timeline_table_round_trips(self, tiny_config):
        from repro.events import EventSpec, TimelineSpec

        spec = ScenarioSpec(
            name="temporal",
            config=tiny_config,
            timeline=TimelineSpec(
                epochs=8,
                epoch_duration=0.5,
                events=(
                    EventSpec(kind="attack", action="on", at=(2.0,)),
                    EventSpec(
                        kind="mobility",
                        action="jitter",
                        period=1.0,
                        start=1.0,
                        fraction=0.25,
                        amplitude=5.0,
                    ),
                ),
            ),
        )
        text = spec.to_toml()
        assert "[timeline]" in text
        assert text.count("[[timeline.events]]") == 2
        loaded = ScenarioSpec.from_toml(text)
        assert loaded == spec
        assert loaded.timeline == spec.timeline
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_timeline_coerced_from_plain_dict(self, tiny_config):
        from repro.events import TimelineSpec

        spec = ScenarioSpec(
            name="temporal",
            config=tiny_config,
            timeline={
                "epochs": 4,
                "events": [{"kind": "attack", "action": "on", "at": [1.0]}],
            },
        )
        assert isinstance(spec.timeline, TimelineSpec)
        assert spec.timeline.epochs == 4
        assert spec.timeline.events[0].kind == "attack"

    def test_timeline_survives_scaling(self, tiny_config):
        from repro.events import TimelineSpec

        spec = ScenarioSpec(
            name="temporal",
            config=tiny_config,
            timeline=TimelineSpec(epochs=3),
        )
        assert spec.scaled(0.5).timeline == spec.timeline

    def test_timeline_omitted_when_not_configured(self, spec):
        assert "timeline" not in spec.as_dict()
        assert "[timeline]" not in spec.to_toml()

    def test_unknown_timeline_field_rejected(self):
        with pytest.raises(ValueError, match="unknown timeline field"):
            ScenarioSpec.from_toml('name = "x"\n[timeline]\ntypo = 1\n')

    def test_unknown_beacon_field_rejected(self):
        with pytest.raises(ValueError, match="unknown beacon field"):
            ScenarioSpec.from_toml('name = "x"\n[beacons]\ntypo = 1\n')

    def test_conflicting_beacon_tables_rejected(self):
        with pytest.raises(ValueError, match="single \\[beacons\\] table"):
            ScenarioSpec.from_dict(
                {
                    "beacons": {"count": 4},
                    "config": {"beacons": {"count": 99}},
                }
            )
        # A config-level table alone still parses (legacy placement).
        spec = ScenarioSpec.from_dict({"config": {"beacons": {"count": 4}}})
        assert spec.beacons == BeaconSpec(count=4)

    def test_unsupported_suffix_rejected(self, spec, tmp_path):
        with pytest.raises(ValueError, match="unsupported spec format"):
            spec.to_file(tmp_path / "spec.yaml")
        bad = tmp_path / "spec.yaml"
        bad.write_text("name: x\n")
        with pytest.raises(ValueError, match="unsupported spec format"):
            ScenarioSpec.from_file(bad)


class TestEngineEquivalence:
    def test_spec_sweep_matches_direct_session_sweep(self, spec):
        """The spec-driven path reproduces a hand-built ``LadSession``
        sweep bit for bit: same grid, same scores, same rates."""
        session = spec.session()
        direct = LadSession(spec.config)

        points = spec.points()
        direct_points = type(session.sweep()).grid(
            spec.metrics, spec.attacks, spec.degrees, spec.fractions
        )
        assert points == direct_points

        spec_scores = session.sweep().attacked_scores(points)
        direct_scores = direct.sweep().attacked_scores(points)
        for point in points:
            np.testing.assert_array_equal(
                spec_scores[point], direct_scores[point]
            )

        spec_rates = session.sweep().detection_rates(
            points, false_positive_rate=spec.false_positive_rate
        )
        direct_rates = direct.sweep().detection_rates(
            points, false_positive_rate=spec.false_positive_rate
        )
        assert spec_rates == direct_rates

    def test_scaled_spec_scales_config_samples(self, spec):
        scaled = spec.scaled(0.5)
        assert scaled.config.num_training_samples == 20  # floor is 20
        assert scaled.metrics == spec.metrics
        assert spec.scaled(1.0) is spec

    def test_session_uses_spec_localizer_and_density(self, spec):
        session = spec.session(group_size=80)
        assert isinstance(session, LadSession)
        assert session.config.group_size == 80
        assert type(session.localizer).__name__ == "BeaconlessLocalizer"
        assert (
            session.localizer.resolution
            == spec.config.localization_resolution
        )

    def test_sessions_one_per_density(self, tiny_config):
        spec = ScenarioSpec(group_sizes=(20, 40), config=tiny_config)
        sessions = list(spec.sessions())
        assert [m for _, m, _ in sessions] == [20, 40]
        assert [s.config.group_size for _, _, s in sessions] == [20, 40]

    def test_sessions_localizer_outer_density_inner(self, tiny_config):
        spec = ScenarioSpec(
            group_sizes=(20, 40), localizers=("centroid", "dvhop"), config=tiny_config
        )
        sessions = list(spec.sessions())
        assert [(name, m) for name, m, _ in sessions] == [
            ("centroid", 20),
            ("centroid", 40),
            ("dvhop", 20),
            ("dvhop", 40),
        ]
        for name, m, session in sessions:
            assert isinstance(session.localizer, LOCALIZERS.get(name))
            assert session.config.group_size == m
