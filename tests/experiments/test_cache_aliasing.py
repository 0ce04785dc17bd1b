"""Cache-aliasing regression tests.

The artifact store is content-addressed, so the only way a warm cache can
lie is a fingerprint that under-describes what produced an artifact.  These
tests pin the guarantee the beacon work introduced: two sessions differing
only in their localizer (or beacon layout) produce disjoint artifact keys
and a sweep under one scheme never consumes another scheme's cached scores
— while a repeated sweep of the *same* beacon scheme is served entirely
from cache, bit-identical to the cold run.  The fingerprint audit at the
end pins, field by field, which keys every config and scenario-spec input
reaches.
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from repro.backend import BackendSpec
from repro.events import EventSpec, TimelineSpec
from repro.experiments.config import SimulationConfig
from repro.experiments.scenario import ScenarioSpec
from repro.experiments.session import LadSession
from repro.experiments.store import ArtifactStore, fingerprint_key
from repro.experiments.sweep import SweepPoint
from repro.localization.beacons import BeaconSpec


@pytest.fixture()
def tiny_config():
    return SimulationConfig(
        group_size=40,
        num_training_samples=20,
        training_samples_per_network=10,
        num_victims=20,
        victims_per_network=10,
        gz_omega=300,
        seed=90210,
        beacons=BeaconSpec(count=9, transmit_range=450.0),
    )


def _attacked_key(session):
    (key,) = session.sweep().keys([SweepPoint("diff", "dec_bounded", 120.0, 0.1)])
    return key


def _benign_key(session, metric="diff"):
    fingerprint = session.training_fingerprint()
    fingerprint["metric"] = metric
    return fingerprint_key(fingerprint)


class TestDisjointKeys:
    def test_sessions_differing_only_in_localizer(self, tiny_config):
        from repro.localization.base import LOCALIZERS

        sessions = {
            name: LadSession(tiny_config, localizer=name)
            for name in LOCALIZERS.available()
        }
        benign_keys = [_benign_key(s) for s in sessions.values()]
        attacked_keys = [_attacked_key(s) for s in sessions.values()]
        assert len(set(benign_keys)) == len(sessions)
        assert len(set(attacked_keys)) == len(sessions)

    def test_rssi_radio_retune_only_touches_rssi_keys(self, tiny_config):
        """Modality-aware fingerprints: re-tuning the RSSI radio model
        changes the rssi scheme's keys and nobody else's."""
        retuned = tiny_config.with_beacons(
            BeaconSpec(
                count=9,
                transmit_range=450.0,
                tx_power_dbm=-45.0,
                path_loss_exponent=3.0,
            )
        )
        for localizer in ("centroid", "mmse", "dvhop", "apit", "tdoa"):
            a = LadSession(tiny_config, localizer=localizer)
            b = LadSession(retuned, localizer=localizer)
            assert _benign_key(a) == _benign_key(b)
            assert _attacked_key(a) == _attacked_key(b)
        a = LadSession(tiny_config, localizer="rssi")
        b = LadSession(retuned, localizer="rssi")
        assert _benign_key(a) != _benign_key(b)
        assert _attacked_key(a) != _attacked_key(b)

    def test_beacon_compromise_touches_every_beacon_scheme(self, tiny_config):
        compromised = tiny_config.with_beacons(
            BeaconSpec(count=9, transmit_range=450.0, compromised=0.25)
        )
        for localizer in ("centroid", "mmse", "dvhop", "rssi", "tdoa"):
            a = LadSession(tiny_config, localizer=localizer)
            b = LadSession(compromised, localizer=localizer)
            assert _benign_key(a) != _benign_key(b)

    def test_tdoa_solver_variants_have_disjoint_keys(self, tiny_config):
        """The two hyperbolic solvers agree only to conditioning, so their
        artifacts must never alias (the solver knob reaches the repr)."""
        from repro.localization.tdoa import TdoaMultilaterationLocalizer

        a = LadSession(
            tiny_config, localizer=TdoaMultilaterationLocalizer(solver="lstsq")
        )
        b = LadSession(
            tiny_config,
            localizer=TdoaMultilaterationLocalizer(solver="closed_form"),
        )
        assert _benign_key(a) != _benign_key(b)
        assert _attacked_key(a) != _attacked_key(b)

    def test_sessions_differing_only_in_beacon_layout(self, tiny_config):
        variants = [
            BeaconSpec(count=9, transmit_range=450.0),
            BeaconSpec(count=16, transmit_range=450.0),
            BeaconSpec(count=9, layout="perimeter", transmit_range=450.0),
            BeaconSpec(count=9, transmit_range=450.0, noise_std=2.0),
            BeaconSpec(count=9, transmit_range=450.0, seed=1),
        ]
        sessions = [
            LadSession(tiny_config.with_beacons(spec), localizer="centroid")
            for spec in variants
        ]
        assert len({_benign_key(s) for s in sessions}) == len(variants)
        assert len({_attacked_key(s) for s in sessions}) == len(variants)

    def test_beaconless_ignores_beacon_spec(self, tiny_config):
        """A beaconless session never reads the beacons, so two configs
        differing only there legitimately share trained artifacts."""
        with_beacons = LadSession(tiny_config, localizer="beaconless")
        without = LadSession(
            tiny_config.with_beacons(None), localizer="beaconless"
        )
        assert _benign_key(with_beacons) == _benign_key(without)
        assert _attacked_key(with_beacons) == _attacked_key(without)


class TestZeroCrossHits:
    def test_second_localizer_recomputes_everything_scored(
        self, tiny_config, tmp_path
    ):
        spec = ScenarioSpec(
            name="alias",
            metrics=("diff",),
            degrees=(80.0, 160.0),
            fractions=(0.1,),
            false_positive_rate=0.05,
            config=tiny_config,
        )
        first = spec.session(localizer="centroid", store=ArtifactStore(tmp_path))
        first.sweep().detection_rates(
            spec.points(), false_positive_rate=spec.false_positive_rate
        )
        assert first.store.hits == 0

        second = spec.session(localizer="mmse", store=ArtifactStore(tmp_path))
        second.sweep().detection_rates(
            spec.points(), false_positive_rate=spec.false_positive_rate
        )
        # Nothing scored under one scheme is served to the other.
        assert second.store.hit_counts["benign_scores"] == 0
        assert second.store.hit_counts["attacked_scores"] == 0
        # The victims' honest observations are localizer-independent by
        # construction, so sharing them across schemes is correct (and
        # documented) — pin that this is the *only* shared artifact.
        assert second.store.hit_counts["victims"] == 1
        assert set(second.store.hit_counts) == {"victims"}


class TestWarmEqualsColdForBeaconSweep:
    @pytest.mark.parametrize("localizer", ["centroid", "dvhop"])
    def test_warm_sweep_fully_hits_and_matches_cold(
        self, tiny_config, tmp_path, localizer
    ):
        spec = ScenarioSpec(
            name="beacon_warm",
            metrics=("diff",),
            degrees=(80.0, 160.0),
            fractions=(0.1,),
            false_positive_rate=0.05,
            localizer=localizer,
            config=tiny_config,
        )
        cold_session = spec.session(store=ArtifactStore(tmp_path))
        cold = dict(
            cold_session.sweep().iter_attacked_scores(spec.points())
        )
        cold_rates = cold_session.sweep().detection_rates(
            spec.points(), false_positive_rate=spec.false_positive_rate
        )

        warm_session = spec.session(store=ArtifactStore(tmp_path))
        warm = dict(
            warm_session.sweep().iter_attacked_scores(spec.points())
        )
        warm_rates = warm_session.sweep().detection_rates(
            spec.points(), false_positive_rate=spec.false_positive_rate
        )
        assert warm_session.store.misses == 0
        assert warm_session.store.hit_counts["attacked_scores"] >= len(
            spec.points()
        )
        assert warm_rates == cold_rates
        for point, scores in cold.items():
            np.testing.assert_array_equal(scores, warm[point])


class TestModalityMatrixScenario:
    """Acceptance: the shipped `modality_matrix.toml` sweeps all seven
    schemes with zero cross-scheme score aliasing, and a warm re-run is
    served entirely from cache with identical rates."""

    def test_all_seven_schemes_cold_then_warm(self, tmp_path):
        spec = ScenarioSpec.from_file(
            Path(__file__).resolve().parents[2]
            / "examples"
            / "specs"
            / "modality_matrix.toml"
        )
        localizers = spec.localizer_values()
        assert len(localizers) == 7

        def run_all(store):
            rates = {}
            for localizer in localizers:
                session = spec.session(localizer=localizer, store=store)
                rates[localizer] = session.sweep().detection_rates(
                    spec.points(),
                    false_positive_rate=spec.false_positive_rate,
                )
            return rates

        cold_store = ArtifactStore(tmp_path)
        cold = run_all(cold_store)
        # Scored artifacts are never shared between schemes...
        assert cold_store.hit_counts["benign_scores"] == 0
        assert cold_store.hit_counts["attacked_scores"] == 0

        warm_store = ArtifactStore(tmp_path)
        warm = run_all(warm_store)
        # ...while the same scheme re-run is a pure cache read.
        assert warm_store.misses == 0
        assert warm == cold


#: The audit's tiny beaconless config; each row changes one field of it.
_AUDIT_CONFIG = SimulationConfig(
    group_size=40,
    num_training_samples=20,
    training_samples_per_network=10,
    num_victims=20,
    victims_per_network=10,
    gz_omega=300,
    seed=90210,
)

#: The audited point (diff, dec_bounded, D = 80, x = 0.1) and its timeline.
_AUDIT_POINT = SweepPoint("diff", "dec_bounded", 80.0, 0.1)
_AUDIT_TIMELINE = TimelineSpec(
    epochs=3, events=(EventSpec(kind="attack", action="on", at=(1.0,)),)
)

_ALL_KEYS = {"benign", "victims", "attacked", "temporal"}
_SCORED_KEYS = {"benign", "attacked", "temporal"}
_VICTIM_KEYS = {"victims", "attacked", "temporal"}

#: Every ``SimulationConfig`` field: a changed value, and the keys that
#: change with it under the beaconless localizer.
_FIELD_TABLE = {
    "group_size": (41, _ALL_KEYS),
    "radio_range": (101.0, _ALL_KEYS),
    "sigma": (51.0, _ALL_KEYS),
    "grid_rows": (9, _ALL_KEYS),
    "grid_cols": (9, _ALL_KEYS),
    "region_size": (999.0, _ALL_KEYS),
    "seed": (1, _ALL_KEYS),
    "num_training_samples": (21, {"benign"}),
    "training_samples_per_network": (11, {"benign"}),
    "num_victims": (21, _VICTIM_KEYS),
    "victims_per_network": (11, _VICTIM_KEYS),
    "localization_resolution": (4.0, _SCORED_KEYS),
    "gz_omega": (301, _SCORED_KEYS),
    "beacons": (BeaconSpec(count=9), set()),
    "backend": (BackendSpec("numpy"), set()),
}


def _audit_keys(config, *, localizer="beaconless", timeline=_AUDIT_TIMELINE):
    """The four store keys the audit tracks, for one config."""
    return _session_keys(LadSession(config, localizer=localizer), timeline)


def _session_keys(session, timeline, point=_AUDIT_POINT):
    """The four store keys the audit tracks, for one session."""
    return {
        "benign": session.benign_scores_key("diff"),
        "victims": fingerprint_key(session.victims_fingerprint()),
        "attacked": session.sweep().keys([point])[0],
        "temporal": session.temporal(timeline).keys([point])[0],
    }


def _moved(before, after):
    """Names of the audited keys that differ between two key sets."""
    return {name for name in before if before[name] != after[name]}


def _changed_keys(field, value, *, localizer):
    """Names of the audited keys that move when *field* becomes *value*."""
    changed = dataclasses.replace(_AUDIT_CONFIG, **{field: value})
    return _moved(
        _audit_keys(_AUDIT_CONFIG, localizer=localizer),
        _audit_keys(changed, localizer=localizer),
    )


#: The audit's scenario: one point (the audited one) over the audit config.
_AUDIT_SPEC = ScenarioSpec(
    metrics=("diff",),
    attacks=("dec_bounded",),
    degrees=(80.0,),
    fractions=(0.1,),
    timeline=_AUDIT_TIMELINE,
    config=_AUDIT_CONFIG,
)

#: The audit timeline with its attack switched on one epoch later.
_LATER_TIMELINE = TimelineSpec(
    epochs=3, events=(EventSpec(kind="attack", action="on", at=(2.0,)),)
)

#: Every ``ScenarioSpec`` field: a changed value, and the keys that change
#: in each session the changed spec yields (in ``sessions()`` order),
#: against the audit spec's one session.
_SPEC_FIELD_TABLE = {
    "name": ("renamed", [set()]),
    "description": ("described", [set()]),
    "metrics": (("diff", "probability"), [set()]),
    "attacks": (("dec_bounded", "dec_only"), [set()]),
    "degrees": ((80.0, 120.0), [set()]),
    "fractions": ((0.1, 0.2), [set()]),
    "group_sizes": ((41,), [_ALL_KEYS]),
    "localizer": ("centroid", [_SCORED_KEYS]),
    "localizers": (("beaconless", "centroid"), [set(), _SCORED_KEYS]),
    "false_positive_rate": (0.05, [set()]),
    "timeline": (_LATER_TIMELINE, [{"temporal"}]),
    "config": (dataclasses.replace(_AUDIT_CONFIG, gz_omega=301), [_SCORED_KEYS]),
}


#: Every ``SweepPoint`` field: a changed value.  Each moves the attacked
#: and temporal keys and the point's random stream, and nothing else.
_POINT_FIELD_TABLE = {
    "metric": "probability",
    "attack": "dec_only",
    "degree_of_damage": 81.0,
    "compromised_fraction": 0.2,
}


def _spec_keys(spec):
    """The audited keys of every session *spec* yields, in order."""
    return [
        _session_keys(session, spec.timeline) for _, _, session in spec.sessions()
    ]


class TestFingerprintAudit:
    """Which store keys each input reaches.

    A point's store key is both its cache identity and its only progress
    record, so each input must move exactly the keys of the artifacts it
    shapes: benign scores, victims, attacked scores and temporal records.
    """

    def test_every_config_field_has_one_row(self):
        fields = {field.name for field in dataclasses.fields(SimulationConfig)}
        assert fields == set(_FIELD_TABLE)

    @pytest.mark.parametrize(
        "field", [field.name for field in dataclasses.fields(SimulationConfig)]
    )
    def test_beaconless_field_changes_exactly_its_keys(self, field):
        value, expected = _FIELD_TABLE[field]
        assert _changed_keys(field, value, localizer="beaconless") == expected

    @pytest.mark.parametrize(
        "field, value, expected",
        [
            ("beacons", BeaconSpec(count=9), _SCORED_KEYS),
            ("localization_resolution", 4.0, set()),
        ],
        ids=["beacons", "localization_resolution"],
    )
    def test_centroid_field_changes_exactly_its_keys(self, field, value, expected):
        assert _changed_keys(field, value, localizer="centroid") == expected

    def test_timeline_event_changes_only_the_temporal_key(self):
        before = _audit_keys(_AUDIT_CONFIG)
        after = _audit_keys(_AUDIT_CONFIG, timeline=_LATER_TIMELINE)
        assert _moved(before, after) == {"temporal"}

    def test_every_spec_field_has_one_row(self):
        fields = {field.name for field in dataclasses.fields(ScenarioSpec)}
        assert fields == set(_SPEC_FIELD_TABLE)

    @pytest.mark.parametrize(
        "field", [field.name for field in dataclasses.fields(ScenarioSpec)]
    )
    def test_spec_field_changes_exactly_its_keys(self, field):
        value, expected = _SPEC_FIELD_TABLE[field]
        (before,) = _spec_keys(_AUDIT_SPEC)
        changed = dataclasses.replace(_AUDIT_SPEC, **{field: value})
        assert [_moved(before, after) for after in _spec_keys(changed)] == expected

    def test_every_point_field_has_one_row(self):
        fields = {field.name for field in dataclasses.fields(SweepPoint)}
        assert fields == set(_POINT_FIELD_TABLE)

    @pytest.mark.parametrize(
        "field", [field.name for field in dataclasses.fields(SweepPoint)]
    )
    def test_point_field_changes_exactly_its_keys_and_stream(self, field):
        session = LadSession(_AUDIT_CONFIG)
        changed = dataclasses.replace(
            _AUDIT_POINT, **{field: _POINT_FIELD_TABLE[field]}
        )
        before = _session_keys(session, _AUDIT_TIMELINE)
        after = _session_keys(session, _AUDIT_TIMELINE, changed)
        assert _moved(before, after) == {"attacked", "temporal"}
        assert changed.stream_name() != _AUDIT_POINT.stream_name()

    @pytest.mark.parametrize(
        "field, spelling", [("metric", "DM"), ("attack", "Dec-Bounded")]
    )
    def test_respelled_point_moves_no_key_and_no_stream(self, field, spelling):
        """A point's key, stream and shard read registered names only."""
        session = LadSession(_AUDIT_CONFIG)
        respelled = dataclasses.replace(_AUDIT_POINT, **{field: spelling})
        before = _session_keys(session, _AUDIT_TIMELINE)
        assert _session_keys(session, _AUDIT_TIMELINE, respelled) == before
        assert respelled.stream_name() == _AUDIT_POINT.stream_name()
