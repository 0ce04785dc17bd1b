"""Tests for :mod:`repro.experiments.store` (the trained-state cache)."""

import multiprocessing

import numpy as np
import pytest

from repro.core import training as training_module
from repro.experiments.config import SimulationConfig
from repro.experiments.scenario import ScenarioSpec
from repro.experiments.session import LadSession
from repro.experiments.store import ArtifactStore, fingerprint_key


@pytest.fixture()
def tiny_config():
    return SimulationConfig(
        group_size=40,
        num_training_samples=30,
        training_samples_per_network=15,
        num_victims=30,
        victims_per_network=15,
        gz_omega=300,
        seed=4242,
    )


class TestArtifactStore:
    def test_miss_then_hit_round_trip(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = fingerprint_key({"seed": 7})
        assert store.load("benign_scores", key) is None
        store.save("benign_scores", key, scores=np.arange(5.0))
        loaded = store.load("benign_scores", key)
        np.testing.assert_array_equal(loaded["scores"], np.arange(5.0))
        assert store.stats() == {"hits": 1, "misses": 1}
        assert store.hit_counts["benign_scores"] == 1

    def test_fingerprint_key_is_order_insensitive_and_value_sensitive(self):
        a = fingerprint_key({"x": 1, "y": 2.5})
        b = fingerprint_key({"y": 2.5, "x": 1})
        c = fingerprint_key({"x": 1, "y": 2.5000001})
        assert a == b
        assert a != c

    @pytest.mark.parametrize(
        "payload",
        [
            b"not an npz",
            b"PK\x03\x04 truncated zip garbage",  # raises zipfile.BadZipFile
        ],
    )
    def test_corrupt_artifact_counts_as_miss(self, tmp_path, payload):
        store = ArtifactStore(tmp_path)
        key = fingerprint_key({"seed": 1})
        path = store.path_for("victims", key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(payload)
        assert store.load("victims", key) is None
        assert store.misses == 1

    def test_truncated_archive_is_quarantined_and_recoverable(self, tmp_path):
        """A corrupt artifact is moved aside on the failed load, so the
        subsequent ``save`` of the same key publishes onto a free path
        instead of racing the half-read file; the re-saved artifact then
        loads as a normal hit."""
        store = ArtifactStore(tmp_path)
        key = fingerprint_key({"seed": 13})
        path = store.save("attacked_scores", key, scores=np.arange(16.0))
        # Truncate the real npz mid-archive (a crashed non-atomic writer).
        payload = path.read_bytes()
        path.write_bytes(payload[: len(payload) // 2])

        assert store.load("attacked_scores", key) is None
        assert store.misses == 1 and store.hits == 0
        assert not path.exists()
        quarantined = path.with_name(path.name + ".corrupt")
        assert quarantined.exists()
        assert quarantined.read_bytes() == payload[: len(payload) // 2]

        # The key is writable and readable again.
        store.save("attacked_scores", key, scores=np.arange(16.0))
        reloaded = store.load("attacked_scores", key)
        np.testing.assert_array_equal(reloaded["scores"], np.arange(16.0))
        assert store.hit_counts["attacked_scores"] == 1

    def test_missing_artifact_is_not_quarantined(self, tmp_path):
        """A plain miss (no file at all) must not leave quarantine debris."""
        store = ArtifactStore(tmp_path)
        key = fingerprint_key({"seed": 14})
        assert store.load("victims", key) is None
        assert list(tmp_path.rglob("*.corrupt")) == []

    def test_empty_artifact_rejected(self, tmp_path):
        store = ArtifactStore(tmp_path)
        with pytest.raises(ValueError, match="empty artifact"):
            store.save("victims", "deadbeef")

    def test_multiple_arrays_round_trip(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = fingerprint_key({"k": 1})
        store.save(
            "victims", key, observations=np.ones((2, 3)), locations=np.zeros((2, 2))
        )
        loaded = store.load("victims", key)
        assert set(loaded) == {"observations", "locations"}


def _spam_npz(root, category, key, value, rounds):
    """Child-process body: hammer one key with whole-document publishes."""
    store = ArtifactStore(root)
    payload = np.full(64, float(value))
    for _ in range(rounds):
        store.save(category, key, scores=payload)


class TestCrossProcessPublish:
    """Two processes racing to publish the same key: readers must never
    see a torn document, and the race must leave no filesystem debris."""

    @pytest.fixture()
    def fork(self):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork start method unavailable on this platform")
        return multiprocessing.get_context("fork")

    def test_racing_npz_writers_never_expose_a_torn_artifact(
        self, tmp_path, fork
    ):
        key = fingerprint_key({"race": "npz"})
        writers = [
            fork.Process(
                target=_spam_npz,
                args=(tmp_path, "attacked_scores", key, value, 150),
            )
            for value in (1.0, 2.0)
        ]
        for writer in writers:
            writer.start()
        reader = ArtifactStore(tmp_path)
        observed = set()
        try:
            while any(writer.is_alive() for writer in writers):
                loaded = reader.load("attacked_scores", key)
                if loaded is None:
                    continue
                scores = loaded["scores"]
                # Whole-document atomicity: every successful read is one
                # writer's complete payload, never a mixture or truncation.
                assert scores.shape == (64,)
                np.testing.assert_array_equal(scores, np.full(64, scores[0]))
                observed.add(float(scores[0]))
        finally:
            for writer in writers:
                writer.join()
        assert all(writer.exitcode == 0 for writer in writers)
        assert observed <= {1.0, 2.0}
        # Last rename wins: exactly one artifact, no temp or quarantine
        # debris anywhere in the store.
        final = ArtifactStore(tmp_path).load("attacked_scores", key)
        assert float(final["scores"][0]) in (1.0, 2.0)
        category_dir = reader.path_for("attacked_scores", key).parent
        assert [p.name for p in category_dir.iterdir()] == [f"{key}.npz"]
        assert list(tmp_path.rglob("*.corrupt")) == []
        assert list(tmp_path.rglob("*.tmp")) == []


class TestTrainingSharesSessionKnowledge:
    """Thresholds are trained under the g(z) table that scores the claims."""

    @staticmethod
    def _session(gz_omega):
        # The tiny_sweep.toml scenario at the given g(z) resolution.
        return LadSession(
            SimulationConfig(
                group_size=40,
                num_training_samples=30,
                training_samples_per_network=15,
                num_victims=30,
                victims_per_network=15,
                gz_omega=gz_omega,
                seed=777,
            )
        )

    def test_training_estimates_use_the_session_knowledge(self):
        session = self._session(300)
        training = session.training_data
        np.testing.assert_array_equal(
            training.estimated_locations,
            session.localizer.localize_observations(
                session.knowledge, training.observations
            ),
        )

    def test_default_omega_keys_stay_warm(self):
        """The ω = 1000 benign-score key predates the fix and must not move
        (its values did not); every other ω gets a fresh key."""
        assert self._session(1000).benign_scores_key("diff") == (
            "9f8d175e52c0e402bc761bda4abc1d0444b5c58be2e2775a8d2fd4355ec50c10"
        )
        assert "training_knowledge" in self._session(300).training_fingerprint()


class TestSessionCaching:
    def test_warm_cache_skips_training_with_identical_results(
        self, tiny_config, tmp_path, monkeypatch
    ):
        cold = LadSession(tiny_config, store=ArtifactStore(tmp_path))
        benign_cold = cold.benign_scores("diff")
        victims_cold = cold.victims()
        assert cold.store.hits == 0 and cold.store.misses == 2

        # The warm session must never collect training data: make the
        # collection explode if it is reached.
        def boom(*args, **kwargs):
            raise AssertionError("training pass was not skipped")

        monkeypatch.setattr(training_module, "collect_training_data", boom)
        monkeypatch.setattr(
            "repro.experiments.session.collect_training_data", boom
        )

        warm = LadSession(tiny_config, store=ArtifactStore(tmp_path))
        benign_warm = warm.benign_scores("diff")
        victims_warm = warm.victims()
        assert warm.store.hits == 2 and warm.store.misses == 0
        assert warm._training is None  # training never materialised
        np.testing.assert_array_equal(benign_cold, benign_warm)
        np.testing.assert_array_equal(
            victims_cold.observations, victims_warm.observations
        )
        np.testing.assert_array_equal(
            victims_cold.actual_locations, victims_warm.actual_locations
        )

    def test_cached_results_match_storeless_session(self, tiny_config, tmp_path):
        LadSession(tiny_config, store=tmp_path).benign_scores("diff")
        warm = LadSession(tiny_config, store=tmp_path)
        plain = LadSession(tiny_config)
        np.testing.assert_array_equal(
            warm.benign_scores("diff"), plain.benign_scores("diff")
        )

    def test_warm_sweep_reproduces_cold_sweep(self, tiny_config, tmp_path):
        spec = ScenarioSpec(
            name="cache",
            metrics=("diff",),
            degrees=(80.0, 160.0),
            fractions=(0.1,),
            false_positive_rate=0.05,
            config=tiny_config,
        )
        cold_session = spec.session(store=tmp_path)
        cold = cold_session.sweep().detection_rates(
            spec.points(), false_positive_rate=spec.false_positive_rate
        )
        assert cold_session.store.misses > 0

        warm_session = spec.session(store=tmp_path)
        warm = warm_session.sweep().detection_rates(
            spec.points(), false_positive_rate=spec.false_positive_rate
        )
        assert warm_session.store.hits >= 2  # benign scores + victims
        assert warm_session.store.misses == 0
        assert warm == cold

    def test_training_fingerprint_ignores_victim_fields(self, tiny_config):
        a = LadSession(tiny_config)
        b = LadSession(
            SimulationConfig(
                **{
                    **{
                        f: getattr(tiny_config, f)
                        for f in (
                            "group_size",
                            "radio_range",
                            "sigma",
                            "grid_rows",
                            "grid_cols",
                            "region_size",
                            "num_training_samples",
                            "training_samples_per_network",
                            "localization_resolution",
                            "gz_omega",
                            "seed",
                        )
                    },
                    "num_victims": 10,
                    "victims_per_network": 5,
                }
            )
        )
        assert a.training_fingerprint() == b.training_fingerprint()
        assert a.victims_fingerprint() != b.victims_fingerprint()

    def test_fingerprint_sensitive_to_seed_and_density(self, tiny_config):
        a = LadSession(tiny_config)
        b = LadSession(tiny_config.with_seed(1))
        c = LadSession(tiny_config.with_group_size(80))
        assert a.training_fingerprint() != b.training_fingerprint()
        assert a.training_fingerprint() != c.training_fingerprint()

    def test_store_accepts_path_like(self, tiny_config, tmp_path):
        session = LadSession(tiny_config, store=str(tmp_path / "cache"))
        assert isinstance(session.store, ArtifactStore)

    def test_overridden_metric_does_not_hit_stock_cache(
        self, tiny_config, tmp_path, monkeypatch
    ):
        """The benign-score key includes the metric implementation: a
        re-registered 'diff' must not be served the stock DiffMetric's
        cached scores."""
        from repro.core.metrics import METRICS, DiffMetric

        stock = LadSession(tiny_config, store=tmp_path).benign_scores("diff")

        class ScaledDiffMetric(DiffMetric):
            def compute(self, observations, expected, group_size=None):
                return 2.0 * super().compute(observations, expected, group_size)

        monkeypatch.setitem(METRICS._classes, "diff", ScaledDiffMetric)
        warm = LadSession(tiny_config, store=tmp_path)
        scores = warm.benign_scores("diff")
        assert warm.store.miss_counts["benign_scores"] == 1
        np.testing.assert_array_equal(scores, 2.0 * stock)
