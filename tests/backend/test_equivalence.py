"""Registry-parametrised backend equivalence suite.

Three contracts are pinned here:

* **numpy-exact equivalence** — a session configured with an explicit
  ``numpy`` :class:`BackendSpec` produces bit-for-bit the same estimates,
  scores and decisions as a session with no backend configured at all,
  for every registered localization scheme;
* **cache aliasing** — numpy-exact selections contribute nothing to the
  artifact fingerprints (a warm cache written without the backend layer
  still fully hits), while a non-exact backend carries its own identity
  and never consumes the reference cache's scored artifacts;
* **torch equivalence** (auto-skipped when torch is not installed) — the
  torch backend matches the reference within tolerance at the op level
  and yields identical detection decisions end to end.
"""

import numpy as np
import pytest

from repro.backend import BACKENDS, BackendSpec, NumpyBackend, TorchBackend
from repro.experiments.config import SimulationConfig
from repro.experiments.scenario import ScenarioSpec
from repro.experiments.session import LadSession
from repro.experiments.store import ArtifactStore
from repro.experiments.sweep import SweepRunner
from repro.localization.beacons import BeaconSpec
from repro.localization.beaconless import BeaconlessLocalizer

LOCALIZERS = ("beaconless", "centroid", "mmse", "dvhop", "apit")

needs_torch = pytest.mark.skipif(
    not TorchBackend.is_available(), reason="torch is not installed"
)


@pytest.fixture(scope="module")
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


@pytest.fixture(scope="module")
def shadow_backend():
    """A numpy twin registered as a *non*-exact backend.

    It computes exactly what the reference computes, but declares
    ``numpy_exact = False`` — the cleanest probe that fingerprinting keys
    off the declared contract, not the actual arithmetic.
    """
    name = "numpy_shadow"
    if name not in BACKENDS:

        @BACKENDS.register(name=name)
        class NumpyShadowBackend(NumpyBackend):
            name = "numpy_shadow"
            numpy_exact = False

    return BACKENDS.get(name)


class TestNumpyExactEquivalence:
    @pytest.mark.parametrize("localizer", LOCALIZERS)
    def test_benign_pipeline_bit_identical(self, tiny_config, localizer):
        reference = LadSession(tiny_config, localizer=localizer)
        explicit = LadSession(
            tiny_config.with_backend(BackendSpec(name="numpy")),
            localizer=localizer,
        )
        np.testing.assert_array_equal(
            reference.training_data.estimated_locations,
            explicit.training_data.estimated_locations,
        )
        np.testing.assert_array_equal(
            reference.benign_scores("diff"), explicit.benign_scores("diff")
        )

    def test_attacked_scores_bit_identical(self, tiny_config):
        reference = LadSession(tiny_config)
        explicit = LadSession(
            tiny_config.with_backend(BackendSpec(name="numpy"))
        )
        for session in (reference, explicit):
            assert isinstance(session.backend, NumpyBackend)
        np.testing.assert_array_equal(
            reference.attacked_scores(
                "diff",
                "dec_bounded",
                degree_of_damage=120.0,
                compromised_fraction=0.1,
            ),
            explicit.attacked_scores(
                "diff",
                "dec_bounded",
                degree_of_damage=120.0,
                compromised_fraction=0.1,
            ),
        )

    def test_kernel_level_bit_identity(self, small_generator, small_index):
        """localize_observations through an explicit numpy backend equals
        the default down to the bit."""
        obs = small_index.observations_of_nodes(np.arange(10))
        localizer = BeaconlessLocalizer(resolution=4.0)
        default = localizer.localize_observations(
            small_generator.knowledge(omega=400), obs
        )
        explicit = localizer.localize_observations(
            small_generator.knowledge(omega=400, backend="numpy"), obs
        )
        np.testing.assert_array_equal(default, explicit)


class TestHierarchicalCoarseSearch:
    def test_two_tier_coarse_matches_dense(self, small_knowledge, small_index):
        obs = small_index.observations_of_nodes(np.arange(10))
        dense = BeaconlessLocalizer(resolution=4.0)
        tiered = BeaconlessLocalizer(resolution=4.0, coarse_tiers=2)
        np.testing.assert_array_equal(
            dense.localize_observations(small_knowledge, obs),
            tiered.localize_observations(small_knowledge, obs),
        )

    def test_default_repr_unchanged_by_new_fields(self):
        """The coarse_tiers fields must not leak into the default repr —
        it feeds the localizer fingerprint of every cached artifact."""
        assert repr(BeaconlessLocalizer()) == (
            "BeaconlessLocalizer(search_margin=250.0, coarse_step=25.0, "
            "resolution=2.0, refine_factor=5.0, name='beaconless-mle')"
        )
        assert "coarse_tiers=2" in repr(BeaconlessLocalizer(coarse_tiers=2))

    def test_validation(self):
        with pytest.raises(ValueError, match="coarse_tiers"):
            BeaconlessLocalizer(coarse_tiers=3)
        with pytest.raises(ValueError, match="tier_stride"):
            BeaconlessLocalizer(coarse_tiers=2, tier_stride=1)


class TestCacheAliasing:
    def test_numpy_spec_adds_no_fingerprint_key(self, tiny_config):
        reference = LadSession(tiny_config)
        explicit = LadSession(
            tiny_config.with_backend(BackendSpec(name="numpy"))
        )
        for session in (reference, explicit):
            assert "backend" not in session.training_fingerprint()
        assert (
            reference.training_fingerprint()
            == explicit.training_fingerprint()
        )
        points = SweepRunner.grid(["diff"], ["dec_bounded"], [120.0], [0.1])
        assert reference.sweep().keys(points) == explicit.sweep().keys(points)

    def test_warm_sweep_from_pre_backend_cache_fully_hits(
        self, tiny_config, tmp_path
    ):
        """A cache written by a backend-less run serves a ``[backend]
        name=numpy`` run without a single miss — the headline aliasing
        guarantee for caches that predate the backend layer."""
        points_kwargs = dict(
            name="warm",
            metrics=("diff",),
            degrees=(80.0, 160.0),
            fractions=(0.1,),
            false_positive_rate=0.05,
        )
        cold_spec = ScenarioSpec(config=tiny_config, **points_kwargs)
        cold = cold_spec.session(store=ArtifactStore(tmp_path))
        cold_rates = cold.sweep().detection_rates(
            cold_spec.points(), false_positive_rate=0.05
        )

        warm_spec = ScenarioSpec(
            config=tiny_config.with_backend(BackendSpec(name="numpy")),
            **points_kwargs,
        )
        warm = warm_spec.session(store=ArtifactStore(tmp_path))
        warm_rates = warm.sweep().detection_rates(
            warm_spec.points(), false_positive_rate=0.05
        )
        assert warm.store.misses == 0
        assert warm_rates == cold_rates

    def test_non_exact_backend_carries_identity(
        self, tiny_config, shadow_backend
    ):
        session = LadSession(
            tiny_config.with_backend(BackendSpec(name="numpy_shadow"))
        )
        fingerprint = session.training_fingerprint()
        assert fingerprint["backend"] == {
            "name": "numpy_shadow",
            "device": "cpu",
            "dtype": "float64",
        }
        reference = LadSession(tiny_config)
        points = SweepRunner.grid(["diff"], ["dec_bounded"], [120.0], [0.1])
        assert session.sweep().keys(points) != reference.sweep().keys(points)

    def test_non_exact_backend_never_reads_reference_scores(
        self, tiny_config, tmp_path, shadow_backend
    ):
        spec_kwargs = dict(
            name="shadow",
            metrics=("diff",),
            degrees=(80.0,),
            fractions=(0.1,),
            false_positive_rate=0.05,
        )
        cold_spec = ScenarioSpec(config=tiny_config, **spec_kwargs)
        cold_spec.session(store=ArtifactStore(tmp_path)).sweep().detection_rates(
            cold_spec.points(), false_positive_rate=0.05
        )

        shadow_spec = ScenarioSpec(
            config=tiny_config.with_backend(BackendSpec(name="numpy_shadow")),
            **spec_kwargs,
        )
        shadow = shadow_spec.session(store=ArtifactStore(tmp_path))
        shadow.sweep().detection_rates(
            shadow_spec.points(), false_positive_rate=0.05
        )
        assert shadow.store.hit_counts["benign_scores"] == 0
        assert shadow.store.hit_counts["attacked_scores"] == 0


@needs_torch
class TestTorchEquivalence:
    @pytest.fixture(scope="class")
    def torch_backend(self):
        return BackendSpec(name="torch", device="cpu").build()

    @pytest.fixture(scope="class")
    def numpy_backend(self):
        return NumpyBackend()

    def test_op_level_equivalence(self, torch_backend, numpy_backend, rng):
        obs = rng.integers(0, 5, size=(6, 12)).astype(np.float64)
        probs = rng.uniform(0.05, 0.6, size=(9, 12))
        log_p, log_q = np.log(probs), np.log1p(-probs)
        row_coeff = rng.normal(size=6)
        np.testing.assert_allclose(
            torch_backend.binomial_loglik(row_coeff, obs, 30.0, log_p, log_q),
            numpy_backend.binomial_loglik(row_coeff, obs, 30.0, log_p, log_q),
            atol=1e-8,
        )
        counts = rng.integers(1, 9, size=20)
        values = rng.normal(size=int(counts.sum()))
        t_idx, t_max = torch_backend.segment_argmax(values, counts)
        n_idx, n_max = numpy_backend.segment_argmax(values, counts)
        np.testing.assert_array_equal(t_idx, n_idx)
        np.testing.assert_allclose(t_max, n_max)

    def test_localization_decisions_match(
        self, small_generator, small_index, torch_backend
    ):
        obs = small_index.observations_of_nodes(np.arange(10))
        localizer = BeaconlessLocalizer(resolution=4.0)
        reference = localizer.localize_observations(
            small_generator.knowledge(omega=400), obs
        )
        torched = localizer.localize_observations(
            small_generator.knowledge(omega=400, backend=torch_backend), obs
        )
        # Same lattice, so agreeing estimates are *equal*, not just close.
        np.testing.assert_array_equal(reference, torched)

    def test_end_to_end_decisions_match(self, tiny_config):
        reference = LadSession(tiny_config)
        torched = LadSession(
            tiny_config.with_backend(BackendSpec(name="torch", device="cpu"))
        )
        assert "backend" in torched.training_fingerprint()
        np.testing.assert_allclose(
            reference.benign_scores("diff"),
            torched.benign_scores("diff"),
            atol=1e-6,
        )
