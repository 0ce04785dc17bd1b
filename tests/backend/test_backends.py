"""Unit tests of the array-backend seam (:mod:`repro.backend`).

The numpy backend is the bit-exact reference: its operations are pinned
against brute-force numpy formulations (per-segment ``np.argmax`` loops,
``binomial_log_pmf`` row sums, ``np.linalg.solve``).  The spec tests pin
the declarative surface — registry names, ``[backend]`` TOML round trips,
the dense-fallback knob — and the torch tests probe availability without
requiring the optional dependency.
"""

import pickle

import numpy as np
import pytest

from repro.backend import (
    BACKENDS,
    ArrayBackend,
    BackendSpec,
    NumpyBackend,
    TorchBackend,
    default_backend,
    resolve_backend,
)
from repro.experiments.scenario import ScenarioSpec
from repro.utils.stats import binomial_log_coefficient, binomial_log_pmf


@pytest.fixture(scope="module")
def backend() -> NumpyBackend:
    return NumpyBackend()


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert "numpy" in BACKENDS.available()
        assert "torch" in BACKENDS.available()

    def test_aliases_resolve(self):
        assert BACKENDS.get("np") is NumpyBackend
        assert BACKENDS.get("pytorch") is TorchBackend
        assert BACKENDS.canonical("np") == "numpy"

    def test_create_instantiates(self):
        assert isinstance(BACKENDS.create("numpy"), NumpyBackend)

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="unknown backend"):
            BACKENDS.get("fortran")


class TestBackendSpec:
    def test_defaults(self):
        spec = BackendSpec()
        assert spec.name == "numpy"
        assert spec.device == "auto"
        assert spec.dtype == "float64"

    def test_name_canonicalised(self):
        assert BackendSpec(name="np").name == "numpy"
        assert BackendSpec(name="PyTorch").name == "torch"

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            BackendSpec(name="fortran")

    def test_bad_dtype_rejected(self):
        with pytest.raises(ValueError, match="dtype"):
            BackendSpec(dtype="float16")

    def test_dict_round_trip(self):
        for spec in (
            BackendSpec(),
            BackendSpec(name="torch", device="cuda", dtype="float32"),
        ):
            assert BackendSpec.from_dict(spec.as_dict()) == spec

    def test_from_dict_rejects_typos(self):
        with pytest.raises(ValueError, match="unknown backend field"):
            BackendSpec.from_dict({"name": "numpy", "devize": "cpu"})

    def test_spec_file_rejects_removed_fraction_key(self):
        """A spec still setting the retired override fails loudly rather
        than running with a knob that no longer exists."""
        text = '[backend]\nname = "numpy"\ndense_fallback_fraction = 0.25\n'
        with pytest.raises(ValueError, match="dense_fallback_fraction"):
            ScenarioSpec.from_toml(text)

    def test_with_device(self):
        assert BackendSpec().with_device("cpu").device == "cpu"


class TestResolution:
    def test_default_backend_is_shared_singleton(self):
        assert default_backend() is default_backend()
        assert isinstance(default_backend(), NumpyBackend)

    def test_resolve_none_name_spec_and_instance(self, backend):
        assert resolve_backend(None) is default_backend()
        assert isinstance(resolve_backend("np"), NumpyBackend)
        assert isinstance(resolve_backend(BackendSpec()), NumpyBackend)
        assert resolve_backend(backend) is backend

    def test_resolve_rejects_other_types(self):
        with pytest.raises(TypeError, match="backend must be"):
            resolve_backend(42)

    def test_backend_instances_pickle(self, backend):
        clone = pickle.loads(pickle.dumps(backend))
        assert isinstance(clone, NumpyBackend)
        assert clone.dense_fallback_fraction == backend.dense_fallback_fraction


class TestNumpyBackendIdentity:
    def test_numpy_exact_fingerprint_is_none(self, backend):
        assert backend.numpy_exact
        assert backend.fingerprint() is None

    def test_non_exact_fingerprint_carries_identity(self):
        class Shadow(NumpyBackend):
            numpy_exact = False

        fingerprint = Shadow().fingerprint()
        assert fingerprint == {
            "name": "numpy",
            "device": "cpu",
            "dtype": "float64",
        }

    def test_availability(self):
        assert NumpyBackend.is_available()
        assert "available" in NumpyBackend.availability()

    def test_rejects_cuda_and_float32(self):
        with pytest.raises(ValueError, match="CPU only"):
            NumpyBackend(device="cuda")
        with pytest.raises(ValueError, match="bit-exact float64"):
            NumpyBackend(dtype="float32")


class TestNumpyBackendOps:
    def test_binomial_loglik_matches_reference_expression(self, backend, rng):
        obs = rng.integers(0, 5, size=(6, 12)).astype(np.float64)
        probs = rng.uniform(0.05, 0.6, size=(9, 12))
        log_p, log_q = np.log(probs), np.log1p(-probs)
        row_coeff = rng.normal(size=6)
        out = backend.binomial_loglik(row_coeff, obs, 30.0, log_p, log_q)
        expected = row_coeff[:, None] + obs @ log_p.T + (30.0 - obs) @ log_q.T
        np.testing.assert_array_equal(out, expected)

    def test_segmented_loglik_matches_binomial_log_pmf(self, backend, rng):
        m = 30.0
        probs = rng.uniform(0.0, 0.4, size=(40, 15))
        probs[rng.random(probs.shape) < 0.3] = 0.0  # far groups
        obs_rep = rng.binomial(int(m), np.clip(probs, 1e-6, 1.0)).astype(
            np.float64
        )
        out = backend.segmented_loglik(
            obs_rep.copy(),
            probs,
            m,
            reaches_one=False,
            log_coefficients=binomial_log_coefficient,
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            expected = binomial_log_pmf(obs_rep, m, probs).sum(axis=1)
        np.testing.assert_allclose(out, expected, rtol=1e-12)

    def test_segmented_loglik_observed_zero_probability_is_minus_inf(
        self, backend
    ):
        probs = np.array([[0.0, 0.2]])
        obs_rep = np.array([[1.0, 2.0]])  # k > 0 where p == 0: impossible
        out = backend.segmented_loglik(
            obs_rep,
            probs,
            30.0,
            reaches_one=False,
            log_coefficients=binomial_log_coefficient,
        )
        assert out[0] == -np.inf

    def test_sparse_segment_loglik_matches_dense(self, backend, rng):
        m = 30.0
        probs = rng.uniform(0.0, 0.4, size=(8, 15))
        obs_rep = rng.binomial(int(m), np.clip(probs, 1e-6, 1.0)).astype(
            np.float64
        )
        dense = backend.segmented_loglik(
            obs_rep.copy(),
            probs,
            m,
            reaches_one=False,
            log_coefficients=binomial_log_coefficient,
        )
        candidate_ids = np.repeat(np.arange(8), 15)
        sparse = backend.sparse_segment_loglik(
            obs_rep.ravel(),
            probs.ravel(),
            m,
            candidate_ids,
            8,
            reaches_one=False,
            log_coefficients=binomial_log_coefficient,
        )
        np.testing.assert_allclose(sparse, dense, rtol=1e-12)

    def test_segment_sum_matches_bincount_loop(self, backend, rng):
        values = rng.normal(size=50)
        ids = rng.integers(0, 7, size=50)
        out = backend.segment_sum(values, ids, 7)
        expected = np.array([values[ids == s].sum() for s in range(7)])
        np.testing.assert_allclose(out, expected, rtol=1e-15)

    def test_segment_argmax_matches_per_segment_argmax(self, backend, rng):
        counts = rng.integers(1, 9, size=20)
        values = rng.normal(size=int(counts.sum()))
        # Force ties inside some segments so tie-breaking is exercised.
        values[: counts[0]] = 1.5
        indices, maxima = backend.segment_argmax(values, counts)
        offset = 0
        for segment, count in enumerate(counts):
            block = values[offset : offset + count]
            assert indices[segment] == offset + np.argmax(block)
            assert maxima[segment] == block.max()
            offset += count

    def test_segment_argmax_all_minus_inf_segment(self, backend):
        values = np.array([-np.inf, -np.inf, 3.0, -np.inf])
        indices, maxima = backend.segment_argmax(values, np.array([2, 2]))
        np.testing.assert_array_equal(indices, [0, 2])
        np.testing.assert_array_equal(maxima, [-np.inf, 3.0])

    def test_segment_argmax_validates_counts(self, backend):
        with pytest.raises(ValueError, match="positive"):
            backend.segment_argmax(np.ones(3), np.array([2, 0, 1]))
        indices, maxima = backend.segment_argmax(
            np.zeros(0), np.zeros(0, dtype=np.int64)
        )
        assert indices.size == 0 and maxima.size == 0

    def test_rowwise_argmax(self, backend, rng):
        values = rng.normal(size=(12, 30))
        values[3] = 0.25  # a full row of ties
        idx, best = backend.rowwise_argmax(values)
        np.testing.assert_array_equal(idx, np.argmax(values, axis=1))
        np.testing.assert_array_equal(best, values.max(axis=1))

    def test_masked_sum_2d_and_3d(self, backend, rng):
        terms = rng.normal(size=(5, 8))
        mask = rng.random((5, 8)) < 0.5
        np.testing.assert_array_equal(
            backend.masked_sum(terms, mask),
            np.where(mask, terms, 0.0).sum(axis=1),
        )
        points = rng.normal(size=(1, 8, 2))
        out = backend.masked_sum(points, mask)
        expected = np.where(mask[..., None], points, 0.0).sum(axis=1)
        np.testing.assert_array_equal(out, expected)

    def test_solve2x2_matches_linalg_solve(self, backend, rng):
        rows = rng.normal(size=(10, 6, 2))
        m00 = (rows[..., 0] ** 2).sum(axis=1)
        m11 = (rows[..., 1] ** 2).sum(axis=1)
        m01 = (rows[..., 0] * rows[..., 1]).sum(axis=1)
        v = rng.normal(size=(10, 2))
        estimates, solvable = backend.solve2x2(m00, m01, m11, v[:, 0], v[:, 1])
        assert solvable.all()
        matrices = np.stack(
            [np.stack([m00, m01], axis=-1), np.stack([m01, m11], axis=-1)],
            axis=1,
        )
        np.testing.assert_allclose(
            estimates, np.linalg.solve(matrices, v[..., None])[..., 0], rtol=1e-9
        )

    def test_solve2x2_flags_singular_rows(self, backend):
        # One well-conditioned system and one rank-deficient one.
        m00 = np.array([2.0, 1.0])
        m01 = np.array([0.0, 1.0])
        m11 = np.array([3.0, 1.0])
        estimates, solvable = backend.solve2x2(
            m00, m01, m11, np.ones(2), np.ones(2)
        )
        np.testing.assert_array_equal(solvable, [True, False])
        assert np.isfinite(estimates).all()


class TestDenseFallbackKnob:
    def test_knowledge_exposes_backend_default(self, small_knowledge):
        assert (
            small_knowledge.dense_fallback_fraction
            == small_knowledge.backend.dense_fallback_fraction
        )

    def test_fraction_only_picks_the_path_not_the_answer(
        self, small_generator, small_index, rng
    ):
        """Forcing the pruned path on and off gives identical estimates."""
        from repro.localization.beaconless import BeaconlessLocalizer

        obs = small_index.observations_of_nodes(np.arange(12))
        localizer = BeaconlessLocalizer(resolution=4.0)
        estimates = {}
        for fraction in (1e-9, 1.0):  # always-dense vs always-pruned
            backend = NumpyBackend()
            backend.dense_fallback_fraction = fraction
            knowledge = small_generator.knowledge(omega=400, backend=backend)
            estimates[fraction] = localizer.localize_observations(
                knowledge, obs
            )
        np.testing.assert_array_equal(estimates[1e-9], estimates[1.0])


class TestTorchBackendProbe:
    def test_availability_probe_never_raises(self):
        message = TorchBackend.availability()
        if TorchBackend.is_available():
            assert "available" in message
        else:
            assert "not installed" in message

    def test_unavailable_build_raises_helpfully(self):
        if TorchBackend.is_available():
            pytest.skip("torch is installed in this environment")
        with pytest.raises(RuntimeError, match="torch"):
            BackendSpec(name="torch").build()

    def test_registered_but_not_numpy_exact(self):
        assert issubclass(TorchBackend, ArrayBackend)
        assert not TorchBackend.numpy_exact
