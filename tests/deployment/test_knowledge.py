"""Tests for :mod:`repro.deployment.knowledge`."""

import numpy as np
import pytest

from repro.deployment.distributions import UniformDiskResidentDistribution
from repro.deployment.gz import GzTable
from repro.deployment.knowledge import DeploymentKnowledge
from repro.deployment.models import GridDeploymentModel, paper_deployment_model
from repro.types import Region
from tests.conftest import TEST_GROUP_SIZE


class TestConstruction:
    def test_builds_gz_table_from_gaussian_model(self):
        knowledge = DeploymentKnowledge(paper_deployment_model(), 10, 100.0, omega=100)
        assert knowledge.gz_table.radio_range == 100.0
        assert knowledge.n_groups == 100
        assert knowledge.group_size == 10
        assert knowledge.radio_range == 100.0

    def test_requires_table_for_non_gaussian_distribution(self):
        model = GridDeploymentModel(
            Region(0, 0, 200, 200),
            rows=2,
            cols=2,
            distribution=UniformDiskResidentDistribution(50.0),
        )
        with pytest.raises(ValueError):
            DeploymentKnowledge(model, 10, 60.0)
        # Supplying the table explicitly works.
        table = GzTable(60.0, 25.0, omega=50)
        knowledge = DeploymentKnowledge(model, 10, 60.0, gz_table=table)
        assert knowledge.gz_table is table

    def test_invalid_arguments(self):
        model = paper_deployment_model()
        with pytest.raises(ValueError):
            DeploymentKnowledge(model, 0, 100.0)
        with pytest.raises(ValueError):
            DeploymentKnowledge(model, 10, 0.0)


class TestComputations:
    def test_membership_probability_shapes(self, small_knowledge):
        probs = small_knowledge.membership_probabilities(
            [[100.0, 100.0], [250.0, 250.0]],
        )
        assert probs.shape == (2, small_knowledge.n_groups)
        assert np.all((probs >= 0) & (probs <= 1))

    def test_nearest_group_has_highest_probability(self, small_knowledge):
        # Standing exactly on a deployment point, that group must dominate.
        point = small_knowledge.deployment_points[7]
        probs = small_knowledge.membership_probabilities(point[None, :])[0]
        assert int(np.argmax(probs)) == 7

    def test_probabilities_decay_with_distance(self, small_knowledge):
        """g_i(θ) decreases as θ moves away from deployment point i."""
        dp = small_knowledge.deployment_points[0]
        offsets = np.array([0.0, 50.0, 150.0, 300.0])
        locations = dp + np.column_stack([offsets, np.zeros_like(offsets)])
        values = small_knowledge.membership_probabilities(locations)[:, 0]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_expected_observation_is_m_times_probability(self, small_knowledge):
        locs = np.array([[120.0, 340.0]])
        probs = small_knowledge.membership_probabilities(locs)
        mu = small_knowledge.expected_observation(locs)
        np.testing.assert_allclose(mu, TEST_GROUP_SIZE * probs)

    def test_expected_observation_matches_empirical(
        self,
        small_generator,
        small_knowledge,
    ):
        """Equation (2): the expected observation matches the average honest
        observation over many deployments."""
        from repro.network.neighbors import NeighborIndex

        location = np.array([250.0, 250.0])
        rng = np.random.default_rng(11)
        totals = np.zeros(small_knowledge.n_groups)
        reps = 40
        for _ in range(reps):
            network = small_generator.generate(rng)
            index = NeighborIndex(network)
            totals += index.observation_of_point(location)
        empirical = totals / reps
        mu = small_knowledge.expected_observation(location[None, :])[0]
        # Aggregate comparison (per-group counts are small and noisy).
        assert mu.sum() == pytest.approx(empirical.sum(), rel=0.05)
        np.testing.assert_allclose(mu, empirical, atol=3.0)

    def test_expected_neighbor_count(self, small_knowledge):
        counts = small_knowledge.expected_neighbor_count([[250.0, 250.0]])
        assert counts.shape == (1,)
        assert counts[0] > 0

    def test_log_likelihood_peaks_near_true_location(self, small_knowledge):
        true_loc = np.array([260.0, 240.0])
        mu = small_knowledge.expected_observation(true_loc[None, :])[0]
        candidates = np.array(
            [[260.0, 240.0], [100.0, 100.0], [400.0, 420.0], [260.0, 300.0]]
        )
        lls = small_knowledge.log_likelihood(candidates, mu)
        assert int(np.argmax(lls)) == 0

    def test_log_likelihood_validates_shape(self, small_knowledge):
        with pytest.raises(ValueError):
            small_knowledge.log_likelihood([[0.0, 0.0]], np.zeros(3))


class TestActiveGroupPruning:
    def test_support_radius_is_cached_and_finite(self, small_knowledge):
        radius = small_knowledge.support_radius
        assert radius == small_knowledge.support_radius
        assert np.isfinite(radius)
        assert radius > small_knowledge.radio_range

    def test_active_groups_single_point_promotion(self, small_knowledge):
        active = small_knowledge.active_groups([250.0, 250.0], radius=120.0)
        assert len(active) == 1
        assert active[0].dtype == np.int64
        distances = np.hypot(
            *(small_knowledge.deployment_points - [250.0, 250.0]).T
        )
        np.testing.assert_array_equal(active[0], np.flatnonzero(distances <= 120.0))

    def test_distances_to_groups_subset_matches_columns(self, small_knowledge):
        rng = np.random.default_rng(23)
        locations = small_knowledge.region.sample_uniform(rng, 10)
        groups = np.array([0, 3, 17, 24])
        full = small_knowledge.model.distances_to_groups(locations)
        subset = small_knowledge.model.distances_to_groups(locations, groups)
        np.testing.assert_array_equal(subset, full[:, groups])

    @pytest.mark.parametrize(
        "groups",
        [[0, 3, 17, 24], [24, 17, 3, 0], [11], None],
        ids=["sorted", "unsorted", "single", "all"],
    )
    def test_membership_subset_matches_columns_bitwise(self, small_knowledge, groups):
        """The pruned kernels' active-set columns are the full matrix's bits."""
        rng = np.random.default_rng(29)
        locations = small_knowledge.region.sample_uniform(rng, 40)
        if groups is None:
            groups = np.arange(small_knowledge.n_groups)
        groups = np.asarray(groups)
        full = small_knowledge.membership_probabilities(locations)
        subset = small_knowledge.membership_probabilities(locations, groups)
        np.testing.assert_array_equal(
            subset.view(np.int64), full[:, groups].view(np.int64)
        )


class TestPickle:
    """A pickled knowledge carries its model and table, not its caches."""

    def test_pickle_leaves_caches_out_and_round_trips_bitwise(
        self, small_generator, small_index
    ):
        import pickle

        from repro.localization.beaconless import BeaconlessLocalizer

        knowledge = small_generator.knowledge(omega=400)
        fresh_bytes = len(pickle.dumps(knowledge))
        observations = small_index.observations_of_nodes(np.arange(0, 750, 25))
        BeaconlessLocalizer().localize_observations(knowledge, observations)

        rng = np.random.default_rng(31)
        locations = knowledge.region.sample_uniform(rng, 12)
        lattice = np.stack(
            np.meshgrid(np.arange(0.0, 501.0, 25.0), np.arange(0.0, 501.0, 25.0)),
            axis=-1,
        ).reshape(-1, 2)
        covered = rng.random(lattice.shape[0]) < 0.5
        rows = observations[:4]
        centers = np.array([[120.0, 200.0], [260.0, 40.0], [400.0, 410.0], [0, 250]])
        axes = [
            (np.arange(x - 20.0, x + 21.0, 4.0), np.arange(y - 15.0, y + 16.0, 3.0))
            for x, y in centers
        ]
        active = knowledge.active_groups(centers, radius=150.0)

        def outputs(k):
            return (
                k.expected_observation(locations),
                k.log_likelihood_lattice(lattice, covered, rows),
                k.log_likelihood_grids(axes, rows, active),
            )

        expected = outputs(knowledge)
        # The localization pass and the calls above built every cache...
        assert knowledge._lattice_terms is not None
        assert knowledge._group_tree is not None
        assert knowledge._squared_distance_table is not None
        payload = pickle.dumps(knowledge)
        # ...and none of them travels with the pickle.
        assert len(payload) <= fresh_bytes + 1024
        clone = pickle.loads(payload)
        assert not {
            "_group_tree",
            "_support_radius",
            "_lattice_terms",
            "_squared_distance_table",
        } & set(vars(clone))
        for got, want in zip(outputs(clone), expected):
            np.testing.assert_array_equal(got, want)
