"""Equivalence of the pruned active-group engine with the dense engine.

The pruned kernels skip ``(candidate, group)`` pairs whose likelihood terms
are exact zeros (groups beyond the knowledge's support radius that the row
never observed), so estimates must be *bit-identical* to the dense engine —
the same contract `tests/localization/test_batch_equivalence.py` pins down
for the dense engine against the per-row reference.

The shared fixtures use a deployment large enough (16 x 16 groups over
1600 m) that the active sets genuinely engage: on the small 5 x 5 test
deployment the support radius covers every group and the pruned kernels
simply fall back to the dense path.
"""

import numpy as np
import pytest

from repro.deployment.distributions import GaussianResidentDistribution
from repro.deployment.models import GridDeploymentModel
from repro.localization.beaconless import BeaconlessLocalizer
from repro.network.generator import NetworkGenerator
from repro.network.neighbors import NeighborIndex
from repro.network.radio import UnitDiskRadio
from repro.types import Region


@pytest.fixture(scope="module")
def wide_generator():
    """A 256-group deployment whose region dwarfs the support radius."""
    model = GridDeploymentModel(
        region=Region(0.0, 0.0, 1600.0, 1600.0),
        rows=16,
        cols=16,
        distribution=GaussianResidentDistribution(40.0),
    )
    return NetworkGenerator(model=model, group_size=30, radio=UnitDiskRadio(80.0))


@pytest.fixture(scope="module")
def wide_knowledge(wide_generator):
    return wide_generator.knowledge(omega=500)


@pytest.fixture(scope="module")
def wide_observations(wide_generator):
    network = wide_generator.generate(rng=2025)
    index = NeighborIndex(network)
    rng = np.random.default_rng(77)
    nodes = rng.choice(network.num_nodes, size=60, replace=False)
    return index.observations_of_nodes(nodes, batched=False)


@pytest.fixture(scope="module")
def localizer():
    return BeaconlessLocalizer(resolution=2.0)


class TestSupportRadius:
    def test_pruning_engages_on_wide_deployment(self, wide_knowledge):
        radius = wide_knowledge.support_radius
        assert np.isfinite(radius)
        # The support radius must cover the radio range but stay well below
        # the region size, otherwise this suite exercises nothing.
        assert wide_knowledge.radio_range < radius < 800.0

    def test_gz_is_negligible_beyond_support(self, wide_knowledge):
        zs = np.linspace(
            wide_knowledge.support_radius, wide_knowledge.gz_table.z_max, 200
        )
        probs = wide_knowledge.gz_table(zs)
        # 1 - p == 1.0 exactly: the unobserved likelihood term vanishes.
        assert np.all(1.0 - probs == 1.0)

    def test_active_groups_match_brute_force(self, wide_knowledge):
        rng = np.random.default_rng(3)
        locations = wide_knowledge.region.sample_uniform(rng, 25)
        radius = wide_knowledge.support_radius
        active = wide_knowledge.active_groups(locations)
        for row, location in enumerate(locations):
            distances = np.hypot(
                *(wide_knowledge.deployment_points - location).T
            )
            np.testing.assert_array_equal(
                active[row], np.flatnonzero(distances <= radius)
            )

    def test_explicit_radius_overrides_default(self, wide_knowledge):
        point = wide_knowledge.deployment_points[0][None, :]
        tiny = wide_knowledge.active_groups(point, radius=1.0)
        assert tiny[0].tolist() == [0]
        everything = wide_knowledge.active_groups(point, radius=1e9)
        assert everything[0].size == wide_knowledge.n_groups


class TestPrunedKernels:
    def test_pruned_segmented_matches_dense(self, wide_knowledge, wide_observations):
        rng = np.random.default_rng(6)
        obs = wide_observations[:5]
        counts = np.array([7, 1, 12, 3, 9])
        centers = rng.uniform(200.0, 1400.0, size=(5, 2))
        blocks = [
            center + rng.uniform(-40.0, 40.0, size=(int(c), 2))
            for center, c in zip(centers, counts)
        ]
        locations = np.vstack(blocks)
        active = wide_knowledge.active_groups(
            centers, radius=wide_knowledge.support_radius + 60.0
        )
        dense = wide_knowledge.log_likelihood_segmented(locations, obs, counts)
        pruned = wide_knowledge.log_likelihood_segmented(
            locations, obs, counts, active=active
        )
        np.testing.assert_allclose(pruned, dense, rtol=1e-9, atol=1e-9)

    def test_empty_active_set_row(self, wide_knowledge):
        """A victim outside every group's reach: all terms are exact zeros."""
        obs = np.zeros((1, wide_knowledge.n_groups))
        # Candidates far outside the region, beyond the support radius of
        # every deployment point.
        candidates = np.full((4, 2), 1e7)
        active = wide_knowledge.active_groups(candidates[:1])
        assert active[0].size == 0
        pruned = wide_knowledge.log_likelihood_segmented(
            candidates, obs, np.array([4]), active=active
        )
        dense = wide_knowledge.log_likelihood_segmented(
            candidates, obs, np.array([4])
        )
        np.testing.assert_array_equal(pruned, np.zeros(4))
        np.testing.assert_array_equal(pruned, dense)

    def test_all_groups_active_falls_back_to_dense(
        self, wide_knowledge, wide_observations
    ):
        """A radius covering every group must reproduce the dense result
        exactly (the sparse path falls back rather than gather/scatter a
        full matrix)."""
        obs = wide_observations[:3]
        rng = np.random.default_rng(8)
        locations = wide_knowledge.region.sample_uniform(rng, 9)
        counts = np.array([3, 3, 3])
        active = wide_knowledge.active_groups(locations[::3], radius=1e9)
        assert all(a.size == wide_knowledge.n_groups for a in active)
        dense = wide_knowledge.log_likelihood_segmented(locations, obs, counts)
        pruned = wide_knowledge.log_likelihood_segmented(
            locations, obs, counts, active=active
        )
        np.testing.assert_array_equal(pruned, dense)

    def test_observed_far_group_is_not_pruned(self, wide_knowledge):
        """A non-zero count for a group outside the active set must still
        poison the likelihood (p == 0 there), exactly like the dense path."""
        obs = np.zeros((1, wide_knowledge.n_groups))
        obs[0, -1] = 2.0  # far corner group
        candidates = wide_knowledge.deployment_points[0][None, :] + 5.0
        active = wide_knowledge.active_groups(candidates)
        assert wide_knowledge.n_groups - 1 not in active[0]
        dense = wide_knowledge.log_likelihood_segmented(
            candidates, obs, np.array([1])
        )
        pruned = wide_knowledge.log_likelihood_segmented(
            candidates, obs, np.array([1]), active=active
        )
        np.testing.assert_array_equal(pruned, dense)
        assert np.isneginf(pruned[0])

    def test_out_of_support_observation_poisons_segment(self, wide_knowledge):
        bad = np.zeros((1, wide_knowledge.n_groups))
        bad[0, 0] = wide_knowledge.group_size + 3  # k > m: impossible
        candidates = wide_knowledge.deployment_points[:6]
        active = wide_knowledge.active_groups(candidates[:1])
        flat = wide_knowledge.log_likelihood_segmented(
            candidates, bad, np.array([6]), active=active
        )
        assert np.all(np.isneginf(flat))


class TestPrunedEngine:
    def test_pruned_engine_matches_dense_and_reference(
        self, wide_knowledge, wide_observations, localizer
    ):
        pruned = localizer.localize_observations(wide_knowledge, wide_observations)
        dense = localizer.localize_observations(
            wide_knowledge, wide_observations, prune=False
        )
        looped = localizer.localize_observations(
            wide_knowledge, wide_observations, batched=False
        )
        np.testing.assert_array_equal(pruned, dense)
        np.testing.assert_array_equal(pruned, looped)

    def test_duplicate_and_empty_rows(
        self, wide_knowledge, wide_observations, localizer
    ):
        obs = np.vstack(
            [
                wide_observations[:8],
                np.zeros(wide_knowledge.n_groups),
                wide_observations[2],
                np.zeros(wide_knowledge.n_groups),
                wide_observations[2],
            ]
        )
        pruned = localizer.localize_observations(wide_knowledge, obs)
        looped = localizer.localize_observations(wide_knowledge, obs, batched=False)
        np.testing.assert_array_equal(pruned, looped)
        # Duplicate rows (including the all-zero pair) share their estimates.
        np.testing.assert_array_equal(pruned[9], pruned[2])
        np.testing.assert_array_equal(pruned[11], pruned[2])
        np.testing.assert_array_equal(pruned[8], pruned[10])

    def test_boundary_rows(self, wide_generator, wide_knowledge, localizer):
        """Rows whose refinement windows cross the region edge must match."""
        network = wide_generator.generate(rng=909)
        positions = network.positions
        edge = np.flatnonzero(
            (positions[:, 0] < 60)
            | (positions[:, 0] > 1540)
            | (positions[:, 1] < 60)
            | (positions[:, 1] > 1540)
        )[:30]
        obs = NeighborIndex(network).observations_of_nodes(edge, batched=False)
        np.testing.assert_array_equal(
            localizer.localize_observations(wide_knowledge, obs),
            localizer.localize_observations(wide_knowledge, obs, batched=False),
        )

    def test_small_dense_deployment_unaffected(
        self, small_knowledge, localizer, small_index, small_network
    ):
        """On the small deployment the support radius covers every group;
        pruning must quietly fall back to the dense engine."""
        rng = np.random.default_rng(99)
        nodes = rng.choice(small_network.num_nodes, size=20, replace=False)
        obs = small_index.observations_of_nodes(nodes, batched=False)
        np.testing.assert_array_equal(
            localizer.localize_observations(small_knowledge, obs),
            localizer.localize_observations(small_knowledge, obs, prune=False),
        )
