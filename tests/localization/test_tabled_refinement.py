"""The table-driven pruned refinement kernel.

When every candidate and every deployment point is an integer, the pruned
refinement reads ``log(1 − g(√s))`` from a per-knowledge table indexed by
the exact integer squared distance ``s`` instead of running the chain
distance → ``g(z)`` lookup → ``log(1 − p)`` per pair.  The contract is bit
identity with the chain:

* per pair, the table entry equals the chain's value, and ``s`` past the
  table's end reads the exact zero the chain yields there;
* per kernel call, :meth:`DeploymentKnowledge.log_likelihood_grids` equals
  :meth:`DeploymentKnowledge.log_likelihood_segmented` on the same grid
  points and active sets, in the dense-fallback and the active-set regime;
* per estimate, ``prune=True``, ``prune=False`` and ``batched=False``
  agree — on the paper geometry (tables on), on the same geometry shifted
  by half a metre (non-integer, so the chain runs), and on rows whose
  coarse scores are all ``-inf`` (the centroid fallback).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.deployment.distributions import GaussianResidentDistribution
from repro.deployment.gz import GzTable
from repro.deployment.knowledge import DeploymentKnowledge
from repro.deployment.models import (
    GridDeploymentModel,
    PrebuiltDeploymentModel,
    paper_deployment_model,
)
from repro.localization.beaconless import BeaconlessLocalizer
from repro.network.generator import NetworkGenerator
from repro.network.neighbors import NeighborIndex
from repro.network.radio import UnitDiskRadio
from repro.types import Region

#: The paper's g(z) (R = 100 m, σ = 50 m over the 1000 m region), shared by
#: the property tests: building the table is the expensive part.
_PAPER_GZ = GzTable(
    100.0, 50.0, omega=1000, z_max=Region(0, 0, 1000, 1000).diagonal + 100.0
)

_SETTINGS = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _knowledge(points, group_size=60):
    model = PrebuiltDeploymentModel(
        Region(-2000.0, -2000.0, 3000.0, 3000.0),
        np.asarray(points, dtype=np.float64),
        distribution=GaussianResidentDistribution(50.0),
    )
    return DeploymentKnowledge(model, group_size, 100.0, gz_table=_PAPER_GZ)


def _network(model, group_size=60, seed=5):
    generator = NetworkGenerator(
        model, group_size=group_size, radio=UnitDiskRadio(100.0)
    )
    network = generator.generate(rng=seed)
    return generator, network


def _observations(network, count, seed):
    rng = np.random.default_rng(seed)
    nodes = rng.choice(network.num_nodes, size=count, replace=False)
    return NeighborIndex(network).observations_of_nodes(nodes)


integer_points = hnp.arrays(
    np.int64,
    st.tuples(st.integers(1, 12), st.just(2)),
    elements=st.integers(-1500, 2500),
)


class TestTableEntries:
    @_SETTINGS
    @given(points=integer_points, candidates=integer_points)
    def test_table_terms_equal_the_chain(self, points, candidates):
        knowledge = _knowledge(points)
        table = knowledge._squared_distance_table
        distances = knowledge.model.distances_to_groups(candidates.astype(float))
        squared = ((candidates[:, None, :] - points[None, :, :]) ** 2).sum(axis=-1)
        # cdist returns the correctly rounded square root of the exact sum.
        np.testing.assert_array_equal(np.sqrt(squared.astype(np.float64)), distances)
        chain = np.log(1.0 - knowledge.gz_table(distances))
        np.testing.assert_array_equal(np.take(table, squared, mode="clip"), chain)

    def test_table_ends_at_the_support_radius(self):
        table = _knowledge([[0, 0]])._squared_distance_table
        radius = _knowledge([[0, 0]]).support_radius
        end = table.size - 1
        assert np.sqrt(float(end)) >= radius > np.sqrt(end - 1.0)
        assert end == 265_053  # the paper's parameters
        assert table[end] == 0.0
        assert table[0] < 0.0

    @_SETTINGS
    @given(beyond=st.integers(1, 4_000_000))
    def test_chain_is_exactly_zero_past_the_table(self, beyond):
        end = _knowledge([[0, 0]])._squared_distance_table.size - 1
        distance = np.sqrt(np.array([float(end + beyond)]))
        assert np.log(1.0 - _PAPER_GZ(distance))[0] == 0.0

    def test_no_table_for_non_integer_points(self):
        assert _knowledge([[0.5, 0.0], [10.0, 20.0]])._squared_distance_table is None


class TestGridKernel:
    """``log_likelihood_grids`` against ``log_likelihood_segmented``."""

    @pytest.fixture(scope="class")
    def wide(self):
        model = GridDeploymentModel(
            region=Region(0.0, 0.0, 1600.0, 1600.0),
            rows=16,
            cols=16,
            distribution=GaussianResidentDistribution(40.0),
        )
        generator, network = _network(model, group_size=30, seed=2025)
        knowledge = DeploymentKnowledge(model, 30, 100.0, omega=500)
        return knowledge, _observations(network, 40, seed=3)

    @_SETTINGS
    @given(
        data=st.data(),
        rows=st.integers(1, 6),
        reach=st.sampled_from([0.0, 60.0, 5000.0]),
    )
    def test_bit_identical_to_segmented_points(self, wide, data, rows, reach):
        knowledge, observations = wide
        axes = []
        for _ in range(rows):
            x0 = data.draw(st.integers(-100, 1650))
            y0 = data.draw(st.integers(-100, 1650))
            nx = data.draw(st.integers(1, 9))
            ny = data.draw(st.integers(1, 9))
            step = data.draw(st.integers(1, 7))
            axes.append((x0 + step * np.arange(nx), y0 + step * np.arange(ny)))
        pick = st.integers(0, observations.shape[0] - 1)
        obs = observations[data.draw(st.lists(pick, min_size=rows, max_size=rows))]
        centers = np.array([[xs.mean(), ys.mean()] for xs, ys in axes])
        radius = knowledge.support_radius + reach
        active = knowledge.active_groups(centers, radius=radius)
        grids = [np.meshgrid(xs, ys) for xs, ys in axes]
        points = np.vstack(
            [np.column_stack([gx.ravel(), gy.ravel()]) for gx, gy in grids]
        )
        counts = np.array([xs.size * ys.size for xs, ys in axes])
        expected = knowledge.log_likelihood_segmented(
            points, obs, counts, active=active
        )
        got = knowledge.log_likelihood_grids(axes, obs, active)
        np.testing.assert_array_equal(got, expected)

    def test_non_integer_row_takes_the_chain(self, wide):
        knowledge, observations = wide
        obs = observations[:2]
        axes = [([100.0, 102.0], [50.0]), ([7.5], [9.0, 11.0])]
        active = knowledge.active_groups(np.array([[101.0, 50.0], [7.5, 10.0]]))
        points = np.array([[100.0, 50.0], [102.0, 50.0], [7.5, 9.0], [7.5, 11.0]])
        counts = np.array([2, 2])
        np.testing.assert_array_equal(
            knowledge.log_likelihood_grids(axes, obs, active),
            knowledge.log_likelihood_segmented(points, obs, counts, active=active),
        )


class TestEstimates:
    """``prune=True``, ``prune=False`` and ``batched=False`` agree."""

    @pytest.fixture(scope="class")
    def localizer(self):
        return BeaconlessLocalizer()

    @staticmethod
    def _assert_all_paths_agree(localizer, knowledge, observations):
        pruned = localizer.localize_observations(knowledge, observations)
        for kwargs in ({"prune": False}, {"batched": False}):
            np.testing.assert_array_equal(
                pruned,
                localizer.localize_observations(knowledge, observations, **kwargs),
            )
        return pruned

    def test_paper_geometry(self, localizer):
        generator, network = _network(paper_deployment_model())
        knowledge = generator.knowledge()
        assert knowledge._squared_distance_table is not None
        observations = _observations(network, 40, seed=1)
        estimates = self._assert_all_paths_agree(localizer, knowledge, observations)
        assert np.all(estimates == np.floor(estimates))

    def test_half_metre_shift_runs_the_chain(self, localizer):
        model = GridDeploymentModel(
            region=Region(0.5, 0.5, 1000.5, 1000.5),
            rows=10,
            cols=10,
            distribution=GaussianResidentDistribution(50.0),
        )
        generator, network = _network(model)
        knowledge = generator.knowledge()
        assert knowledge._squared_distance_table is None
        observations = _observations(network, 40, seed=2)
        self._assert_all_paths_agree(localizer, knowledge, observations)

    def test_centroid_fallback_rows(self, localizer):
        generator, network = _network(paper_deployment_model())
        knowledge = generator.knowledge()
        observations = _observations(network, 12, seed=3)
        # A count above the group size is impossible at every candidate:
        # every coarse score is -inf and the row keeps its centroid.
        impossible = observations[:4].copy()
        impossible[:, 0] = knowledge.group_size + 1
        estimates = self._assert_all_paths_agree(
            localizer, knowledge, np.vstack([observations, impossible])
        )
        points = knowledge.deployment_points
        centroids = impossible @ points / impossible.sum(axis=1)[:, None]
        np.testing.assert_allclose(estimates[-4:], centroids)


class TestCoarseTermsBudget:
    def test_paper_lattice_terms_are_cached(self):
        generator, network = _network(paper_deployment_model())
        knowledge = generator.knowledge()
        observations = _observations(network, 4, seed=4)
        BeaconlessLocalizer().localize_observations(knowledge, observations)
        assert knowledge._lattice_terms[1] is not None

    def test_wide_deployment_keeps_the_per_call_path(self):
        """The 1024-group benchmark's lattice terms would need ~409 MB."""
        model = GridDeploymentModel(
            region=Region(0.0, 0.0, 3200.0, 3200.0),
            rows=32,
            cols=32,
            distribution=GaussianResidentDistribution(50.0),
        )
        generator, network = _network(model, group_size=20)
        knowledge = generator.knowledge()
        observations = _observations(network, 4, seed=4)
        BeaconlessLocalizer().localize_observations(knowledge, observations)
        key, terms = knowledge._lattice_terms
        assert terms is None
        assert len(key) == 129 * 129 * 2 * 8
