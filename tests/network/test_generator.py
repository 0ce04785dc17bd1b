"""Tests for :mod:`repro.network.generator`."""

import numpy as np
import pytest

from repro.deployment.models import paper_deployment_model
from repro.network.generator import NetworkGenerator, generate_network
from repro.network.radio import UnitDiskRadio


class TestNetworkGenerator:
    def test_num_nodes(self, small_generator):
        assert small_generator.num_nodes == 25 * 30

    def test_reproducible_generation(self, small_generator):
        a = small_generator.generate(rng=42)
        b = small_generator.generate(rng=42)
        np.testing.assert_allclose(a.positions, b.positions)
        np.testing.assert_array_equal(a.group_ids, b.group_ids)

    def test_different_seeds_differ(self, small_generator):
        a = small_generator.generate(rng=1)
        b = small_generator.generate(rng=2)
        assert not np.allclose(a.positions, b.positions)

    def test_default_radio(self):
        gen = NetworkGenerator(paper_deployment_model(), group_size=5)
        assert isinstance(gen.radio, UnitDiskRadio)
        assert gen.radio.nominal_range == 100.0

    def test_invalid_group_size(self):
        with pytest.raises(ValueError):
            NetworkGenerator(paper_deployment_model(), group_size=0)

    def test_knowledge_matches_generator(self, small_generator):
        knowledge = small_generator.knowledge(omega=100)
        assert knowledge.group_size == small_generator.group_size
        assert knowledge.radio_range == small_generator.radio.nominal_range
        assert knowledge.n_groups == small_generator.model.n_groups

    def test_clip_to_region(self):
        gen = NetworkGenerator(
            paper_deployment_model(sigma=300.0), group_size=10, clip_to_region=True
        )
        net = gen.generate(rng=0)
        assert gen.model.region.contains(net.positions).all()


class TestSampleNodes:
    def test_draws_per_network_then_the_remainder(self, small_generator):
        draws = list(small_generator.sample_nodes(np.random.default_rng(5), 70, 30))
        assert [nodes.size for _, nodes in draws] == [30, 30, 10]
        for network, nodes in draws:
            assert np.unique(nodes).size == nodes.size
            assert nodes.max() < network.num_nodes

    def test_lazy_draws_keep_the_callers_place_in_the_stream(self, small_generator):
        """A caller drawing between networks sees the stream of the
        hand-written loop: deploy, draw nodes, the caller's draw, repeat."""
        rng = np.random.default_rng(9)
        lazy = []
        for network, nodes in small_generator.sample_nodes(rng, 50, 20):
            lazy.append((network.positions, nodes, rng.normal()))
        rng = np.random.default_rng(9)
        loop = []
        remaining = 50
        while remaining > 0:
            network = small_generator.generate(rng)
            take = min(20, remaining)
            nodes = rng.choice(network.num_nodes, size=take, replace=False)
            loop.append((network.positions, nodes, rng.normal()))
            remaining -= take
        assert len(lazy) == len(loop) == 3
        for (pos_a, nodes_a, draw_a), (pos_b, nodes_b, draw_b) in zip(lazy, loop):
            np.testing.assert_array_equal(pos_a, pos_b)
            np.testing.assert_array_equal(nodes_a, nodes_b)
            assert draw_a == draw_b


class TestGenerateNetworkHelper:
    def test_returns_matching_pair(self):
        network, knowledge = generate_network(group_size=5, rng=3)
        assert network.num_nodes == 500
        assert knowledge.group_size == 5
        assert knowledge.n_groups == network.n_groups
        assert network.radio.nominal_range == knowledge.radio_range

    def test_custom_parameters(self):
        network, knowledge = generate_network(
            group_size=4, radio_range=60.0, sigma=30.0, rng=1
        )
        assert knowledge.radio_range == 60.0
        assert knowledge.gz_table.sigma == 30.0
        assert network.num_nodes == 400
