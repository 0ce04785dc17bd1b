"""Shared fixtures for the test suite.

The fixtures deliberately use *small* deployments (a 5 x 5 grid, a few tens
of sensors per group) so the whole suite stays fast while still exercising
every code path of the full-size paper configuration.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from functools import partial

import numpy as np
import pytest

from repro.deployment.distributions import GaussianResidentDistribution
from repro.deployment.knowledge import DeploymentKnowledge
from repro.deployment.models import GridDeploymentModel
from repro.network.generator import NetworkGenerator
from repro.network.neighbors import NeighborIndex
from repro.network.radio import UnitDiskRadio
from repro.types import Region


#: Radio range used by the small test deployment (metres).
TEST_RADIO_RANGE = 80.0

#: Landing-distribution standard deviation of the small test deployment.
TEST_SIGMA = 40.0

#: Sensors per group in the small test deployment.
TEST_GROUP_SIZE = 30


@pytest.fixture
def spawn_pool(monkeypatch):
    """Start :func:`~repro.experiments.sweep.fan_out`'s pools by ``spawn``.

    Under Linux's default ``fork`` a worker inherits the fan-out state;
    a spawned worker unpickles it, so this exercises the pickled transport.
    """
    from repro.experiments import sweep as sweep_module

    context = multiprocessing.get_context("spawn")
    monkeypatch.setattr(
        sweep_module,
        "ProcessPoolExecutor",
        partial(ProcessPoolExecutor, mp_context=context),
    )


@pytest.fixture(scope="session")
def rng():
    """A session-wide deterministic random generator."""
    return np.random.default_rng(123456789)


@pytest.fixture(scope="session")
def small_region():
    """A 500 m x 500 m deployment region."""
    return Region(0.0, 0.0, 500.0, 500.0)


@pytest.fixture(scope="session")
def small_model(small_region):
    """A 5 x 5 grid deployment model on the small region."""
    return GridDeploymentModel(
        region=small_region,
        rows=5,
        cols=5,
        distribution=GaussianResidentDistribution(TEST_SIGMA),
    )


@pytest.fixture(scope="session")
def small_generator(small_model):
    """Network generator for the small deployment (25 groups x 30 sensors)."""
    return NetworkGenerator(
        model=small_model,
        group_size=TEST_GROUP_SIZE,
        radio=UnitDiskRadio(TEST_RADIO_RANGE),
    )


@pytest.fixture(scope="session")
def small_knowledge(small_generator) -> DeploymentKnowledge:
    """Deployment knowledge for the small deployment (coarse g(z) table)."""
    return small_generator.knowledge(omega=400)


@pytest.fixture(scope="session")
def small_network(small_generator):
    """One deployed realisation of the small network (seeded)."""
    return small_generator.generate(rng=2024)


@pytest.fixture(scope="session")
def small_index(small_network) -> NeighborIndex:
    """Neighbour index over the small network."""
    return NeighborIndex(small_network)
