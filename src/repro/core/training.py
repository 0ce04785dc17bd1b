"""Training-data collection for threshold derivation (paper Section 5.5).

The training procedure mirrors the paper's:

1. deploy simulated sensor networks from the deployment model;
2. pick random sensors and record their actual locations and honest
   observations;
3. run the chosen localization scheme to obtain estimated locations;
4. evaluate the detection metrics on the benign
   ``(estimated location, observation)`` pairs — the resulting empirical
   distribution yields the detection thresholds.

Because the benign estimated locations come from a real localization run,
the benign score distribution automatically absorbs the localization
scheme's own error, which is what makes the thresholds scheme-dependent
(Section 7.2) and what drives the density effect of Figure 9.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro.core.metrics import AnomalyMetric, resolve_metric
from repro.deployment.knowledge import DeploymentKnowledge
from repro.localization.base import (
    BeaconInfrastructure,
    LocalizationContext,
    LocalizationScheme,
)
from repro.localization.beaconless import BeaconlessLocalizer
from repro.localization.beacons import beacon_contexts
from repro.network.generator import NetworkGenerator
from repro.network.neighbors import NeighborIndex
from repro.utils.rng import as_generator
from repro.utils.validation import check_int

__all__ = ["TrainingData", "collect_training_data", "benign_scores"]


@dataclass
class TrainingData:
    """Benign samples collected from simulated deployments.

    Attributes
    ----------
    observations:
        Honest observation vectors, shape ``(k, n_groups)``.
    actual_locations:
        Ground-truth resident points, shape ``(k, 2)``.
    estimated_locations:
        Locations produced by the localization scheme, shape ``(k, 2)``.
    neighbor_counts:
        Total number of neighbours of each sampled node, shape ``(k,)``.
    """

    observations: np.ndarray
    actual_locations: np.ndarray
    estimated_locations: np.ndarray
    neighbor_counts: np.ndarray

    def __post_init__(self) -> None:
        self.observations = np.asarray(self.observations, dtype=np.float64)
        self.actual_locations = np.asarray(self.actual_locations, dtype=np.float64)
        self.estimated_locations = np.asarray(
            self.estimated_locations,
            dtype=np.float64,
        )
        self.neighbor_counts = np.asarray(self.neighbor_counts, dtype=np.int64)
        k = self.observations.shape[0]
        if (
            self.actual_locations.shape != (k, 2)
            or self.estimated_locations.shape != (k, 2)
            or self.neighbor_counts.shape != (k,)
        ):
            raise ValueError("training-data arrays have inconsistent shapes")

    @property
    def num_samples(self) -> int:
        """Number of benign samples collected."""
        return int(self.observations.shape[0])

    def localization_errors(self) -> np.ndarray:
        """Per-sample benign localization error ``|L_e − L_a|``."""
        diff = self.estimated_locations - self.actual_locations
        return np.hypot(diff[:, 0], diff[:, 1])


def collect_training_data(
    generator: NetworkGenerator,
    *,
    num_samples: int = 500,
    samples_per_network: int = 100,
    localizer: Optional[LocalizationScheme] = None,
    beacons: Optional[BeaconInfrastructure] = None,
    beacon_noise_std: float = 0.0,
    rng=None,
    knowledge: Optional[DeploymentKnowledge] = None,
) -> TrainingData:
    """Simulate deployments and collect benign training samples.

    Parameters
    ----------
    generator:
        The network generator describing the deployment to train for.
    num_samples:
        Total number of benign ``(observation, L_a, L_e)`` samples.
    samples_per_network:
        How many sensors to sample from each deployed network before a fresh
        network is generated (amortises the deployment cost while still
        averaging over deployment randomness).
    localizer:
        The localization scheme used to produce the estimated locations;
        defaults to the beaconless MLE scheme evaluated in the paper.
    beacons:
        Beacon infrastructure shared by every deployed network.  Required
        when *localizer* is beacon-based (``requires_beacons``): each
        sampled node's context then carries the audible beacons, the
        (optionally noisy) distance measurements and — for DV-Hop — the
        per-network flooding profile.
    beacon_noise_std:
        Standard deviation of the distance-measurement noise for the
        range-based schemes.
    rng:
        Seed or generator.
    knowledge:
        The deployment knowledge (``g(z)`` table, backend) the localizer
        estimates against.  Pass the knowledge that will score the
        thresholds' claims, so training and scoring share one table;
        ``None`` builds the generator's default knowledge.
    """
    check_int("num_samples", num_samples, minimum=1)
    check_int("samples_per_network", samples_per_network, minimum=1)
    generator_rng = as_generator(rng)
    localizer = localizer or BeaconlessLocalizer()
    if localizer.requires_beacons and beacons is None:
        raise ValueError(
            f"the {localizer.name!r} scheme is beacon-based: pass a "
            "BeaconInfrastructure (or configure a BeaconSpec on the session)"
        )
    if knowledge is None:
        knowledge = generator.knowledge()

    observations = []
    actual = []
    estimated = []
    neighbor_counts = []

    for network, nodes in generator.sample_nodes(
        generator_rng, num_samples, samples_per_network
    ):
        obs = NeighborIndex(network).observations_of_nodes(nodes)
        counts = obs.sum(axis=1).astype(np.int64)
        if isinstance(localizer, BeaconlessLocalizer):
            est = localizer.localize_observations(knowledge, obs)
        else:
            if localizer.requires_beacons:
                contexts = beacon_contexts(
                    network.positions[nodes],
                    beacons,
                    localizer,
                    network=network,
                    observations=obs,
                    knowledge=knowledge,
                    noise_std=beacon_noise_std,
                    rng=generator_rng,
                    nodes=nodes,
                )
            else:
                contexts = [
                    LocalizationContext(
                        observation=obs[row],
                        knowledge=knowledge,
                        true_position=network.positions[node],
                    )
                    for row, node in enumerate(nodes)
                ]
            results = localizer.localize_many(contexts, rng=generator_rng)
            est = np.stack([result.position for result in results])

        observations.append(obs)
        actual.append(network.positions[nodes])
        estimated.append(est)
        neighbor_counts.append(counts)

    return TrainingData(
        observations=np.vstack(observations),
        actual_locations=np.vstack(actual),
        estimated_locations=np.vstack(estimated),
        neighbor_counts=np.concatenate(neighbor_counts),
    )


def benign_scores(
    training: TrainingData,
    knowledge: DeploymentKnowledge,
    metric: Union[str, AnomalyMetric],
) -> np.ndarray:
    """Metric scores of the benign training samples (larger = more anomalous)."""
    return resolve_metric(metric).score(
        knowledge, training.estimated_locations, training.observations
    )
