"""Network generation from a deployment model.

The generator implements the deployment process of Section 3.1: ``n``
equal-size groups of ``m`` sensors, group ``G_i`` dropped at deployment
point ``i``, every sensor's resident point drawn from the model's landing
distribution around its group's deployment point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from repro.deployment.knowledge import DeploymentKnowledge
from repro.deployment.models import DeploymentModel, paper_deployment_model
from repro.network.network import SensorNetwork
from repro.network.radio import RadioModel, UnitDiskRadio
from repro.utils.rng import as_generator
from repro.utils.validation import check_int

__all__ = ["NetworkGenerator", "generate_network"]


@dataclass
class NetworkGenerator:
    """Factory producing :class:`SensorNetwork` instances from a model.

    Parameters
    ----------
    model:
        Deployment model (grid of deployment points + landing distribution).
    group_size:
        Number of sensors per group (``m``).
    radio:
        Radio model; defaults to the unit disk with ``R`` = 100 m used in
        the paper's experiments.
    clip_to_region:
        Clamp resident points onto the region boundary (off by default, as
        in the paper).
    """

    model: DeploymentModel
    group_size: int = 300
    radio: Optional[RadioModel] = None
    clip_to_region: bool = False

    def __post_init__(self) -> None:
        check_int("group_size", self.group_size, minimum=1)
        if self.radio is None:
            self.radio = UnitDiskRadio(100.0)

    @property
    def num_nodes(self) -> int:
        """Total number of nodes each generated network will contain."""
        return self.model.n_groups * self.group_size

    def generate(self, rng=None) -> SensorNetwork:
        """Deploy one network realisation."""
        generator = as_generator(rng)
        positions, group_ids = self.model.sample_network_positions(
            generator, self.group_size, clip_to_region=self.clip_to_region
        )
        return SensorNetwork(
            positions=positions,
            group_ids=group_ids,
            n_groups=self.model.n_groups,
            radio=self.radio,
            region=self.model.region,
        )

    def sample_nodes(
        self, rng, total: int, per_network: int
    ) -> Iterator[tuple[SensorNetwork, np.ndarray]]:
        """Deploy networks and draw *total* nodes from them, network by network.

        Yields ``(network, nodes)``: each network is deployed from *rng* (a
        seed or a generator), then ``min(per_network, remaining)`` of its
        nodes are drawn without replacement from the same stream.  The
        generator is lazy, so draws a caller makes from *rng* between
        networks keep their place in the stream.
        """
        rng = as_generator(rng)
        remaining = int(total)
        while remaining > 0:
            network = self.generate(rng)
            take = min(int(per_network), remaining)
            yield network, rng.choice(network.num_nodes, size=take, replace=False)
            remaining -= take

    def knowledge(
        self,
        *,
        omega: int = 1000,
        backend=None,
    ) -> DeploymentKnowledge:
        """The deployment knowledge matching the networks this generator makes.

        *backend* is forwarded to :class:`DeploymentKnowledge` (``None``
        keeps the numpy reference backend).
        """
        return DeploymentKnowledge(
            self.model,
            group_size=self.group_size,
            radio_range=self.radio.nominal_range,
            omega=omega,
            backend=backend,
        )


def generate_network(
    group_size: int = 300,
    *,
    radio_range: float = 100.0,
    sigma: float = 50.0,
    rng=None,
    model: Optional[DeploymentModel] = None,
) -> tuple[SensorNetwork, DeploymentKnowledge]:
    """Convenience helper: deploy one paper-style network and its knowledge.

    Returns the ``(network, knowledge)`` pair with the paper's default
    parameters (10 x 10 grid over 1 km², ``σ`` = 50 m, ``R`` = 100 m,
    ``m`` = *group_size*).
    """
    if model is None:
        model = paper_deployment_model(sigma=sigma)
    generator = NetworkGenerator(
        model=model, group_size=group_size, radio=UnitDiskRadio(radio_range)
    )
    network = generator.generate(rng)
    knowledge = generator.knowledge()
    return network, knowledge
