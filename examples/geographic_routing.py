#!/usr/bin/env python
"""Geographic-routing scenario: localization attacks vs packet delivery.

Geographic routing forwards packets toward the neighbour whose *believed*
location is closest to the destination, so corrupted locations break
delivery.  This example measures greedy-forwarding delivery rate in three
configurations:

1. honest locations (every node localises correctly);
2. attacked locations (a fraction of nodes hold D-anomaly locations);
3. attacked locations, but nodes whose LAD check fails fall back to their
   beaconless location estimate instead of the spoofed one.

Run with::

    python examples/geographic_routing.py
"""

from __future__ import annotations

import numpy as np

import repro.localization
from repro import (
    DiffMetric,
    DisplacementAttack,
    NeighborIndex,
    NetworkGenerator,
    UnitDiskRadio,
    benign_scores,
    collect_training_data,
    derive_threshold,
    paper_deployment_model,
)
from repro.applications.routing import evaluate_routing

ATTACKED_FRACTION = 0.35
DEGREE_OF_DAMAGE = 250.0
NUM_FLOWS = 40


def main() -> None:
    rng = np.random.default_rng(29)

    model = paper_deployment_model()
    generator = NetworkGenerator(model, group_size=40, radio=UnitDiskRadio(100.0))
    network = generator.generate(rng)
    knowledge = generator.knowledge()
    index = NeighborIndex(network)
    print(f"network: {network.num_nodes} sensors, radio range 100 m")

    # Train the Diff-metric threshold and the fallback localizer.
    training = collect_training_data(
        generator, num_samples=150, samples_per_network=75, rng=31, knowledge=knowledge
    )
    metric = DiffMetric()
    threshold = derive_threshold(benign_scores(training, knowledge, metric), 0.99)
    localizer = repro.localization.create("beaconless")

    # Honest believed locations = true positions (idealised localization).
    honest_positions = network.positions.copy()

    # Attack a fraction of the nodes' believed locations.
    attacked_positions = honest_positions.copy()
    attacked_nodes = rng.choice(
        network.num_nodes,
        size=int(ATTACKED_FRACTION * network.num_nodes),
        replace=False,
    )
    attacked_positions[attacked_nodes] = DisplacementAttack(
        DEGREE_OF_DAMAGE
    ).spoof_locations(network.positions[attacked_nodes], rng, region=network.region)

    # LAD-protected locations: every node checks its believed location
    # against its observation; on an alarm it re-localises with the
    # beaconless scheme (which only uses its own honest observation).
    observations = index.observations_of_nodes(np.arange(network.num_nodes))
    alarms = metric.score(knowledge, attacked_positions, observations) > threshold
    protected_positions = attacked_positions.copy()
    flagged = np.flatnonzero(alarms)
    if flagged.size:
        protected_positions[flagged] = localizer.localize_observations(
            knowledge, observations[flagged]
        )
    print(
        f"attacked sensors: {attacked_nodes.size}; LAD alarms: {flagged.size} "
        f"({alarms[attacked_nodes].mean():.0%} of attacked, "
        f"{np.delete(alarms, attacked_nodes).mean():.1%} of honest)"
    )

    # Random source -> destination flows shared by all three configurations.
    sources = rng.choice(network.num_nodes, size=NUM_FLOWS, replace=False)
    destinations = rng.uniform(100.0, 900.0, size=(NUM_FLOWS, 2))
    flows = list(zip(sources.tolist(), destinations))

    print()
    print(f"{'configuration':<28} {'delivery':>9} {'mean hops':>10} {'path (m)':>10}")
    for label, believed in (
        ("honest locations", honest_positions),
        ("attacked locations", attacked_positions),
        ("attacked + LAD fallback", protected_positions),
    ):
        stats = evaluate_routing(network, believed, flows)
        print(
            f"{label:<28} {stats.delivery_rate:>9.0%} "
            f"{stats.mean_hops:>10.1f} {stats.mean_path_length:>10.1f}"
        )


if __name__ == "__main__":
    main()
