#!/usr/bin/env python
"""Battlefield-surveillance scenario: how LAD protects event reporting.

The paper motivates LAD with battlefield surveillance: sensors report events
tagged with their own derived location, and an adversary who displaces those
locations sends the response to the wrong place.  This example quantifies
that damage and shows the benefit of suppressing reports from sensors whose
location fails the LAD consistency check:

* deploy a network and corrupt a fraction of the sensors' derived locations
  with D-anomaly attacks (the adversary also taints those sensors'
  observations with the greedy Dec-Bounded procedure);
* scatter hazardous events over the field and collect the position-tagged
  reports;
* compare the report position error with no defence vs with LAD filtering.

Run with::

    python examples/battlefield_surveillance.py
"""

from __future__ import annotations

import numpy as np

import repro.attacks
import repro.metrics
from repro import (
    AttackBudget,
    DisplacementAttack,
    GreedyMetricMinimizer,
    NeighborIndex,
    NetworkGenerator,
    UnitDiskRadio,
    benign_scores,
    collect_training_data,
    derive_threshold,
    paper_deployment_model,
)
from repro.applications.surveillance import SurveillanceField

ATTACKED_FRACTION = 0.30  # fraction of sensors whose localization is attacked
DEGREE_OF_DAMAGE = 200.0  # metres
COMPROMISED_NEIGHBORS = 0.10
NUM_EVENTS = 60


def main() -> None:
    rng = np.random.default_rng(13)

    model = paper_deployment_model()
    generator = NetworkGenerator(model, group_size=60, radio=UnitDiskRadio(100.0))
    network = generator.generate(rng)
    knowledge = generator.knowledge()
    index = NeighborIndex(network)

    training = collect_training_data(
        generator,
        num_samples=200,
        samples_per_network=100,
        rng=21,
        knowledge=knowledge,
    )
    metric = repro.metrics.create("diff")
    threshold = derive_threshold(benign_scores(training, knowledge, metric), 0.99)
    print(f"network: {network.num_nodes} sensors; Diff threshold {threshold:.1f}")

    # --- adversary corrupts a subset of the sensors' derived locations -----
    believed = network.positions.copy()
    observations = index.observations_of_nodes(np.arange(network.num_nodes))
    num_attacked = int(ATTACKED_FRACTION * network.num_nodes)
    attacked_nodes = rng.choice(network.num_nodes, size=num_attacked, replace=False)

    displacement = DisplacementAttack(DEGREE_OF_DAMAGE)
    believed[attacked_nodes] = displacement.spoof_locations(
        network.positions[attacked_nodes], rng, region=network.region
    )
    adversary = GreedyMetricMinimizer(metric, repro.attacks.create("dec_bounded"))
    expected = knowledge.expected_observation(believed[attacked_nodes])
    budgets = [
        AttackBudget.from_fraction(int(observations[node].sum()), COMPROMISED_NEIGHBORS)
        for node in attacked_nodes
    ]
    observations[attacked_nodes] = adversary.taint_batch(
        observations[attacked_nodes], expected, budgets, group_size=knowledge.group_size
    )
    print(
        f"adversary displaced {num_attacked} sensors by {DEGREE_OF_DAMAGE:.0f} m and "
        f"tainted their observations"
    )

    # --- every sensor runs LAD on its own derived location ------------------
    alarms = metric.score(knowledge, believed, observations) > threshold
    flagged_attacked = alarms[attacked_nodes].mean()
    flagged_honest = np.delete(alarms, attacked_nodes).mean()
    print(
        f"LAD flagged {flagged_attacked:.0%} of the attacked sensors and "
        f"{flagged_honest:.1%} of the honest sensors (false alarms)"
    )

    # --- event reporting with and without LAD filtering ---------------------
    events = rng.uniform(100.0, 900.0, size=(NUM_EVENTS, 2))

    unprotected = SurveillanceField(network, believed, sensing_range=60.0)
    stats_unprotected = unprotected.report_events(events)

    protected = SurveillanceField(network, believed, sensing_range=60.0)
    protected.suppress_sensors(np.flatnonzero(alarms))
    stats_protected = protected.report_events(events)

    print()
    print(f"{'':<26} {'no defence':>12} {'with LAD':>12}")
    print(
        f"{'events detected':<26} "
        f"{stats_unprotected.detection_fraction:>12.0%} "
        f"{stats_protected.detection_fraction:>12.0%}"
    )
    print(
        f"{'mean report error (m)':<26} "
        f"{stats_unprotected.mean_report_error:>12.1f} "
        f"{stats_protected.mean_report_error:>12.1f}"
    )
    print(
        f"{'worst report error (m)':<26} "
        f"{stats_unprotected.max_report_error:>12.1f} "
        f"{stats_protected.max_report_error:>12.1f}"
    )
    print(
        f"{'reports suppressed':<26} "
        f"{stats_unprotected.suppressed_fraction:>12.0%} "
        f"{stats_protected.suppressed_fraction:>12.0%}"
    )


if __name__ == "__main__":
    main()
