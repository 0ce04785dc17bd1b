#!/usr/bin/env python
"""Quickstart: deploy a sensor network, localize, attack, and detect with LAD.

This walks through the whole pipeline of the paper on a single network:

1. deploy a paper-style network (10 x 10 deployment grid, Gaussian landing
   distribution, unit-disk radio);
2. let a sensor localize itself with the beaconless MLE scheme;
3. train the LAD detection threshold on benign simulated deployments;
4. simulate a localization attack (a D-anomaly) plus a greedy Dec-Bounded
   adversary tainting the victim's observation;
5. verify both the benign and the attacked location claim with the LAD
   detector, :class:`~repro.serving.DetectionService`.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

import repro.localization
import repro.metrics
from repro import (
    AttackBudget,
    DetectionService,
    DisplacementAttack,
    GreedyMetricMinimizer,
    LocationClaim,
    NeighborIndex,
    NetworkGenerator,
    UnitDiskRadio,
    benign_scores,
    collect_training_data,
    derive_threshold,
    localization_error,
    paper_deployment_model,
)


def main() -> None:
    rng = np.random.default_rng(7)

    # ------------------------------------------------------------------ deploy
    # A smaller group size than the paper's m=300 keeps the example snappy.
    model = paper_deployment_model(sigma=50.0)
    generator = NetworkGenerator(model, group_size=100, radio=UnitDiskRadio(100.0))
    network = generator.generate(rng)
    knowledge = generator.knowledge()
    index = NeighborIndex(network)
    print(f"deployed {network.num_nodes} sensors in {network.n_groups} groups")

    # ---------------------------------------------------------------- localize
    victim = int(rng.integers(network.num_nodes))
    observation = index.observation_of_node(victim)
    # Components are plugged in by registered name; see
    # repro.localization.available() / repro.metrics.available().
    localizer = repro.localization.create("beaconless")
    estimate = localizer.localize_observations(knowledge, observation)[0]
    true_position = network.positions[victim]
    print(
        f"victim {victim}: true position {np.round(true_position, 1)}, "
        f"beaconless estimate {np.round(estimate, 1)} "
        f"(error {localization_error(estimate, true_position):.1f} m)"
    )

    # ------------------------------------------------------------------- train
    # The threshold is the tau-percentile of the benign training scores
    # (paper Section 5.5); the detector serves claims against it.
    training = collect_training_data(
        generator,
        num_samples=200,
        samples_per_network=100,
        rng=11,
        knowledge=knowledge,
    )
    metric = repro.metrics.create("diff")
    threshold = derive_threshold(benign_scores(training, knowledge, metric), 0.99)
    detector = DetectionService(knowledge, thresholds={metric.name: threshold})
    print(
        f"trained Diff-metric threshold: {threshold:.1f} "
        f"(tau=99%, benign localization error "
        f"{training.localization_errors().mean():.1f} m on average)"
    )

    # ------------------------------------------------------- benign detection
    benign_verdict = detector.verify(
        LocationClaim(observation=observation, claimed_location=estimate)
    )
    print(
        f"benign check: score {benign_verdict.score:.1f} vs threshold "
        f"{benign_verdict.threshold:.1f} -> anomalous={benign_verdict.anomalous}"
    )

    # ------------------------------------------------------------------ attack
    # The adversary forces a D=120 m localization error and controls 10% of
    # the victim's neighbours, which it uses to minimise the Diff metric.
    degree_of_damage = 120.0
    spoofed = DisplacementAttack(degree_of_damage).spoof_location(
        true_position, rng, region=network.region
    )
    expected_at_spoofed = knowledge.expected_observation(spoofed[None, :])[0]
    budget = AttackBudget.from_fraction(int(observation.sum()), 0.10)
    adversary = GreedyMetricMinimizer(metric="diff", attack_class="dec_bounded")
    tainted = adversary.taint(
        observation, expected_at_spoofed, budget, group_size=knowledge.group_size
    )
    print(
        f"attack: spoofed location {np.round(spoofed, 1)} "
        f"(D={degree_of_damage:.0f} m), "
        f"{budget.compromised_nodes} compromised neighbours"
    )

    # ---------------------------------------------------------- LAD detection
    attack_verdict = detector.verify(
        LocationClaim(observation=tainted, claimed_location=spoofed)
    )
    print(
        f"attacked check: score {attack_verdict.score:.1f} vs threshold "
        f"{attack_verdict.threshold:.1f} -> anomalous={attack_verdict.anomalous}"
    )
    if attack_verdict.anomalous:
        print("LAD correctly flagged the spoofed location.")
    else:
        print("the attack evaded detection this time (small-D attacks sometimes do).")


if __name__ == "__main__":
    main()
