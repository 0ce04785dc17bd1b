"""End-to-end integration tests of the full LAD pipeline.

These exercise the complete chain — deployment, neighbour discovery,
beaconless localization, threshold training, attack simulation, detection —
through the public API, on a deliberately small deployment so they stay
fast.
"""

import numpy as np
import pytest

import repro
from repro import (
    AttackBudget,
    BeaconlessLocalizer,
    DiffMetric,
    DisplacementAttack,
    GreedyMetricMinimizer,
    NeighborIndex,
    NetworkGenerator,
    UnitDiskRadio,
    benign_scores,
    collect_training_data,
    derive_threshold,
)
from repro.deployment.distributions import GaussianResidentDistribution
from repro.deployment.models import GridDeploymentModel
from repro.types import Region


@pytest.fixture(scope="module")
def pipeline():
    """Deploy, train and package everything the scenarios below need."""
    model = GridDeploymentModel(
        region=Region(0, 0, 500, 500),
        rows=5,
        cols=5,
        distribution=GaussianResidentDistribution(40.0),
    )
    generator = NetworkGenerator(model, group_size=40, radio=UnitDiskRadio(80.0))
    knowledge = generator.knowledge(omega=400)
    training = collect_training_data(
        generator, num_samples=80, samples_per_network=40, rng=101, knowledge=knowledge
    )
    metric = DiffMetric()
    threshold = derive_threshold(benign_scores(training, knowledge, metric), 0.99)
    network = generator.generate(rng=202)
    index = NeighborIndex(network)

    def alarms(locations, observations):
        """LAD's rule: flag when the score exceeds the trained threshold."""
        return metric.score(knowledge, locations, observations) > threshold

    return {
        "generator": generator,
        "knowledge": knowledge,
        "training": training,
        "alarms": alarms,
        "network": network,
        "index": index,
    }


class TestPublicApi:
    def test_version_and_exports(self):
        assert repro.__version__
        for name in repro.__all__:
            assert hasattr(repro, name), name


class TestBenignOperation:
    def test_benign_nodes_rarely_flagged(self, pipeline):
        """An honest node localising itself should rarely raise an alarm
        (false positives stay near the trained 1% budget)."""
        knowledge = pipeline["knowledge"]
        network = pipeline["network"]
        index = pipeline["index"]
        localizer = BeaconlessLocalizer()

        rng = np.random.default_rng(5)
        nodes = rng.choice(network.num_nodes, size=60, replace=False)
        observations = index.observations_of_nodes(nodes)
        estimates = localizer.localize_observations(knowledge, observations)
        alarms = pipeline["alarms"](estimates, observations)
        assert alarms.mean() <= 0.15

    def test_benign_localization_is_accurate(self, pipeline):
        errors = pipeline["training"].localization_errors()
        assert np.median(errors) < 40.0


class TestAttackDetection:
    def test_large_displacement_detected_despite_tainting(self, pipeline):
        """A D=200 m anomaly with 10% compromised neighbours and a greedy
        Dec-Bounded adversary is still detected for most victims."""
        knowledge = pipeline["knowledge"]
        network = pipeline["network"]
        index = pipeline["index"]

        rng = np.random.default_rng(6)
        victims = rng.choice(network.num_nodes, size=50, replace=False)
        honest = index.observations_of_nodes(victims)
        actual = network.positions[victims]

        displacement = DisplacementAttack(200.0)
        spoofed = displacement.spoof_locations(actual, rng, region=network.region)
        expected = knowledge.expected_observation(spoofed)

        adversary = GreedyMetricMinimizer("diff", "dec_bounded")
        budgets = [
            AttackBudget.from_fraction(int(o.sum()), 0.10) for o in honest
        ]
        tainted = adversary.taint_batch(
            honest,
            expected,
            budgets,
            group_size=knowledge.group_size,
        )

        alarms = pipeline["alarms"](spoofed, tainted)
        assert alarms.mean() > 0.7

    def test_small_displacement_mostly_undetected(self, pipeline):
        """A D=15 m error is inside the localization noise floor, so LAD
        should *not* flag it aggressively — matching the paper's observation
        that low-damage attacks are hard (and unimportant) to catch."""
        network = pipeline["network"]
        index = pipeline["index"]

        rng = np.random.default_rng(7)
        victims = rng.choice(network.num_nodes, size=50, replace=False)
        honest = index.observations_of_nodes(victims)
        actual = network.positions[victims]
        spoofed = DisplacementAttack(
            15.0,
        ).spoof_locations(actual, rng, region=network.region)
        alarms = pipeline["alarms"](spoofed, honest)
        assert alarms.mean() < 0.5

    def test_detection_rate_grows_with_damage(self, pipeline):
        knowledge = pipeline["knowledge"]
        network = pipeline["network"]
        index = pipeline["index"]

        rng = np.random.default_rng(8)
        victims = rng.choice(network.num_nodes, size=60, replace=False)
        honest = index.observations_of_nodes(victims)
        actual = network.positions[victims]
        adversary = GreedyMetricMinimizer("diff", "dec_bounded")

        rates = []
        for degree in (30.0, 100.0, 220.0):
            spoofed = DisplacementAttack(degree).spoof_locations(
                actual, rng, region=network.region
            )
            expected = knowledge.expected_observation(spoofed)
            budgets = [AttackBudget.from_fraction(int(o.sum()), 0.10) for o in honest]
            tainted = adversary.taint_batch(
                honest, expected, budgets, group_size=knowledge.group_size
            )
            rates.append(float(pipeline["alarms"](spoofed, tainted).mean()))
        assert rates[0] <= rates[1] <= rates[2]
        assert rates[2] > 0.8


class TestApplicationLevelImpact:
    def test_lad_filtering_improves_surveillance_reports(self, pipeline):
        """Suppressing reports from sensors whose location fails the LAD
        check removes the grossly wrong event positions."""
        from repro.applications.surveillance import SurveillanceField

        network = pipeline["network"]
        index = pipeline["index"]

        rng = np.random.default_rng(9)
        believed = network.positions.copy()
        # Attack a third of the sensors with a 250 m displacement.
        attacked_nodes = rng.choice(
            network.num_nodes,
            size=network.num_nodes // 3,
            replace=False,
        )
        believed[attacked_nodes] = DisplacementAttack(250.0).spoof_locations(
            network.positions[attacked_nodes], rng, region=network.region
        )

        # Each sensor runs LAD on its believed position.
        observations = index.observations_of_nodes(np.arange(network.num_nodes))
        alarms = pipeline["alarms"](believed, observations)

        events = rng.uniform(100, 400, size=(15, 2))
        unfiltered = SurveillanceField(
            network,
            believed,
            sensing_range=60.0,
        ).report_events(events)
        filtered_field = SurveillanceField(network, believed, sensing_range=60.0)
        filtered_field.suppress_sensors(np.flatnonzero(alarms))
        filtered = filtered_field.report_events(events)

        assert filtered.mean_report_error < unfiltered.mean_report_error
