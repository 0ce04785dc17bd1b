"""Seeded-grid invariant tests for the greedy metric-minimising adversary.

A deterministic random grid (plain numpy, no extra dependencies) sweeps
every (metric x attack class) combination and checks the
invariants any correct adversary must satisfy, whatever the inputs:

* the tainted observation is feasible under its attack class — Dec-Only
  never raises a count, Dec-Bounded never exceeds the physical group size;
* the total decrease never exceeds the compromised-node budget;
* tainting never *hurts* the adversary: the metric value of the tainted
  observation never exceeds the honest observation's metric value.

These complement the hypothesis suite in ``tests/test_property_based.py``
with exhaustive combination coverage on reproducible inputs, so a failure
names the exact (metric, attack, trial) tuple that broke.
"""

import numpy as np
import pytest

from repro.attacks.constraints import resolve_attack_class
from repro.attacks.greedy import GreedyMetricMinimizer
from repro.core.metrics import resolve_metric

GROUP_SIZE = 25

#: Numerical slack for real-valued feasibility checks.
TOL = 1e-9

METRICS = ("diff", "add_all", "probability")
ATTACKS = ("dec_bounded", "dec_only")
NUM_TRIALS = 12


def _trial_inputs(rng, n_groups: int):
    """One random (honest, expected, budget) triple.

    Honest observations are integer counts within the physical bounds
    (that is what neighbour collection produces); expected observations
    are real-valued; budgets span zero, binding and gap-closing regimes.
    """
    honest = rng.integers(0, GROUP_SIZE + 1, size=n_groups).astype(np.float64)
    expected = rng.uniform(0.0, GROUP_SIZE, size=n_groups)
    budget = int(rng.integers(0, 3 * n_groups))
    return honest, expected, budget


@pytest.mark.parametrize("metric_name", METRICS)
@pytest.mark.parametrize("attack_name", ATTACKS)
class TestAdversaryInvariants:
    def test_invariants_hold_on_seeded_grid(self, metric_name, attack_name):
        # One reproducible stream per combination (str hashing is process
        # randomised, so derive the seed from the grid indices instead).
        rng = np.random.default_rng(
            20050404
            + 100 * METRICS.index(metric_name)
            + 10 * ATTACKS.index(attack_name)
        )
        metric = resolve_metric(metric_name)
        attack = resolve_attack_class(attack_name)
        adversary = GreedyMetricMinimizer(metric_name, attack_name)
        for trial in range(NUM_TRIALS):
            n_groups = int(rng.integers(1, 20))
            honest, expected, budget = _trial_inputs(rng, n_groups)
            tainted = adversary.taint(
                honest, expected, budget, group_size=GROUP_SIZE
            )
            context = f"metric={metric_name} attack={attack_name} trial={trial}"

            # Attack-class feasibility (also covers non-negativity).
            assert attack.is_feasible(
                honest, tainted, budget, group_size=GROUP_SIZE
            ), context
            if not attack.allows_increase:
                assert np.all(tainted <= honest + TOL), context
            assert np.all(tainted <= GROUP_SIZE + TOL), context
            assert np.all(tainted >= -TOL), context

            # Shared decrease budget.
            decrease = np.clip(honest - tainted, 0.0, None).sum()
            assert decrease <= budget + TOL, context

            # Tainting must never increase the metric value.
            before = metric.compute(honest, expected, group_size=GROUP_SIZE)
            after = metric.compute(tainted, expected, group_size=GROUP_SIZE)
            assert after <= before + TOL, context

    def test_batch_preserves_the_invariants(self, metric_name, attack_name):
        """The batch path satisfies the same invariants row by row."""
        rng = np.random.default_rng(1234)
        attack = resolve_attack_class(attack_name)
        adversary = GreedyMetricMinimizer(metric_name, attack_name)
        k, n_groups = 16, 10
        honest = rng.integers(0, GROUP_SIZE + 1, size=(k, n_groups)).astype(
            np.float64
        )
        expected = rng.uniform(0.0, GROUP_SIZE, size=(k, n_groups))
        budgets = [int(b) for b in rng.integers(0, 3 * n_groups, size=k)]
        tainted = adversary.taint_batch(
            honest, expected, budgets, group_size=GROUP_SIZE
        )
        for row in range(k):
            assert attack.is_feasible(
                honest[row], tainted[row], budgets[row], group_size=GROUP_SIZE
            ), row
            decrease = np.clip(honest[row] - tainted[row], 0.0, None).sum()
            assert decrease <= budgets[row] + TOL, row
