"""The greedy adversary is the minimiser: brute force agrees on small instances.

Every detection rate the figures report assumes that
:class:`~repro.attacks.greedy.GreedyMetricMinimizer` finds the lowest
metric value its attack class allows.  With 3 groups of m = 6 sensors,
every integer taint is one of 7³ = 343 vectors, so the integer optimum is
one exhaustive search away.  Per (metric, attack class) the test draws
seeded instances — integer honest counts, real expected counts µ, integer
budgets 0–3 — and compares the greedy's metric value with the minimum over
the feasible integer taints:

* the greedy's value never exceeds that minimum (the Diff and Add-all
  greedy taints to real values, so it may undercut it);
* for the Probability metric, whose greedy moves whole nodes, the two are
  equal.

The feasibility mask is vectorised over instances and candidates, and
checked against :meth:`AttackClass.is_feasible` on the first instances.
Only the default mode is covered, the one every figure uses.
"""

import itertools

import numpy as np
import pytest

from repro.attacks.constraints import resolve_attack_class
from repro.attacks.greedy import GreedyMetricMinimizer
from repro.core.metrics import resolve_metric

GROUP_SIZE = 6
NUM_GROUPS = 3
NUM_INSTANCES = 100
MAX_BUDGET = 3

METRICS = ("diff", "add_all", "probability")
ATTACKS = ("dec_bounded", "dec_only")

#: Every integer taint, shape ``(343, 3)``.
CANDIDATES = np.array(
    list(itertools.product(range(GROUP_SIZE + 1), repeat=NUM_GROUPS)),
    dtype=np.float64,
)

#: Instances whose vectorised mask is checked candidate by candidate.
CHECKED_INSTANCES = 3


def _feasible(attack, honest, budgets):
    """``(instances, candidates)`` mask of the taints *attack* allows.

    Every candidate lies in ``[0, m]``, so what remains is the shared
    decrease budget and, for Dec-Only, the ban on increases.
    """
    below = honest[:, None, :] - CANDIDATES[None, :, :]
    mask = np.clip(below, 0.0, None).sum(axis=2) <= budgets[:, None]
    if not attack.allows_increase:
        mask &= (below >= 0).all(axis=2)
    return mask


@pytest.mark.parametrize("attack_name", ATTACKS)
@pytest.mark.parametrize("metric_name", METRICS)
def test_greedy_matches_brute_force_minimum(metric_name, attack_name):
    rng = np.random.default_rng(
        (7, METRICS.index(metric_name), ATTACKS.index(attack_name))
    )
    honest = rng.integers(0, GROUP_SIZE + 1, size=(NUM_INSTANCES, NUM_GROUPS))
    honest = honest.astype(np.float64)
    expected = rng.uniform(0.0, GROUP_SIZE, size=(NUM_INSTANCES, NUM_GROUPS))
    budgets = rng.integers(0, MAX_BUDGET + 1, size=NUM_INSTANCES)
    metric = resolve_metric(metric_name)
    attack = resolve_attack_class(attack_name)

    mask = _feasible(attack, honest, budgets)
    for i in range(CHECKED_INSTANCES):
        reference = [
            attack.is_feasible(
                honest[i], candidate, int(budgets[i]), group_size=GROUP_SIZE
            )
            for candidate in CANDIDATES
        ]
        np.testing.assert_array_equal(mask[i], reference)
    # The honest observation itself is always feasible.
    assert mask.any(axis=1).all()

    values = metric.compute(
        np.tile(CANDIDATES, (NUM_INSTANCES, 1)),
        np.repeat(expected, len(CANDIDATES), axis=0),
        group_size=GROUP_SIZE,
    ).reshape(NUM_INSTANCES, len(CANDIDATES))
    brute = np.where(mask, values, np.inf).min(axis=1)

    tainted = GreedyMetricMinimizer(metric_name, attack_name).taint_batch(
        honest, expected, budgets.tolist(), group_size=GROUP_SIZE
    )
    greedy = metric.compute(tainted, expected, group_size=GROUP_SIZE)

    beaten = np.flatnonzero(greedy > brute + 1e-9)
    assert beaten.size == 0, (
        f"brute force beat the greedy on instances {beaten.tolist()}: "
        f"greedy {greedy[beaten].tolist()} vs {brute[beaten].tolist()}"
    )
    if metric_name == "probability":
        np.testing.assert_allclose(greedy, brute, rtol=0.0, atol=1e-9)
