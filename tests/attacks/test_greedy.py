"""Tests for :mod:`repro.attacks.greedy` (the metric-minimising adversary)."""

import numpy as np
import pytest

from repro.attacks.constraints import DecBoundedAttack, DecOnlyAttack
from repro.attacks.greedy import GreedyMetricMinimizer, taint_observation
from repro.core.metrics import AddAllMetric, DiffMetric, ProbabilityMetric
from repro.experiments.config import SimulationConfig
from repro.experiments.figures import FIGURE_SPECS, run_figure_spec
from tests.attacks.greedy_oracle import oracle_taint_batch

GROUP_SIZE = 30


@pytest.fixture()
def scenario():
    """An honest observation and the expected observation at a spoofed spot."""
    honest = np.array([12.0, 8.0, 0.0, 1.0, 20.0, 3.0])
    expected = np.array([2.0, 8.0, 9.0, 4.0, 5.0, 0.0])
    return honest, expected


class TestDiffMetricAdversary:
    def test_paper_procedure_dec_bounded(self, scenario):
        """Section 7.1: raise entries with µ > a to µ for free; spend the
        budget decreasing entries with a > µ toward µ."""
        honest, expected = scenario
        adversary = GreedyMetricMinimizer("diff", "dec_bounded")
        tainted = adversary.taint(honest, expected, 10, group_size=GROUP_SIZE)
        # Entries where expected > honest were raised exactly to expected.
        raised = expected > honest
        np.testing.assert_allclose(tainted[raised], expected[raised])
        # Total decrease respects the budget.
        assert np.clip(honest - tainted, 0, None).sum() <= 10 + 1e-9
        assert DecBoundedAttack().is_feasible(
            honest, tainted, 10, group_size=GROUP_SIZE
        )

    def test_unlimited_budget_reaches_zero_metric(self, scenario):
        honest, expected = scenario
        adversary = GreedyMetricMinimizer("diff", "dec_bounded")
        tainted = adversary.taint(honest, expected, 1000, group_size=GROUP_SIZE)
        assert DiffMetric().compute(tainted, expected) == pytest.approx(0.0)

    def test_zero_budget_only_increases(self, scenario):
        honest, expected = scenario
        adversary = GreedyMetricMinimizer("diff", "dec_bounded")
        tainted = adversary.taint(honest, expected, 0, group_size=GROUP_SIZE)
        assert np.all(tainted >= np.minimum(honest, expected) - 1e-12)
        # Residual metric equals the total deficit that could not be erased.
        deficit = np.clip(honest - expected, 0, None).sum()
        assert DiffMetric().compute(tainted, expected) == pytest.approx(deficit)

    def test_metric_monotone_in_budget(self, scenario):
        honest, expected = scenario
        adversary = GreedyMetricMinimizer("diff", "dec_bounded")
        values = []
        for budget in range(0, 40, 5):
            tainted = adversary.taint(honest, expected, budget, group_size=GROUP_SIZE)
            values.append(DiffMetric().compute(tainted, expected))
        assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))

    def test_dec_only_cannot_increase(self, scenario):
        honest, expected = scenario
        adversary = GreedyMetricMinimizer("diff", "dec_only")
        tainted = adversary.taint(honest, expected, 10, group_size=GROUP_SIZE)
        assert np.all(tainted <= honest + 1e-12)
        assert DecOnlyAttack().is_feasible(honest, tainted, 10)

    def test_dec_bounded_at_least_as_strong_as_dec_only(self, scenario):
        honest, expected = scenario
        for budget in (0, 5, 15, 50):
            bounded = GreedyMetricMinimizer("diff", "dec_bounded").taint(
                honest, expected, budget, group_size=GROUP_SIZE
            )
            only = GreedyMetricMinimizer("diff", "dec_only").taint(
                honest, expected, budget, group_size=GROUP_SIZE
            )
            metric = DiffMetric()
            assert metric.compute(
                bounded,
                expected,
            ) <= metric.compute(only, expected) + 1e-9

    def test_optimality_against_random_feasible_attacks(self, scenario):
        """No random feasible Dec-Bounded manipulation should beat the greedy
        adversary (for the Diff metric the greedy solution is optimal)."""
        honest, expected = scenario
        budget = 8
        adversary = GreedyMetricMinimizer("diff", "dec_bounded")
        greedy_score = DiffMetric().compute(
            adversary.taint(honest, expected, budget, group_size=GROUP_SIZE), expected
        )
        rng = np.random.default_rng(0)
        constraint = DecBoundedAttack()
        for _ in range(200):
            # Random feasible taint: random increases, random decreases <= budget.
            increases = rng.uniform(
                0,
                10,
                size=honest.size,
            ) * rng.integers(0, 2, size=honest.size)
            decrease_total = rng.uniform(0, budget)
            weights = rng.dirichlet(np.ones(honest.size))
            decreases = np.minimum(weights * decrease_total, honest)
            candidate = honest + increases - decreases
            assert constraint.is_feasible(honest, candidate, budget)
            assert DiffMetric().compute(candidate, expected) >= greedy_score - 1e-9


class TestAddAllAdversary:
    def test_never_increases(self, scenario):
        honest, expected = scenario
        for attack in ("dec_bounded", "dec_only"):
            tainted = GreedyMetricMinimizer("add_all", attack).taint(
                honest, expected, 10, group_size=GROUP_SIZE
            )
            assert np.all(tainted <= honest + 1e-12)

    def test_budget_respected_and_metric_reduced(self, scenario):
        honest, expected = scenario
        metric = AddAllMetric()
        tainted = GreedyMetricMinimizer("add_all", "dec_bounded").taint(
            honest, expected, 10, group_size=GROUP_SIZE
        )
        assert np.clip(honest - tainted, 0, None).sum() <= 10 + 1e-9
        assert metric.compute(tainted, expected) <= metric.compute(honest, expected)

    def test_lower_bound_is_sum_of_expected(self, scenario):
        honest, expected = scenario
        tainted = GreedyMetricMinimizer("add_all", "dec_bounded").taint(
            honest, expected, 10_000, group_size=GROUP_SIZE
        )
        assert AddAllMetric().compute(tainted, expected) == pytest.approx(
            expected.sum()
        )


class TestProbabilityAdversary:
    def test_budget_and_feasibility(self, scenario):
        honest, expected = scenario
        tainted = GreedyMetricMinimizer("probability", "dec_bounded").taint(
            honest, expected, 6, group_size=GROUP_SIZE
        )
        assert DecBoundedAttack().is_feasible(honest, tainted, 6, group_size=GROUP_SIZE)

    def test_metric_improves(self, scenario):
        honest, expected = scenario
        metric = ProbabilityMetric()
        before = metric.compute(honest, expected, group_size=GROUP_SIZE)
        tainted = GreedyMetricMinimizer("probability", "dec_bounded").taint(
            honest, expected, 20, group_size=GROUP_SIZE
        )
        after = metric.compute(tainted, expected, group_size=GROUP_SIZE)
        assert after <= before + 1e-9

    def test_dec_only_never_increases(self, scenario):
        honest, expected = scenario
        tainted = GreedyMetricMinimizer("probability", "dec_only").taint(
            honest, expected, 20, group_size=GROUP_SIZE
        )
        assert np.all(tainted <= honest + 1e-12)

    def test_requires_group_size(self, scenario):
        honest, expected = scenario
        with pytest.raises(ValueError):
            GreedyMetricMinimizer("probability", "dec_bounded").taint(
                honest, expected, 5
            )

    def test_metric_monotone_in_budget(self, scenario):
        honest, expected = scenario
        metric = ProbabilityMetric()
        adversary = GreedyMetricMinimizer("probability", "dec_bounded")
        values = [
            metric.compute(
                adversary.taint(honest, expected, budget, group_size=GROUP_SIZE),
                expected,
                group_size=GROUP_SIZE,
            )
            for budget in (0, 5, 10, 20, 40)
        ]
        assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))


class TestBatch:
    def test_batch_matches_scalar(self, scenario):
        honest, expected = scenario
        adversary = GreedyMetricMinimizer("diff", "dec_bounded")
        batch = adversary.taint_batch(
            np.vstack([honest, honest]),
            np.vstack([expected, expected]),
            [5, 15],
            group_size=GROUP_SIZE,
        )
        np.testing.assert_allclose(
            batch[0], adversary.taint(honest, expected, 5, group_size=GROUP_SIZE)
        )
        np.testing.assert_allclose(
            batch[1], adversary.taint(honest, expected, 15, group_size=GROUP_SIZE)
        )

    def test_batch_shape_validation(self, scenario):
        honest, expected = scenario
        adversary = GreedyMetricMinimizer("diff", "dec_bounded")
        with pytest.raises(ValueError):
            adversary.taint_batch(honest, expected, [5])
        with pytest.raises(ValueError):
            adversary.taint_batch(
                np.vstack([honest, honest]), np.vstack([expected, expected]), [5]
            )

    @pytest.mark.parametrize("metric", ["diff", "add_all", "probability"])
    @pytest.mark.parametrize("attack", ["dec_bounded", "dec_only"])
    def test_vectorised_batch_equals_loop_bitwise(self, metric, attack):
        """One pass over all victims at once must reproduce the per-row
        oracle bit for bit (not just approximately)."""
        rng = np.random.default_rng(20050404)
        k, n = 64, 25
        honest = np.round(rng.uniform(0.0, 30.0, size=(k, n)))
        expected = rng.uniform(0.0, 30.0, size=(k, n))
        # Include duplicate gaps (ties in the sort), zero budgets and
        # budgets large enough to close every gap.
        budgets = [int(b) for b in rng.integers(0, 120, size=k)]
        budgets[0] = 0
        honest[1] = honest[2]
        expected[1] = expected[2]
        budgets[1] = budgets[2]
        # Tied -inf log-pmf: counted groups expected to hold no node, with
        # a budget too small to clear them (row 3) and one beyond every gap
        # (row 4).
        expected[3:5, ::3] = 0.0
        honest[3:5, ::3] = 4.0
        budgets[3], budgets[4] = 5, 10_000
        # Fractional steps: non-integer counts end less than one node above
        # their mode (row 5).  Whole-number expectations repeat log-pmf
        # values across groups (row 6).
        honest[5] = np.round(honest[5]) + 0.25
        expected[6] = np.round(expected[6])
        adversary = GreedyMetricMinimizer(metric, attack)
        batch = adversary.taint_batch(honest, expected, budgets, group_size=GROUP_SIZE)
        loop = oracle_taint_batch(
            adversary, honest, expected, budgets, group_size=GROUP_SIZE
        )
        np.testing.assert_array_equal(batch, loop)

    @pytest.mark.parametrize("attack", ["dec_bounded", "dec_only"])
    def test_probability_ties_go_to_lowest_group_index(self, attack):
        """Tied minima resolve to the lowest group index.

        Eleven of 100 groups are counted but expected empty (log-pmf -inf,
        mode 0); a budget of 7 cannot clear them, so the greedy must lower
        groups 3, 9 and 17 to zero and take one node from group 20.
        """
        group_size = 40
        expected = np.full(100, 12.0)
        honest = np.full(100, 12.0)
        tied = [3, 9, 17, 20, 30, 41, 55, 62, 77, 88, 95]
        expected[tied] = 0.0
        honest[tied] = 2.0
        adversary = GreedyMetricMinimizer("probability", attack)
        tainted = adversary.taint(honest, expected, 7, group_size=group_size)
        want = honest.copy()
        want[[3, 9, 17]] = 0.0
        want[20] = 1.0
        np.testing.assert_array_equal(tainted, want)
        assert ProbabilityMetric().compute(
            tainted, expected, group_size=group_size
        ) == ProbabilityMetric.max_score

    def test_functional_wrapper(self, scenario):
        honest, expected = scenario
        out = taint_observation(
            honest, expected, 5, metric="diff", attack_class="dec_only",
            group_size=GROUP_SIZE,
        )
        assert DecOnlyAttack().is_feasible(honest, out, 5)

    def test_shape_mismatch_rejected(self, scenario):
        honest, expected = scenario
        adversary = GreedyMetricMinimizer("diff", "dec_bounded")
        with pytest.raises(ValueError):
            adversary.taint(honest, expected[:-1], 5)


def test_fig4_render_unchanged_under_the_per_row_oracle(monkeypatch):
    """A whole Figure 4 render (all three metrics under the greedy) gives
    the same JSON whether taint_batch runs the batch path or the per-row
    oracle."""
    spec = FIGURE_SPECS["fig4"](config=SimulationConfig(seed=11), scale=0.05)
    batched = run_figure_spec(spec, figure_id="fig4").to_json()
    monkeypatch.setattr(GreedyMetricMinimizer, "taint_batch", oracle_taint_batch)
    per_row = run_figure_spec(spec, figure_id="fig4").to_json()
    assert per_row == batched
