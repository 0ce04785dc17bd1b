"""Ablation benchmark — greedy metric-minimising adversary vs naive adversaries.

The paper's evaluation always uses the greedy adversary (the worst case for
the defender).  This ablation quantifies how much that choice matters: the
same D-anomaly attack is scored when the compromised neighbours are used
(a) not at all, (b) by the naive silence attack, and (c) by the greedy
Diff-minimising procedure.  The detection rate should drop monotonically
from (a) to (c) — i.e. the greedy adversary is genuinely the hardest to
catch, which justifies evaluating LAD against it.

The file also tracks two speedups of :meth:`GreedyMetricMinimizer.taint_batch`,
asserting the outputs stay bit-identical: the 2-D decrease-allocation of
the Diff metric against the per-row :meth:`taint` loop, and the lock-step
Probability-metric greedy against the per-row sequential oracle of
``tests/attacks/greedy_oracle.py``.
"""

import time

import numpy as np

from benchmarks.bench_records import record_benchmark
from benchmarks.conftest import bench_config
from repro.attacks.base import AttackBudget
from repro.attacks.greedy import GreedyMetricMinimizer
from repro.attacks.localization_attacks import DisplacementAttack
from repro.attacks.primitives import SilenceAttack
from repro.core.evaluation import evaluate_detection
from repro.core.metrics import DiffMetric
from repro.experiments.session import LadSession
from tests.attacks.greedy_oracle import oracle_taint_batch

DEGREE = 80.0
FRACTION = 0.20
FALSE_POSITIVE = 0.01


def _detection_rates(simulation: LadSession) -> dict:
    knowledge = simulation.knowledge
    benign = simulation.benign_scores("diff")
    sample = simulation.victims()
    rng = np.random.default_rng(777)

    spoofed = DisplacementAttack(DEGREE).spoof_locations(
        sample.actual_locations, rng, region=knowledge.region
    )
    expected = knowledge.expected_observation(spoofed)
    metric = DiffMetric()
    budgets = [
        AttackBudget.from_fraction(int(round(o.sum())), FRACTION)
        for o in sample.observations
    ]

    # (a) compromised nodes unused: observation stays honest.
    scores_none = metric.compute(sample.observations, expected, knowledge.group_size)

    # (b) naive silence attack: random whole-node silences.
    silence = SilenceAttack()
    silenced = np.vstack(
        [
            silence.apply(obs, budget, rng=rng)
            for obs, budget in zip(sample.observations, budgets)
        ]
    )
    scores_silence = metric.compute(silenced, expected, knowledge.group_size)

    # (c) greedy Diff-minimising adversary (the paper's procedure).
    greedy = GreedyMetricMinimizer("diff", "dec_bounded")
    tainted = greedy.taint_batch(
        sample.observations, expected, budgets, group_size=knowledge.group_size
    )
    scores_greedy = metric.compute(tainted, expected, knowledge.group_size)

    return {
        label: evaluate_detection(
            benign, scores, false_positive_rate=FALSE_POSITIVE
        ).detection_rate
        for label, scores in (
            ("no adversary on detection", scores_none),
            ("naive silence attack", scores_silence),
            ("greedy Diff-minimising", scores_greedy),
        )
    }


def test_adversary_strength_ablation(benchmark):
    simulation = LadSession(bench_config())
    rates = benchmark.pedantic(
        lambda: _detection_rates(simulation),
        rounds=1,
        iterations=1,
    )

    print()
    print("-- Adversary-strength ablation (D=80, x=20%, FP=1%) --")
    for label, rate in rates.items():
        print(f"  {label:<28} DR = {rate:.3f}")

    assert rates["greedy Diff-minimising"] <= rates["naive silence attack"] + 0.05
    assert rates["naive silence attack"] <= rates["no adversary on detection"] + 0.05


N_GROUPS = 100
GROUP_SIZE = 40


def _taint_inputs(num_victims: int):
    """Seeded victims over 100 groups of 40 sensors, budgets 0-79."""
    rng = np.random.default_rng(20050404)
    shape = (num_victims, N_GROUPS)
    honest = np.round(rng.uniform(0.0, GROUP_SIZE, size=shape))
    expected = rng.uniform(0.0, GROUP_SIZE, size=shape)
    budgets = [int(b) for b in rng.integers(0, 2 * GROUP_SIZE, size=num_victims)]
    return honest, expected, budgets


def test_taint_batch_vectorised_speedup():
    """Vectorised taint_batch at 512 victims: bit-identical, >= 5x."""
    num_victims = 512
    honest, expected, budgets = _taint_inputs(num_victims)
    adversary = GreedyMetricMinimizer("diff", "dec_bounded")

    def per_row_loop():
        return np.vstack(
            [
                adversary.taint(
                    honest[i], expected[i], budgets[i], group_size=GROUP_SIZE
                )
                for i in range(num_victims)
            ]
        )

    def batched():
        return adversary.taint_batch(
            honest, expected, budgets, group_size=GROUP_SIZE
        )

    # Warm both paths before timing.
    batched()
    per_row_loop()

    loop_best, loop_result = np.inf, None
    for _ in range(3):
        start = time.perf_counter()
        loop_result = per_row_loop()
        loop_best = min(loop_best, time.perf_counter() - start)
    batch_best, batch_result = np.inf, None
    for _ in range(5):
        start = time.perf_counter()
        batch_result = batched()
        batch_best = min(batch_best, time.perf_counter() - start)

    np.testing.assert_array_equal(batch_result, loop_result)
    speedup = loop_best / batch_best
    record_benchmark(
        "taint_batch_vectorised",
        speedup=speedup,
        loop_seconds=loop_best,
        batch_seconds=batch_best,
        victims=num_victims,
        n_groups=N_GROUPS,
    )
    print(
        f"\ntaint_batch: loop {loop_best * 1000:.1f} ms, "
        f"batch {batch_best * 1000:.1f} ms, speedup {speedup:.1f}x "
        f"({num_victims} victims)"
    )
    assert speedup >= 5.0


def test_taint_batch_probability_speedup():
    """Lock-step Probability greedy at 256 victims: bit-identical, >= 10x."""
    num_victims = 256
    honest, expected, budgets = _taint_inputs(num_victims)
    adversary = GreedyMetricMinimizer("probability", "dec_bounded")

    def per_row_oracle():
        return oracle_taint_batch(
            adversary, honest, expected, budgets, group_size=GROUP_SIZE
        )

    def lock_step():
        return adversary.taint_batch(
            honest, expected, budgets, group_size=GROUP_SIZE
        )

    # Warm both paths, then alternate them so a slow spell of the host
    # hits both sides alike.
    lock_step()
    per_row_oracle()
    oracle_best = batch_best = np.inf
    for _ in range(5):
        start = time.perf_counter()
        oracle_result = per_row_oracle()
        oracle_best = min(oracle_best, time.perf_counter() - start)
        start = time.perf_counter()
        batch_result = lock_step()
        batch_best = min(batch_best, time.perf_counter() - start)

    np.testing.assert_array_equal(batch_result, oracle_result)
    speedup = oracle_best / batch_best
    record_benchmark(
        "taint_batch_probability",
        speedup=speedup,
        loop_seconds=oracle_best,
        batch_seconds=batch_best,
        victims=num_victims,
        n_groups=N_GROUPS,
    )
    print(
        f"\ntaint_batch (probability): oracle {oracle_best * 1000:.1f} ms, "
        f"lock-step {batch_best * 1000:.1f} ms, speedup {speedup:.1f}x "
        f"({num_victims} victims)"
    )
    assert speedup >= 10.0
