"""Ablation benchmark — accuracy and speed of the ``g(z)`` table (Section 3.3).

The paper argues that the exact Eq. (1) is too expensive for sensors and
that a table of ``ω`` sub-ranges with interpolation suffices.  This
benchmark quantifies both claims: the maximum interpolation error as a
function of ``ω`` (it is already negligible for a few hundred entries) and
the speed of a table lookup versus exact quadrature.

``test_gz_table_lookup_speed`` is also a tracked speedup (``gz_lookup`` in
``BENCH_baseline.json``): the table's index arithmetic against the binary
search of ``np.interp``, which it must equal bit for bit.
"""

import time

import numpy as np

from benchmarks.bench_records import record_benchmark
from repro.deployment.gz import GzTable, gz_exact, gz_quadrature
from repro.deployment.models import paper_deployment_model

R = 100.0
SIGMA = 50.0
Z_MAX = 600.0

#: Table resolutions studied by the ablation.
OMEGAS = (25, 50, 100, 250, 500, 1000)

#: Locations whose distances to the paper's 100 deployment points make up
#: one lookup: the µ matrix of a 256-claim burst split over two metrics.
LOOKUP_ROWS = 128

#: Timed rounds per side, alternating so a host stall lands on both sides.
ROUNDS = 200


def _best_alternating(*callables, rounds=ROUNDS):
    """Best wall time and last result of each callable, run in alternation."""
    best = [np.inf] * len(callables)
    results = [None] * len(callables)
    for _ in range(rounds):
        for side, callable_ in enumerate(callables):
            start = time.perf_counter()
            results[side] = callable_()
            best[side] = min(best[side], time.perf_counter() - start)
    return best, results


def test_gz_table_accuracy_vs_omega(benchmark):
    zs = np.linspace(0.0, Z_MAX, 1500)
    exact = gz_exact(zs, R, SIGMA)

    def build_and_measure():
        rows = []
        for omega in OMEGAS:
            table = GzTable(R, SIGMA, omega=omega, z_max=Z_MAX)
            err = float(np.max(np.abs(exact - table.table(zs))))
            rows.append((omega, err))
        return rows

    rows = benchmark.pedantic(build_and_measure, rounds=1, iterations=1)
    print()
    print("-- g(z) table accuracy (Section 3.3 ablation) --")
    print(f"{'omega':>8} {'max abs error':>15}")
    for omega, err in rows:
        print(f"{omega:>8} {err:>15.2e}")

    errors = [err for _, err in rows]
    # Error decreases with omega and is tiny for the paper-scale table.
    assert errors[-1] < 1e-4
    assert errors[-1] <= errors[0]


def test_gz_table_lookup_speed():
    """``GzTable.__call__`` vs ``np.interp`` on µ's shape: equal bits, speedup."""
    model = paper_deployment_model()
    table = GzTable(R, SIGMA, omega=1000, z_max=model.region.diagonal + R)
    locations = model.region.sample_uniform(np.random.default_rng(0), LOOKUP_ROWS)
    distances = model.distances_to_groups(locations)
    lo, hi = table.table.domain
    knots, values = table.table.knots, table.table.values

    (interp_time, table_time), (reference, looked_up) = _best_alternating(
        lambda: np.interp(np.clip(distances, lo, hi), knots, values),
        lambda: table(distances),
    )

    np.testing.assert_array_equal(looked_up.view(np.int64), reference.view(np.int64))
    speedup = interp_time / table_time
    record_benchmark(
        "gz_lookup",
        speedup=speedup,
        interp_seconds=interp_time,
        table_seconds=table_time,
        values=distances.size,
    )
    print(
        f"\ngz_lookup: np.interp {interp_time * 1e6:.0f} us, "
        f"table {table_time * 1e6:.0f} us, speedup {speedup:.1f}x "
        f"({distances.size} values)"
    )


def test_gz_exact_quadrature_speed(benchmark):
    """Reference cost of evaluating Eq. (1) directly (vectorised Gauss-Legendre)."""
    queries = np.random.default_rng(1).uniform(0.0, Z_MAX, size=2_000)
    result = benchmark(lambda: gz_quadrature(queries, R, SIGMA))
    assert result.shape == queries.shape
