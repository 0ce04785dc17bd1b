"""Batched vs per-row hot paths of the measurement-modality localizers.

The RSSI path-loss and TDOA multilateration schemes join the beacon family
with the same contract as the rest: ``localize_many`` must be bit-identical
to the per-row ``localize`` loop, so the training pass can batch a whole
sample's contexts without changing a single estimate.  These benchmarks pin
that the batch path actually is a fast path — the per-row loop pays Python
overhead (and, for TDOA, a per-row SVD) that the batched solvers amortise.

Both comparisons assert exact equality before recording the speedup; CI
writes the numbers to ``BENCH_pr.json`` and fails when a tracked speedup
drops below its floor in ``benchmarks/BENCH_baseline.json``
(``scripts/check_bench_regression.py``).
"""

import time

import numpy as np
import pytest

from benchmarks.bench_records import record_benchmark
from repro.deployment.models import paper_deployment_model
from repro.localization.beacons import BeaconSpec, beacon_contexts
from repro.localization.rssi import RssiPathLossLocalizer
from repro.localization.tdoa import TdoaMultilaterationLocalizer
from repro.network.generator import NetworkGenerator
from repro.network.radio import UnitDiskRadio
from repro.types import PAPER_REGION

#: Nodes localized per comparison (a training-pass-sized batch).
NUM_NODES = 512

#: Timed rounds per side.  The two sides alternate round by round, so a
#: stall of the host lands on both of them, not on one side's best-of.
ROUNDS = 5


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


@pytest.fixture(scope="module")
def node_positions():
    generator = NetworkGenerator(
        paper_deployment_model(), group_size=300, radio=UnitDiskRadio(100.0)
    )
    network = generator.generate(rng=11)
    rng = np.random.default_rng(17)
    nodes = rng.choice(network.num_nodes, size=NUM_NODES, replace=False)
    return network.positions[nodes]


def _bench_scheme(name, localizer, positions, noise_std):
    beacons = BeaconSpec(
        count=25, transmit_range=600.0, noise_std=noise_std, seed=3
    ).build(PAPER_REGION)
    contexts = beacon_contexts(
        positions, beacons, localizer, rng=np.random.default_rng(29)
    )

    localizer.localize_many(contexts[:4])
    [localizer.localize(ctx) for ctx in contexts[:4]]

    (loop_time, batch_time), (looped, batched) = _best_alternating(
        lambda: [localizer.localize(ctx) for ctx in contexts],
        lambda: localizer.localize_many(contexts),
    )

    np.testing.assert_array_equal(
        np.stack([r.position for r in batched]),
        np.stack([r.position for r in looped]),
    )
    speedup = loop_time / batch_time
    record_benchmark(
        name,
        speedup=speedup,
        loop_seconds=loop_time,
        batch_seconds=batch_time,
        nodes=NUM_NODES,
        beacons=beacons.num_beacons,
    )
    print(
        f"\n{name}: loop {loop_time * 1000:.1f} ms, "
        f"batch {batch_time * 1000:.1f} ms, speedup {speedup:.1f}x "
        f"({NUM_NODES} nodes, {beacons.num_beacons} beacons)"
    )
    return speedup


def test_batched_rssi_speedup(node_positions):
    """Batched RSSI inversion + multilateration vs the per-row loop."""
    speedup = _bench_scheme(
        "batched_rssi", RssiPathLossLocalizer(), node_positions, noise_std=2.0
    )
    assert speedup > 1.0


def test_batched_tdoa_speedup(node_positions):
    """Batched TDOA least squares vs the per-row SVD loop."""
    speedup = _bench_scheme(
        "batched_tdoa",
        TdoaMultilaterationLocalizer(),
        node_positions,
        noise_std=2.0,
    )
    assert speedup > 1.0
