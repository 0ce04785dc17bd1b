"""Figure 9 benchmark — detection rate vs network density (``DR-m-x-D``).

Paper setting: FP = 1 %, Diff metric, Dec-Bounded attacks, panels for
D ∈ {80, 100, 160}, curves for x ∈ {10, 20, 30} %, m swept 100 .. 1000.
Expected shape: detection improves with density, because the beaconless
localization gets more accurate and the benign threshold tightens.

This is the most expensive figure (every density point needs its own
threshold training on a network of up to 100 x m nodes), so the benchmark
uses a reduced density sweep; pass ``group_sizes`` to ``fig9.spec`` for the
full 100..1000 range.
"""

import numpy as np

from benchmarks.conftest import bench_config
from repro.experiments.figures import fig9, run_figure_spec
from repro.experiments.reporting import format_figure

#: Densities swept by the benchmark (paper: 100 .. 1000).
BENCH_GROUP_SIZES = (100, 300, 600)


def test_fig9_detection_rate_vs_density(benchmark):
    spec = fig9.spec(bench_config(), group_sizes=BENCH_GROUP_SIZES)
    result = benchmark.pedantic(
        lambda: run_figure_spec(spec),
        rounds=1,
        iterations=1,
    )
    print()
    print(format_figure(result))

    # Density helps (or at least does not hurt) for the high-damage panel.
    panel = result.get_panel("D=160")
    for series in panel.series:
        ys = np.array(series.y)
        assert ys[-1] >= ys[0] - 0.1
        assert ys[-1] > 0.5
