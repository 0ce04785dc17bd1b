"""Figure 8 benchmark — detection rate vs node-compromise percentage (``DR-x-D``).

Paper setting: FP = 1 %, m = 300, Diff metric, Dec-Bounded attacks,
D ∈ {80, 120, 160}, x swept 0 .. 60 %.
Expected shape: larger degrees of damage tolerate more compromise; the
D=160 curve stays high well past the point where the D=80 curve collapses.
"""

import numpy as np

from repro.experiments.figures import fig8, run_figure_spec
from repro.experiments.reporting import format_figure


def test_fig8_detection_rate_vs_compromise(benchmark, paper_simulation):
    result = benchmark.pedantic(
        lambda: run_figure_spec(fig8.spec(), session=paper_simulation),
        rounds=1,
        iterations=1,
    )
    print()
    print(format_figure(result))

    panel = result.get_panel("DR-x-D")
    d80 = np.array(panel.get_series("D=80").y)
    d160 = np.array(panel.get_series("D=160").y)
    # More compromise never helps detection (allow small Monte-Carlo noise).
    for series in panel.series:
        ys = np.array(series.y)
        assert ys[-1] <= ys[0] + 0.1
    # Larger damage is more resilient to compromise on average.
    assert d160.mean() >= d80.mean() - 0.05
