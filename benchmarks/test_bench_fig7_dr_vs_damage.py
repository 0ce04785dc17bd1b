"""Figure 7 benchmark — detection rate vs degree of damage (``DR-D-x``).

Paper setting: FP = 1 %, m = 300, Diff metric, Dec-Bounded attacks,
x ∈ {10, 20, 30} %, D swept 40 .. 160 m.
Expected shape: low detection at small D, rising to ~100 % at large D for
every compromise level.
"""

import numpy as np

from repro.experiments.figures import fig7, run_figure_spec
from repro.experiments.reporting import format_figure


def test_fig7_detection_rate_vs_degree_of_damage(benchmark, paper_simulation):
    result = benchmark.pedantic(
        lambda: run_figure_spec(fig7.spec(), session=paper_simulation),
        rounds=1,
        iterations=1,
    )
    print()
    print(format_figure(result))

    panel = result.get_panel("DR-D-x")
    for series in panel.series:
        ys = np.array(series.y)
        # The curve must rise overall and finish high at D=160.
        assert ys[-1] >= ys[0]
        assert ys[-1] > 0.6
