"""Figure 5 benchmark — ROC curves for Dec-Bounded vs Dec-Only attacks, small D.

Paper setting: x = 10 %, m = 300, Diff metric, D ∈ {40, 80}.
Expected shape: the Dec-Bounded attack is substantially harder to detect
than the Dec-Only attack at these small degrees of damage.
"""

import numpy as np

from repro.experiments.figures import fig5, run_figure_spec
from repro.experiments.reporting import format_figure


def test_fig5_roc_for_attack_classes_small_damage(benchmark, paper_simulation):
    result = benchmark.pedantic(
        lambda: run_figure_spec(fig5.spec(), session=paper_simulation),
        rounds=1,
        iterations=1,
    )
    print()
    print(format_figure(result))

    for panel in result.panels:
        bounded = np.array(panel.get_series("Dec-Bounded Attacks").y)
        only = np.array(panel.get_series("Dec-Only Attacks").y)
        # Dec-Only must be at least as detectable on average.
        assert only.mean() >= bounded.mean() - 0.05
