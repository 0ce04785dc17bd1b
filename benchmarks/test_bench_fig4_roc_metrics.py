"""Figure 4 benchmark — ROC curves for the three detection metrics.

Paper setting: x = 10 %, m = 300, Dec-Bounded attacks, D ∈ {80, 120, 160}.
Expected shape: the Diff metric dominates; all metrics approach the (0, 1)
corner as D grows; at D = 160 the Diff metric detects essentially every
attack without false alarms.
"""

from repro.experiments.figures import fig4, run_figure_spec
from repro.experiments.reporting import format_figure


def test_fig4_roc_for_all_metrics(benchmark, paper_simulation):
    result = benchmark.pedantic(
        lambda: run_figure_spec(fig4.spec(), session=paper_simulation),
        rounds=1,
        iterations=1,
    )
    print()
    print(format_figure(result))

    # Sanity constraints on the reproduced shape (loose, to tolerate the
    # scaled-down Monte-Carlo sample sizes).
    for panel in result.panels:
        for series in panel.series:
            assert series.y[-1] == 1.0  # every ROC curve ends at DR=1 for FP=1
    d160 = result.get_panel("D=160").get_series("Diff Metric")
    assert d160.y_at(0.05) > 0.7
