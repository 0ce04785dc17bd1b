"""Figure 6 benchmark — ROC curves for Dec-Bounded vs Dec-Only attacks, large D.

Paper setting: x = 10 %, m = 300, Diff metric, D ∈ {120, 160}.
Expected shape: with a large degree of damage the gap between the two
attack classes closes — both are detected at high rates with small
false-positive budgets, so the expensive mechanisms needed to force
Dec-Only behaviour are unnecessary for high-impact anomalies.
"""

from repro.experiments.figures import fig6, run_figure_spec
from repro.experiments.reporting import format_figure


def test_fig6_roc_for_attack_classes_large_damage(benchmark, paper_simulation):
    result = benchmark.pedantic(
        lambda: run_figure_spec(fig6.spec(), session=paper_simulation),
        rounds=1,
        iterations=1,
    )
    print()
    print(format_figure(result))

    panel = result.get_panel("D=160")
    bounded = panel.get_series("Dec-Bounded Attacks")
    only = panel.get_series("Dec-Only Attacks")
    # At D=160 both attacks should be highly detectable at a 10% FP budget,
    # and the gap between the classes should be small.
    assert bounded.y_at(0.10) > 0.7
    assert abs(only.y_at(0.10) - bounded.y_at(0.10)) < 0.3
