#!/usr/bin/env python
"""Compare the three LAD metrics and the two attack classes (mini Figures 4-6).

This is the declarative-API version of the comparison: the whole experiment
is one :class:`~repro.experiments.scenario.ScenarioSpec` (every metric x
both attack classes x a grid of degrees of damage) compiled onto a
:class:`~repro.experiments.session.LadSession` sweep.  The spec could
equally live in a TOML file and run via ``lad-repro sweep`` — here it is
built inline so the table formatting can live next to it.

Run with::

    python examples/metric_comparison.py
"""

from __future__ import annotations

from repro import LadSession, ScenarioSpec, SimulationConfig
from repro.experiments.sweep import SweepPoint

SPEC = ScenarioSpec(
    name="metric_comparison",
    description="All metrics x both attack classes on a damage grid",
    metrics=("diff", "add_all", "probability"),
    attacks=("dec_bounded", "dec_only"),
    degrees=(40.0, 80.0, 120.0, 160.0),
    fractions=(0.10,),
    false_positive_rate=0.01,
    config=SimulationConfig(
        group_size=150,
        num_training_samples=250,
        training_samples_per_network=125,
        num_victims=250,
        victims_per_network=125,
        seed=5,
    ),
)


def main() -> None:
    session: LadSession = SPEC.session()
    fraction = SPEC.fractions[0]
    print(
        f"m={SPEC.config.group_size}, x={fraction:.0%}, "
        f"FP budget {SPEC.false_positive_rate:.0%}, "
        f"benign localization error {session.benign_localization_error():.1f} m"
    )

    # One sweep covers the whole spec grid; the session's caches make the
    # per-point cost just the greedy adversary plus metric scoring.
    rates = session.sweep().detection_rates(
        SPEC.points(), false_positive_rate=SPEC.false_positive_rate
    )

    def rate(metric: str, attack: str, degree: float) -> float:
        return rates[SweepPoint(metric, attack, degree, fraction)].detection_rate

    print()
    print("Detection rate at 1% FP, greedy Dec-Bounded adversary (cf. Figure 4):")
    print(f"{'D (m)':>8}" + "".join(f"{m:>14}" for m in SPEC.metrics))
    for degree in SPEC.degrees:
        row = [f"{degree:>8.0f}"]
        row += [f"{rate(m, 'dec_bounded', degree):>14.3f}" for m in SPEC.metrics]
        print("".join(row))

    print()
    print("Diff metric, Dec-Bounded vs Dec-Only adversary (cf. Figures 5-6):")
    print(f"{'D (m)':>8}{'dec_bounded':>14}{'dec_only':>14}")
    for degree in SPEC.degrees:
        print(
            f"{degree:>8.0f}"
            f"{rate('diff', 'dec_bounded', degree):>14.3f}"
            f"{rate('diff', 'dec_only', degree):>14.3f}"
        )

    print()
    print(
        "Expected shape: the Diff metric dominates, detection rises with D, and\n"
        "the Dec-Bounded adversary is the harder one to catch at small D."
    )


if __name__ == "__main__":
    main()
