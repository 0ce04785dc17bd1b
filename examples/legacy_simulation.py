#!/usr/bin/env python
"""Migration landing spot for the removed legacy API.

``LadSimulation`` and ``get_metric`` shipped as one-release deprecation
shims after the scenario API landed; that release has passed and both are
now gone, as are the second detector (``LADDetector``), the duplicate
readers of one operating point and every way to render a figure but
``run_figure_spec``.  This example (run by CI) is the migration
reference: it runs the session and spec replacements side by side and
asserts that they agree, and the table maps every removed name to what to
write instead:

=====================================  ==========================================
removed                                replacement
=====================================  ==========================================
``LadSimulation(config)``              ``LadSession(config)``
``get_metric("diff")``                 ``repro.metrics.create("diff")``
bespoke sweep drivers                  ``ScenarioSpec`` + ``lad-repro sweep``
``session.detection_rate(...)``        ``session.outcome(...)``
``rate, thr = outcome``                ``outcome.detection_rate``/``.threshold``
``detection_rate_at_false_positive``   ``evaluate_detection(...).detection_rate``
``ThresholdTable``, ``LADDetector``    ``derive_threshold(benign_scores(...))``
``LADDetector.detect``                 ``DetectionService.verify(LocationClaim)``
``LADDetector.detect_batch``           ``metric.score(...) > threshold``
``attacked_scores_for_victims``        ``attacked_scores_from_observations``
``figN.run(simulation=s, ...)``        ``run_figure_spec(figN.spec(...), session=s)``
``run_figure("figN", ...)``            ``run_figure_spec(figN.spec(...))``
``get_figure("figN")``                 ``run_figure_spec(figN.spec(...))``
``FIGURES``                            ``FIGURE_SPECS`` + ``run_figure_spec``
``repro.run_figure``                   ``repro.run_figure_spec(figN.spec(...))``
``spec.figure(...)``                   ``run_figure_spec(spec, ...)``
``resolve_simulation``                 ``run_figure_spec(figN.spec(config, scale))``
``resolve_session``                    ``run_figure_spec(figN.spec(...), session=s)``
``run_roc_figure``                     ``run_figure_spec(figN.spec(...))``
``run_rate_figure``                    ``run_figure_spec(figN.spec(...))``
``roc_series``                         ``run_figure_spec(figN.spec(...))``
=====================================  ==========================================

Run with::

    python examples/legacy_simulation.py
"""

from __future__ import annotations

import numpy as np

import repro.metrics
from repro import LadSession, ScenarioSpec, SimulationConfig

CONFIG = SimulationConfig(
    group_size=60,
    num_training_samples=60,
    training_samples_per_network=30,
    num_victims=60,
    victims_per_network=30,
    seed=17,
)


def main() -> None:
    # ``get_metric("diff")`` -> the metric registry.  Instances and names
    # are interchangeable everywhere a metric is accepted.
    metric = repro.metrics.create("diff")

    # ``session.detection_rate(...)`` and tuple unpacking -> ``outcome``
    # read by field name.
    session = LadSession(CONFIG)
    by_instance = session.outcome(
        metric, "dec_bounded", degree_of_damage=160.0, compromised_fraction=0.1
    ).detection_rate
    by_name = session.outcome(
        "diff", "dec_bounded", degree_of_damage=160.0, compromised_fraction=0.1
    ).detection_rate
    assert by_instance == by_name

    # Bespoke sweep drivers -> a declarative spec over the same session.
    spec = ScenarioSpec(
        name="migration",
        metrics=("diff",),
        degrees=(160.0,),
        fractions=(0.1,),
        config=CONFIG,
    )
    rates = spec.session().sweep().detection_rates(spec.points())
    (outcome,) = rates.values()
    spec_rate = outcome.detection_rate
    np.testing.assert_allclose(spec_rate, by_name)

    print(f"session detection rate @1% FP: {by_name:.3f}")
    print(f"spec    detection rate @1% FP: {spec_rate:.3f}")
    print("session and spec agree bit for bit — the legacy shims are gone.")


if __name__ == "__main__":
    main()
