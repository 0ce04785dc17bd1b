"""Figures 4–8 — the paper's single-session figures, as presets of two shapes.

Every one of these figures scores one ``(metric, attack, D, x)`` grid in
one :class:`~repro.experiments.session.LadSession` at the paper's
m = 300; they differ only in which axes form the panels, the curves and
the x axis:

* :class:`RocFigure` (Figures 4–6) — one panel per degree of damage D,
  one ROC curve per metric or per attack class.
* :class:`RateFigure` (Figures 7–8) — one panel with D or x along the x
  axis and one curve per value of the other, each point the detection
  rate at the spec's false-positive budget (1 %).

The presets and what the paper reports for them:

* **Figure 4** (``DR-FP-M-D``, Section 7.4) — ROC per metric (Diff,
  Add-all, Probability) for D ∈ {80, 120, 160}, x = 10 %, Dec-Bounded
  attacks.  The Diff metric dominates; at D = 160 it reaches ~100 %
  detection at ~0 false positives.
* **Figure 5** (``DR-FP-T-D``, Section 7.5) — ROC per attack class
  (Dec-Bounded vs Dec-Only) for D ∈ {40, 80}, Diff metric.  Dec-Bounded
  is markedly harder to detect at these small degrees of damage.
* **Figure 6** — Figure 5 at D ∈ {120, 160}: the gap closes, both classes
  are detected at ≳99 % with small false-positive rates, so forcing
  Dec-Only behaviour is unnecessary when only high-impact anomalies
  matter.
* **Figure 7** (``DR-D-x``, Section 7.6) — detection rate over
  D = 40 .. 160 m, one curve per x ∈ {10, 20, 30} %.  Low at small D (the
  attack hides in the scheme's own error), approaching 100 % as D grows.
* **Figure 8** (``DR-x-D``, Section 7.7) — detection rate over
  x = 0 .. 60 %, one curve per D ∈ {80, 120, 160}.  The larger D, the
  more compromise the detector tolerates.

Each preset has the interface of a figure module: ``spec(config, scale,
*, <axes>)`` builds its :class:`~repro.experiments.scenario.ScenarioSpec`
and ``render(spec, *, session, workers, density_workers, store)`` renders
one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple

from repro.attacks.constraints import ATTACKS
from repro.core.metrics import ALL_METRICS, METRICS
from repro.experiments.config import SimulationConfig
from repro.experiments.figures.common import DEFAULT_ROC_FP_GRID
from repro.experiments.results import FigureResult, PanelResult, SeriesResult
from repro.experiments.scenario import _AXIS_FIELDS, ScenarioSpec
from repro.experiments.session import LadSession
from repro.experiments.sweep import SweepPoint

__all__ = [
    "RocFigure",
    "RateFigure",
    "FIG4",
    "FIG5",
    "FIG6",
    "FIG7",
    "FIG8",
    "FALSE_POSITIVE_RATE",
]

#: False-positive budget at which the rate figures read detection rates.
FALSE_POSITIVE_RATE: float = 0.01

#: Legend label of a component on each ROC series axis.
_ROC_LABELS = {
    "metrics": lambda name: METRICS.get(name).paper_name,
    "attacks": lambda name: ATTACKS.get(name).paper_name + "s",
}

#: Legend label and x coordinate of a value on each rate-figure axis.
_RATE_AXES = {
    "degrees": (lambda degree: f"D={degree:g}", float),
    "fractions": (
        lambda fraction: f"x={int(round(fraction * 100))}%",
        lambda fraction: fraction * 100.0,
    ),
}


def _point(scenario: ScenarioSpec, **axes) -> SweepPoint:
    """The grid point at *axes* (``degrees=80.0``, …); other axes are singletons."""
    values = (axes.get(axis, getattr(scenario, axis)[0]) for axis in _AXIS_FIELDS)
    return SweepPoint(*values)


@dataclass(frozen=True)
class _GridFigure:
    """Identity and default axes shared by both shapes."""

    figure_id: str
    title: str
    description: str
    metrics: Tuple[str, ...]
    attacks: Tuple[str, ...]
    degrees: Tuple[float, ...]
    fractions: Tuple[float, ...]

    def _spec(
        self,
        config: Optional[SimulationConfig],
        scale: float,
        degrees: Optional[Sequence[float]] = None,
        fractions: Optional[Sequence[float]] = None,
        false_positive_rate: float = FALSE_POSITIVE_RATE,
    ) -> ScenarioSpec:
        return ScenarioSpec(
            name=self.figure_id,
            description=self.description,
            metrics=self.metrics,
            attacks=self.attacks,
            degrees=tuple(self.degrees if degrees is None else degrees),
            fractions=tuple(self.fractions if fractions is None else fractions),
            false_positive_rate=false_positive_rate,
            config=config or SimulationConfig(),
        ).scaled(scale)


@dataclass(frozen=True)
class RocFigure(_GridFigure):
    """Figures 4–6: one ROC panel per degree of damage.

    *series_axis* (``"metrics"`` or ``"attacks"``) forms the curves of each
    panel; the other axis and the compromise fraction are singletons.
    """

    series_axis: str

    def spec(
        self,
        config: Optional[SimulationConfig] = None,
        scale: float = 1.0,
        *,
        degrees: Optional[Sequence[float]] = None,
    ) -> ScenarioSpec:
        """The figure's evaluation as a declarative scenario."""
        return self._spec(config, scale, degrees)

    def render(
        self,
        scenario: ScenarioSpec,
        *,
        session: Optional[LadSession] = None,
        workers: int = 0,
        density_workers: int = 0,
        store=None,
    ) -> FigureResult:
        """Render the figure from a scenario spec."""
        del density_workers  # single-density figure
        if session is None:
            session = scenario.session(store=store)
        rocs = session.sweep(workers=workers).rocs(scenario.points())
        other = "attack" if self.series_axis == "metrics" else "metric"
        figure = FigureResult(
            figure_id=self.figure_id,
            title=self.title,
            parameters={
                "compromised_fraction": scenario.fractions[0],
                "group_size": session.config.group_size,
                other: getattr(scenario, other + "s")[0],
            },
        )
        label = _ROC_LABELS[self.series_axis]
        for degree in scenario.degrees:
            panel = PanelResult(
                title=f"D={degree:g}",
                x_label="FP-False Positive Rate",
                y_label="DR-Detection Rate",
            )
            for value in getattr(scenario, self.series_axis):
                point = _point(scenario, degrees=degree, **{self.series_axis: value})
                roc = rocs[point]
                panel.add_series(
                    SeriesResult(
                        label=label(value),
                        x=list(DEFAULT_ROC_FP_GRID),
                        y=[roc.detection_rate_at(fp) for fp in DEFAULT_ROC_FP_GRID],
                    )
                )
            figure.add_panel(panel)
        return figure


@dataclass(frozen=True)
class RateFigure(_GridFigure):
    """Figures 7–8: detection rate at a fixed false-positive budget.

    One panel titled *panel_title*; *x_axis* (``"degrees"`` or
    ``"fractions"``) runs along the x axis and the other one forms the
    curves.
    """

    panel_title: str
    x_axis: str
    x_label: str

    def spec(
        self,
        config: Optional[SimulationConfig] = None,
        scale: float = 1.0,
        *,
        degrees: Optional[Sequence[float]] = None,
        fractions: Optional[Sequence[float]] = None,
        false_positive_rate: float = FALSE_POSITIVE_RATE,
    ) -> ScenarioSpec:
        """The figure's evaluation as a declarative scenario."""
        return self._spec(config, scale, degrees, fractions, false_positive_rate)

    def render(
        self,
        scenario: ScenarioSpec,
        *,
        session: Optional[LadSession] = None,
        workers: int = 0,
        density_workers: int = 0,
        store=None,
    ) -> FigureResult:
        """Render the figure from a scenario spec."""
        del density_workers  # single-density figure
        if session is None:
            session = scenario.session(store=store)
        rates_at = session.sweep(workers=workers).detection_rates(
            scenario.points(), false_positive_rate=scenario.false_positive_rate
        )
        figure = FigureResult(
            figure_id=self.figure_id,
            title=self.title,
            parameters={
                "false_positive_rate": scenario.false_positive_rate,
                "group_size": session.config.group_size,
                "metric": scenario.metrics[0],
                "attack": scenario.attacks[0],
            },
        )
        panel = PanelResult(
            title=self.panel_title, x_label=self.x_label, y_label="DR-Detection Rate"
        )
        series_axis = "fractions" if self.x_axis == "degrees" else "degrees"
        label = _RATE_AXES[series_axis][0]
        x_of = _RATE_AXES[self.x_axis][1]
        xs = getattr(scenario, self.x_axis)
        for value in getattr(scenario, series_axis):
            outcomes = [
                rates_at[_point(scenario, **{series_axis: value, self.x_axis: x})]
                for x in xs
            ]
            panel.add_series(
                SeriesResult(
                    label=label(value),
                    x=[x_of(x) for x in xs],
                    y=[outcome.detection_rate for outcome in outcomes],
                )
            )
        figure.add_panel(panel)
        return figure


#: Figure 4: ROC per detection metric.
FIG4 = RocFigure(
    figure_id="fig4",
    title="ROC curves for different detection metrics and degrees of damage",
    description="ROC curves per detection metric and degree of damage",
    metrics=tuple(metric.name for metric in ALL_METRICS),
    attacks=("dec_bounded",),
    degrees=(80.0, 120.0, 160.0),
    fractions=(0.10,),
    series_axis="metrics",
)

#: Figure 5: ROC per attack class at small degrees of damage.
FIG5 = RocFigure(
    figure_id="fig5",
    title="ROC curves for different attacks (small degrees of damage)",
    description="ROC curves per attack class",
    metrics=("diff",),
    attacks=("dec_bounded", "dec_only"),
    degrees=(40.0, 80.0),
    fractions=(0.10,),
    series_axis="attacks",
)

#: Figure 6: Figure 5 at large degrees of damage.
FIG6 = replace(
    FIG5,
    figure_id="fig6",
    title="ROC curves for different attacks (large degrees of damage)",
    degrees=(120.0, 160.0),
)

#: Figure 7: detection rate over D, one curve per compromise fraction.
FIG7 = RateFigure(
    figure_id="fig7",
    title="Detection rate vs degree of damage",
    description="Detection rate vs degree of damage",
    metrics=("diff",),
    attacks=("dec_bounded",),
    degrees=(40.0, 60.0, 80.0, 100.0, 120.0, 140.0, 160.0),
    fractions=(0.10, 0.20, 0.30),
    panel_title="DR-D-x",
    x_axis="degrees",
    x_label="The Degree of Damage D",
)

#: Figure 8: detection rate over x, one curve per degree of damage.
FIG8 = RateFigure(
    figure_id="fig8",
    title="Detection rate vs percentage of compromised nodes",
    description="Detection rate vs percentage of compromised nodes",
    metrics=("diff",),
    attacks=("dec_bounded",),
    degrees=(80.0, 120.0, 160.0),
    fractions=(0.0, 0.10, 0.20, 0.30, 0.40, 0.50, 0.60),
    panel_title="DR-x-D",
    x_axis="fractions",
    x_label="The Percentage of Compromised Nodes",
)
