"""Figure 9 — Detection rate vs network density (``DR-m-x-D``).

Setup (paper Section 7.8): false-positive budget 1 %, Diff metric,
Dec-Bounded attacks; one panel per degree of damage D ∈ {80, 100, 160}; one
curve per compromise fraction x ∈ {10, 20, 30} %; the group size m sweeps
100 .. 1000 sensors per deployment group.

Each density value requires its own threshold training (the benign
localization error of the beaconless scheme shrinks as m grows, which is
exactly the effect the figure demonstrates), so this is the most expensive
figure; the default density sweep is therefore a small set of
representative points and can be widened via the ``group_sizes`` argument.
With an artifact store attached, each density's trained state persists, so
re-runs skip every training pass.  The densities run through
:func:`~repro.experiments.figures.common.session_rates`.

Expected qualitative outcome: the detection rate improves with density,
because denser networks localise more accurately and admit tighter benign
thresholds.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.config import SimulationConfig
from repro.experiments.figures.common import session_rates
from repro.experiments.results import FigureResult, PanelResult, SeriesResult
from repro.experiments.scenario import ScenarioSpec
from repro.experiments.session import LadSession
from repro.experiments.sweep import SweepPoint

__all__ = [
    "run",
    "render",
    "spec",
    "GROUP_SIZES",
    "DEGREES_OF_DAMAGE",
    "COMPROMISED_FRACTIONS",
    "FALSE_POSITIVE_RATE",
    "METRIC",
    "ATTACK_CLASS",
]

#: Swept network densities (sensors per deployment group).
GROUP_SIZES: tuple[int, ...] = (100, 300, 600, 1000)

#: Degrees of damage (one panel each).
DEGREES_OF_DAMAGE: tuple[float, ...] = (80.0, 100.0, 160.0)

#: Compromise fractions (one curve each).
COMPROMISED_FRACTIONS: tuple[float, ...] = (0.10, 0.20, 0.30)

#: False-positive budget at which the detection rate is read.
FALSE_POSITIVE_RATE: float = 0.01

#: Detection metric and attack class of the figure.
METRIC: str = "diff"
ATTACK_CLASS: str = "dec_bounded"


def spec(
    config: Optional[SimulationConfig] = None,
    scale: float = 1.0,
    *,
    group_sizes: Sequence[int] = GROUP_SIZES,
    degrees: Sequence[float] = DEGREES_OF_DAMAGE,
    fractions: Sequence[float] = COMPROMISED_FRACTIONS,
    false_positive_rate: float = FALSE_POSITIVE_RATE,
) -> ScenarioSpec:
    """The figure's evaluation as a declarative scenario."""
    return ScenarioSpec(
        name="fig9",
        description="Detection rate vs network density",
        metrics=(METRIC,),
        attacks=(ATTACK_CLASS,),
        degrees=tuple(degrees),
        fractions=tuple(fractions),
        group_sizes=tuple(group_sizes),
        false_positive_rate=false_positive_rate,
        config=config or SimulationConfig(),
    ).scaled(scale)


def render(
    scenario: ScenarioSpec,
    *,
    session: Optional[LadSession] = None,
    workers: int = 0,
    density_workers: int = 0,
    store=None,
) -> FigureResult:
    """Render Figure 9 from an already-built scenario spec.

    The *session* argument is ignored (each density needs its own
    session); it is accepted for interface uniformity with the other
    figure renderers.

    Parameters
    ----------
    workers:
        Worker processes for the per-density ``(D, x)`` sweep (only used
        when ``density_workers`` is off).
    density_workers:
        When ``> 1``, fan the *density axis* over this many worker
        processes instead: each density value needs its own deployment and
        threshold-training pass, which dwarfs the per-density sweep, so
        this is the axis worth parallelising.  Results are identical to the
        serial run (every random stream is derived from the config seed and
        the parameter names); platforms without process support fall back
        to the serial path with a warning.
    """
    del session

    figure = FigureResult(
        figure_id="fig9",
        title="Detection rate vs network density",
        parameters={
            "false_positive_rate": scenario.false_positive_rate,
            "metric": scenario.metrics[0],
            "attack": scenario.attacks[0],
        },
    )
    rates_at = session_rates(
        scenario, workers=workers, density_workers=density_workers, store=store
    )
    localizer = scenario.localizer_values()[0]

    for degree in scenario.degrees:
        panel = PanelResult(
            title=f"D={degree:g}",
            x_label="m: Number of Nodes at Each Deployment Group",
            y_label="DR-Detection Rate",
        )
        for fraction in scenario.fractions:
            rates = [
                rates_at[localizer, m][
                    SweepPoint(
                        scenario.metrics[0],
                        scenario.attacks[0],
                        float(degree),
                        float(fraction),
                    )
                ].detection_rate
                for m in scenario.density_values()
            ]
            panel.add_series(
                SeriesResult(
                    label=f"x={int(round(fraction * 100))}",
                    x=[float(m) for m in scenario.density_values()],
                    y=rates,
                )
            )
        figure.add_panel(panel)
    return figure


def run(
    simulation: Optional[LadSession] = None,
    config: Optional[SimulationConfig] = None,
    scale: float = 1.0,
    *,
    group_sizes: Sequence[int] = GROUP_SIZES,
    degrees: Sequence[float] = DEGREES_OF_DAMAGE,
    fractions: Sequence[float] = COMPROMISED_FRACTIONS,
    false_positive_rate: float = FALSE_POSITIVE_RATE,
    workers: int = 0,
    density_workers: int = 0,
    store=None,
) -> FigureResult:
    """Reproduce Figure 9 and return its series (see :func:`render`)."""
    return render(
        spec(
            config,
            scale,
            group_sizes=group_sizes,
            degrees=degrees,
            fractions=fractions,
            false_positive_rate=false_positive_rate,
        ),
        session=simulation,
        workers=workers,
        density_workers=density_workers,
        store=store,
    )
