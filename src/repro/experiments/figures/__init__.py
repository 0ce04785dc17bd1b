"""Per-figure experiment definitions.

Each module exposes

* ``spec(config=None, scale=1.0, ...)`` — the figure's evaluation as a
  declarative :class:`~repro.experiments.scenario.ScenarioSpec`;
* ``run(simulation=None, config=None, scale=1.0, ...)`` — runs that spec
  through a :class:`~repro.experiments.session.LadSession` and returns a
  :class:`~repro.experiments.results.FigureResult` with the same panels
  and series as the corresponding figure in the paper.

``scale`` shrinks the Monte-Carlo sample sizes for quick runs (the
benchmarks use a small scale; the defaults approximate the paper's
statistical quality).

Use :func:`get_figure` / :func:`run_figure` to look figures up by id
(``"fig4"`` … ``"fig9"``, plus ``"figm"`` — the localizer × attack
robustness matrix — ``"figl"`` — this reproduction's cross-localizer
comparison, the figm preset :data:`figm.FIGL` exposed here as ``figl`` —
and ``"figt"`` — the temporal delivery/detection-rate-over-time figure);
:data:`FIGURE_SPECS` maps ids to their spec builders (e.g. to write them
out as TOML files for ``lad-repro sweep``) and :data:`FIGURE_RENDERERS`
to their ``render(spec, ...)`` functions —
:func:`repro.experiments.figures.common.run_figure_spec` (the engine
behind ``lad-repro sweep --figures``) dispatches through the latter.

Figures spanning several training sessions — Figure 9's densities and
the localizer axis of figures L and M — score them through
:func:`repro.experiments.figures.common.session_rates`, whose
``density_workers`` fans the sessions over worker processes.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.experiments.figures import (
    fig4,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    figm,
    figt,
)
from repro.experiments.figures.common import run_figure_spec
from repro.experiments.figures.figm import FIGL as figl
from repro.experiments.results import FigureResult
from repro.experiments.scenario import ScenarioSpec

__all__ = [
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "figl",
    "figm",
    "figt",
    "FIGURES",
    "FIGURE_SPECS",
    "FIGURE_RENDERERS",
    "get_figure",
    "run_figure",
    "run_figure_spec",
]

#: Registry mapping figure ids to their ``run`` functions.
FIGURES: Dict[str, Callable[..., FigureResult]] = {
    "fig4": fig4.run,
    "fig5": fig5.run,
    "fig6": fig6.run,
    "fig7": fig7.run,
    "fig8": fig8.run,
    "fig9": fig9.run,
    "figl": figl.run,
    "figm": figm.run,
    "figt": figt.run,
}

#: Registry mapping figure ids to their declarative spec builders.
FIGURE_SPECS: Dict[str, Callable[..., ScenarioSpec]] = {
    "fig4": fig4.spec,
    "fig5": fig5.spec,
    "fig6": fig6.spec,
    "fig7": fig7.spec,
    "fig8": fig8.spec,
    "fig9": fig9.spec,
    "figl": figl.spec,
    "figm": figm.spec,
    "figt": figt.spec,
}

#: Registry mapping figure ids to their spec renderers
#: (``render(spec, *, session=None, workers=0, density_workers=0,
#: store=None)`` → :class:`FigureResult`).
FIGURE_RENDERERS: Dict[str, Callable[..., FigureResult]] = {
    "fig4": fig4.render,
    "fig5": fig5.render,
    "fig6": fig6.render,
    "fig7": fig7.render,
    "fig8": fig8.render,
    "fig9": fig9.render,
    "figl": figl.render,
    "figm": figm.render,
    "figt": figt.render,
}


def get_figure(figure_id: str) -> Callable[..., FigureResult]:
    """Return the ``run`` function of a figure by id (e.g. ``"fig7"``)."""
    key = figure_id.strip().lower()
    if key not in FIGURES:
        raise KeyError(
            f"unknown figure {figure_id!r}; available: {sorted(FIGURES)}"
        )
    return FIGURES[key]


def run_figure(figure_id: str, **kwargs) -> FigureResult:
    """Run the experiment reproducing *figure_id* and return its result."""
    return get_figure(figure_id)(**kwargs)
