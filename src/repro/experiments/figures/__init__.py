"""The paper's figures as declarative specs with renderers.

Every figure is rendered one way::

    run_figure_spec(FIGURE_SPECS[figure_id](config=..., scale=...), ...)

:data:`FIGURE_SPECS` maps each id to its spec builder
``spec(config=None, scale=1.0, *, <axes>)`` — the figure's evaluation as
a :class:`~repro.experiments.scenario.ScenarioSpec`, which can also be
written out as a TOML file for ``lad-repro sweep --figures`` — and
:data:`FIGURE_RENDERERS` to its ``render(spec, *, session=None,
workers=0, density_workers=0, store=None)``, which
:func:`~repro.experiments.figures.common.run_figure_spec` dispatches
through by the spec's name.  ``scale`` shrinks the Monte-Carlo sample
sizes for quick runs (the benchmarks use a small scale; the defaults
approximate the paper's statistical quality).

The figures, each exposed here under its id with ``spec`` and ``render``:

* ``fig4`` … ``fig8`` — presets of the two single-session shapes of
  :mod:`~repro.experiments.figures.shapes`: ROC curves (Figures 4–6) and
  detection rate against D or x (Figures 7–8);
* ``fig9`` — detection rate against network density, one session per
  density;
* ``figm`` — this reproduction's localizer × attack robustness matrix,
  and ``figl``, its Dec-Bounded column over the classic schemes;
* ``figt`` — delivery and detection rate over time as an attack spreads.

Figures spanning several training sessions — Figure 9's densities and
the localizer axis of figures L and M — score them through
:func:`repro.experiments.figures.common.session_rates`, whose
``density_workers`` fans the sessions over worker processes.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.experiments.figures import fig9, figm, figt
from repro.experiments.figures.common import run_figure_spec
from repro.experiments.figures.figm import FIGL as figl
from repro.experiments.figures.shapes import FIG4 as fig4
from repro.experiments.figures.shapes import FIG5 as fig5
from repro.experiments.figures.shapes import FIG6 as fig6
from repro.experiments.figures.shapes import FIG7 as fig7
from repro.experiments.figures.shapes import FIG8 as fig8
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
    "FIGURE_SPECS",
    "FIGURE_RENDERERS",
    "run_figure_spec",
]

# One table of figures, so the two registries always cover the same ids.
_BY_ID = {
    "fig4": fig4,
    "fig5": fig5,
    "fig6": fig6,
    "fig7": fig7,
    "fig8": fig8,
    "fig9": fig9,
    "figl": figl,
    "figm": figm,
    "figt": figt,
}

#: Registry mapping figure ids to their declarative spec builders.
FIGURE_SPECS: Dict[str, Callable[..., ScenarioSpec]] = {
    figure_id: figure.spec for figure_id, figure in _BY_ID.items()
}

#: Registry mapping figure ids to their spec renderers
#: (``render(spec, *, session=None, workers=0, density_workers=0,
#: store=None)`` → :class:`FigureResult`).
FIGURE_RENDERERS: Dict[str, Callable[..., FigureResult]] = {
    figure_id: figure.render for figure_id, figure in _BY_ID.items()
}
