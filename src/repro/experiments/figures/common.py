"""Shared engine of the figure renderers.

Every figure of the paper's evaluation section is a
:class:`~repro.experiments.scenario.ScenarioSpec` plus a renderer that
folds the spec's scored grid into a
:class:`~repro.experiments.results.FigureResult`.  :func:`run_figure_spec`
is the one way to render a figure: it dispatches a spec to the renderer
registered under its name.  Single-session figures score their grid in
the caller's :class:`~repro.experiments.session.LadSession` (or a new
one built from the spec); figures spanning several sessions (Figure 9's
densities, the localizer matrix of figures L and M) score them through
:func:`session_rates`.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, Union

from repro.core.evaluation import DetectionOutcome
from repro.experiments.results import FigureResult
from repro.experiments.scenario import ScenarioSpec
from repro.experiments.session import LadSession
from repro.experiments.store import ArtifactStore
from repro.experiments.sweep import SweepPoint, fan_out

__all__ = [
    "run_figure_spec",
    "session_rates",
    "DEFAULT_ROC_FP_GRID",
]


#: False-positive grid at which ROC curves are sampled when rendered as
#: series (the paper's ROC plots span 0 .. ~1 with most action below 0.2).
DEFAULT_ROC_FP_GRID: tuple[float, ...] = (
    0.0,
    0.005,
    0.01,
    0.02,
    0.05,
    0.10,
    0.15,
    0.20,
    0.30,
    0.40,
    0.50,
    0.75,
    1.0,
)


def run_figure_spec(
    spec: ScenarioSpec,
    *,
    figure_id: Optional[str] = None,
    session: Optional[LadSession] = None,
    workers: int = 0,
    density_workers: int = 0,
    store: Union[ArtifactStore, str, None] = None,
) -> FigureResult:
    """Evaluate a figure-shaped spec end to end and render its figure.

    The renderer is looked up by *figure_id* — defaulting to ``spec.name``,
    so any spec named after a registered figure (``"fig4"`` … ``"fig9"``)
    renders with that figure's panels, series and parameters.  This is
    what ``lad-repro figure`` and ``lad-repro sweep --figures`` run, with
    ``--cache-dir`` adding the per-point attacked-score cache underneath.
    """
    from repro.experiments.figures import FIGURE_RENDERERS

    key = (figure_id or spec.name).strip().lower()
    renderer = FIGURE_RENDERERS.get(key)
    if renderer is None:
        raise KeyError(
            f"no figure renderer named {key!r}; "
            f"available: {sorted(FIGURE_RENDERERS)}"
        )
    return renderer(
        spec,
        session=session,
        workers=workers,
        density_workers=density_workers,
        store=store,
    )


def _sweep_session(_state, task) -> Dict[SweepPoint, DetectionOutcome]:
    """Detection rates of the spec's grid in one ``(localizer, m)`` session.

    Module-level so :func:`~repro.experiments.sweep.fan_out` can ship it to
    worker processes (it reads no fan-out state), where *store* arrives as a
    pickled copy: the content on disk is shared, the hit/miss counters stay
    per-process.
    """
    scenario, localizer, group_size, store, workers = task
    session = scenario.session(group_size=group_size, localizer=localizer, store=store)
    return session.sweep(workers=workers).detection_rates(
        scenario.points(), false_positive_rate=scenario.false_positive_rate
    )


def session_rates(
    scenario: ScenarioSpec,
    *,
    workers: int = 0,
    density_workers: int = 0,
    store: Union[ArtifactStore, str, None] = None,
) -> Dict[Tuple[str, int], Dict[SweepPoint, DetectionOutcome]]:
    """Detection rates of the spec's points in every session of the spec.

    One session per ``(localizer, group_size)`` of
    :meth:`~repro.experiments.scenario.ScenarioSpec.sessions`, each with its
    own training pass — the expensive part, and therefore the axis worth
    parallelising: ``density_workers > 1`` fans the sessions over that many
    processes (each sweeping its grid serially), otherwise the sessions run
    in turn, each sweeping its grid over *workers* processes.  The results
    are identical either way, since every random stream derives from the
    config seed and the parameter names.  In-process sessions score into
    the caller's *store* object, so its hit/miss counters cover the run.
    """
    inner = 0 if density_workers > 1 else workers
    axes = [(localizer, m) for localizer, m, _ in scenario.sessions()]
    tasks = [(scenario, localizer, m, store, inner) for localizer, m in axes]
    return dict(zip(axes, fan_out(_sweep_session, tasks, density_workers)))
