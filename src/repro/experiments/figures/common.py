"""Shared engine for the spec-driven figure modules.

Every figure of the paper's evaluation section is a
:class:`~repro.experiments.scenario.ScenarioSpec` plus a presentation
shape: which axis forms the panels, which axis forms the series, and
whether the series sample ROC curves (Figures 4–6) or detection rates at
a fixed false-positive budget (Figures 7–9).  The helpers here run a
spec's grid through a :class:`~repro.experiments.session.LadSession` /
:class:`~repro.experiments.sweep.SweepRunner` and fold the scored points
into :class:`~repro.experiments.results.FigureResult` containers, so the
per-figure modules reduce to a spec builder plus one render call.
Figures spanning several sessions (Figure 9's densities, the localizer
matrix of figures L and M) score them through :func:`session_rates`.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence, Tuple, Union

from repro.core.evaluation import DetectionOutcome
from repro.core.roc import RocCurve
from repro.experiments.config import SimulationConfig
from repro.experiments.results import FigureResult, PanelResult, SeriesResult
from repro.experiments.scenario import ScenarioSpec
from repro.experiments.session import LadSession
from repro.experiments.store import ArtifactStore
from repro.experiments.sweep import SweepPoint, fan_out

__all__ = [
    "resolve_session",
    "resolve_simulation",
    "roc_series",
    "run_roc_figure",
    "run_rate_figure",
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


def resolve_session(
    session: Optional[LadSession] = None,
    config: Optional[SimulationConfig] = None,
    scale: float = 1.0,
    *,
    spec: Optional[ScenarioSpec] = None,
    store: Union[ArtifactStore, str, None] = None,
) -> LadSession:
    """Build (or pass through) the :class:`LadSession` a figure should use.

    Precedence: an explicit *session* wins; otherwise a new one is built
    from *spec* (when given) or *config* (or the paper defaults) with its
    sample sizes scaled by *scale*.
    """
    if session is not None:
        return session
    if spec is not None:
        if config is not None:
            spec = spec.with_config(config)
        return spec.scaled(scale).session(store=store)
    cfg = config or SimulationConfig()
    if scale != 1.0:
        cfg = cfg.scaled(scale)
    return LadSession(cfg, store=store)


#: Backwards-compatible name from the pre-session API.
resolve_simulation = resolve_session


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
    renders directly — and produces the same
    :class:`~repro.experiments.results.FigureResult` (panels, series,
    parameters) as the corresponding ``run`` driver.  This is what
    ``lad-repro sweep --figures`` runs, with ``--cache-dir`` adding the
    per-point attacked-score cache underneath.
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


def _sweep_session(task) -> Dict[SweepPoint, DetectionOutcome]:
    """Detection rates of the spec's grid in one ``(localizer, m)`` session.

    Module-level so :func:`~repro.experiments.sweep.fan_out` can ship it to
    worker processes, where *store* arrives as a pickled copy: the content
    on disk is shared, the hit/miss counters stay per-process.
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


def roc_series(
    label: str,
    roc: RocCurve,
    fp_grid: Sequence[float] = DEFAULT_ROC_FP_GRID,
) -> SeriesResult:
    """Sample an ROC curve on a fixed false-positive grid as a series."""
    ys = [roc.detection_rate_at(fp) for fp in fp_grid]
    return SeriesResult(label=label, x=list(fp_grid), y=ys)


def _axis_point(
    spec: ScenarioSpec,
    *,
    metric: Optional[str] = None,
    attack: Optional[str] = None,
    degree: Optional[float] = None,
    fraction: Optional[float] = None,
) -> SweepPoint:
    """A :class:`SweepPoint` of the spec's grid, defaulting singleton axes."""
    return SweepPoint(
        metric if metric is not None else spec.metrics[0],
        attack if attack is not None else spec.attacks[0],
        float(degree if degree is not None else spec.degrees[0]),
        float(fraction if fraction is not None else spec.fractions[0]),
    )


def run_roc_figure(
    spec: ScenarioSpec,
    *,
    figure_id: str,
    title: str,
    series_axis: str,
    series_label: Callable[[str], str],
    parameters: Optional[Dict] = None,
    session: Optional[LadSession] = None,
    workers: int = 0,
    store: Union[ArtifactStore, str, None] = None,
    fp_grid: Sequence[float] = DEFAULT_ROC_FP_GRID,
) -> FigureResult:
    """Render a ROC-shaped figure (Figures 4–6): panels per degree of damage.

    Parameters
    ----------
    series_axis:
        ``"metrics"`` or ``"attacks"`` — the spec axis forming the curves
        of each panel (the other one must be a singleton).
    series_label:
        Maps a canonical component name to its legend label.
    """
    sim = resolve_session(session, spec=spec, store=store)
    runner = sim.sweep(workers=workers)
    rocs = runner.rocs(spec.points())

    figure = FigureResult(
        figure_id=figure_id, title=title, parameters=dict(parameters or {})
    )
    for degree in spec.degrees:
        panel = PanelResult(
            title=f"D={degree:g}",
            x_label="FP-False Positive Rate",
            y_label="DR-Detection Rate",
        )
        for value in getattr(spec, series_axis):
            point = _axis_point(
                spec,
                degree=degree,
                **{series_axis.rstrip("s"): value},
            )
            panel.add_series(roc_series(series_label(value), rocs[point], fp_grid))
        figure.add_panel(panel)
    return figure


def run_rate_figure(
    spec: ScenarioSpec,
    *,
    figure_id: str,
    title: str,
    panel_title: str,
    x_axis: str,
    x_label: str,
    series_axis: str,
    series_label: Callable[[float], str],
    x_transform: Callable[[float], float] = float,
    parameters: Optional[Dict] = None,
    session: Optional[LadSession] = None,
    workers: int = 0,
    store: Union[ArtifactStore, str, None] = None,
) -> FigureResult:
    """Render a fixed-FP detection-rate figure (Figures 7 and 8).

    One panel; *x_axis* (``"degrees"`` or ``"fractions"``) runs along the
    x axis and *series_axis* forms the curves.  Detection rates are read
    at the spec's ``false_positive_rate``.
    """
    sim = resolve_session(session, spec=spec, store=store)
    runner = sim.sweep(workers=workers)
    rates_at = runner.detection_rates(
        spec.points(), false_positive_rate=spec.false_positive_rate
    )

    figure = FigureResult(
        figure_id=figure_id, title=title, parameters=dict(parameters or {})
    )
    panel = PanelResult(
        title=panel_title, x_label=x_label, y_label="DR-Detection Rate"
    )
    axis_kw = {"degrees": "degree", "fractions": "fraction"}
    for series_value in getattr(spec, series_axis):
        rates = [
            rates_at[
                _axis_point(
                    spec,
                    **{
                        axis_kw[series_axis]: series_value,
                        axis_kw[x_axis]: x_value,
                    },
                )
            ].detection_rate
            for x_value in getattr(spec, x_axis)
        ]
        panel.add_series(
            SeriesResult(
                label=series_label(series_value),
                x=[x_transform(x_value) for x_value in getattr(spec, x_axis)],
                y=rates,
            )
        )
    figure.add_panel(panel)
    return figure
