"""Experiment harness that regenerates the paper's evaluation figures.

:class:`~repro.experiments.session.LadSession` runs the end-to-end LAD
pipeline (deploy → train thresholds → attack → score) with aggressive
caching so parameter sweeps reuse networks, observations and training data;
:class:`~repro.experiments.scenario.ScenarioSpec` is the declarative,
TOML/JSON-serialisable description of a sweep that compiles onto the
session's :class:`~repro.experiments.sweep.SweepRunner`; and
:class:`~repro.experiments.store.ArtifactStore` persists trained state so
repeated sweeps skip the training pass.  The
:mod:`repro.experiments.figures` sub-package registers one declarative
spec builder per figure in ``FIGURE_SPECS`` (the paper's Figures 4–9,
plus this reproduction's figures L, M and T), with parameters matching the
paper's, scaled down by a ``scale`` factor for quick benchmark runs;
:func:`~repro.experiments.figures.run_figure_spec` renders any of them.
"""

from repro.experiments.config import SimulationConfig
from repro.experiments.session import LadSession
from repro.experiments.scenario import ScenarioSpec
from repro.experiments.store import ArtifactStore, fingerprint_key
from repro.experiments.results import SeriesResult, PanelResult, FigureResult
from repro.experiments.reporting import format_figure, format_panel
from repro.experiments.sweep import (
    SweepPoint,
    SweepProgress,
    SweepRunner,
    shard_of_point,
    shard_points,
)
from repro.experiments import figures

__all__ = [
    "SimulationConfig",
    "LadSession",
    "ScenarioSpec",
    "ArtifactStore",
    "fingerprint_key",
    "SeriesResult",
    "PanelResult",
    "FigureResult",
    "SweepPoint",
    "SweepRunner",
    "SweepProgress",
    "shard_of_point",
    "shard_points",
    "format_figure",
    "format_panel",
    "figures",
]
