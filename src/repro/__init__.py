"""Reproduction of *LAD: Localization Anomaly Detection for Wireless Sensor
Networks* (Du, Fang, Ning, 2005).

The package is organised bottom-up:

* :mod:`repro.deployment` — deployment knowledge (grid deployment model,
  Gaussian landing distribution, the ``g(z)`` formula and its lookup table);
* :mod:`repro.network` — sensor-network substrate (generation, radio
  models, neighbour discovery, group-announcement protocol);
* :mod:`repro.localization` — the beaconless MLE localization scheme the
  paper evaluates with, plus beacon-based baselines;
* :mod:`repro.attacks` — the adversary models (silence / impersonation /
  multi-impersonation / range-change primitives, the Dec-Bounded and
  Dec-Only classes, the greedy metric-minimising adversary, D-anomaly
  displacement);
* :mod:`repro.core` — the LAD detection scheme itself (expected
  observations, the Diff / Add-all / Probability metrics, threshold
  training, verdicts, ROC evaluation);
* :mod:`repro.experiments` — the scenario API (``LadSession`` cached
  evaluation state, declarative ``ScenarioSpec`` sweeps, the artifact
  store) that regenerates every figure of the paper's evaluation section;
* :mod:`repro.events` — the discrete-event temporal engine (timelines of
  mobility, churn, beacon failures and mid-run attacks replayed through
  per-epoch re-localization, with online detection-latency metrics);
* :mod:`repro.serving` — the detector and its streaming front
  (``DetectionService`` vectorised claim verification, the asyncio
  micro-batching runtime with backpressure, JSONL transports and the
  load generator behind ``lad-repro serve`` / ``lad-repro loadgen``);
* :mod:`repro.applications` — motivating applications (geographic routing,
  surveillance, coverage) used by the examples.

Pluggable component families (metrics, attack classes, deployment models,
localizers, array backends) are published through :class:`repro.registry.Registry`
instances — ``repro.metrics.create("diff")``,
``repro.attacks.available()``, ``repro.localization.create("dvhop")`` —
so third-party scenarios can add components by name.
"""

from repro._version import __version__

# Array-compute backends (the deployment kernels already depend on them,
# so the export is eager and free).
from repro.backend import (
    ArrayBackend,
    BACKENDS,
    BackendSpec,
    NumpyBackend,
    TorchBackend,
    default_backend,
)

# Deployment substrate.
from repro.types import Region, PAPER_REGION
from repro.deployment import (
    GaussianResidentDistribution,
    UniformDiskResidentDistribution,
    GridDeploymentModel,
    HexDeploymentModel,
    RandomDeploymentModel,
    paper_deployment_model,
    GzTable,
    gz_exact,
    gz_quadrature,
    DeploymentKnowledge,
)

# Network substrate.
from repro.network import (
    SensorNetwork,
    NetworkGenerator,
    generate_network,
    NeighborIndex,
    UnitDiskRadio,
    LogNormalShadowingRadio,
)

# Localization schemes.
from repro.localization import (
    BeaconlessLocalizer,
    CentroidLocalizer,
    MmseMultilaterationLocalizer,
    DvHopLocalizer,
    ApitLocalizer,
    BeaconInfrastructure,
    localization_error,
    localization_errors,
)

# Attacks.
from repro.attacks import (
    AttackBudget,
    DecBoundedAttack,
    DecOnlyAttack,
    GreedyMetricMinimizer,
    DisplacementAttack,
    SilenceAttack,
    ImpersonationAttack,
    MultiImpersonationAttack,
    RangeChangeAttack,
    WormholeAttack,
)

# The LAD core.
from repro.core import (
    DiffMetric,
    AddAllMetric,
    ProbabilityMetric,
    resolve_metric,
    derive_threshold,
    collect_training_data,
    benign_scores,
    compute_roc,
    RocCurve,
    evaluate_detection,
    Verdict,
    verdicts_from_scores,
)

# Registries.
from repro.registry import Registry

# The experiments layer (sessions, scenario specs, sweeps, artifact store)
# is exported lazily: ``repro.LadSession`` etc. resolve on first access, so
# ``import repro`` stays light and never drags in multiprocessing-heavy
# paths that user code may not need.
_LAZY_EXPORTS = {
    "SimulationConfig": "repro.experiments.config",
    "LadSession": "repro.experiments.session",
    "ScenarioSpec": "repro.experiments.scenario",
    "ArtifactStore": "repro.experiments.store",
    "SweepPoint": "repro.experiments.sweep",
    "SweepRunner": "repro.experiments.sweep",
    "SweepManifest": "repro.experiments.manifest",
    "SweepProgress": "repro.experiments.manifest",
    "shard_of_point": "repro.experiments.sweep",
    "shard_points": "repro.experiments.sweep",
    "FigureResult": "repro.experiments.results",
    "run_figure_spec": "repro.experiments.figures.common",
    # events (lazy: the temporal engine pulls in the sweep machinery)
    "EventEngine": "repro.events",
    "EventSpec": "repro.events",
    "TimelineSpec": "repro.events",
    "TemporalOutcome": "repro.events",
    "TemporalRunner": "repro.events",
    "TemporalWorld": "repro.events",
    # serving (lazy for the same reason: asyncio machinery on demand)
    "DetectionService": "repro.serving",
    "LocationClaim": "repro.serving",
    "ClaimError": "repro.serving",
    "ServiceRuntime": "repro.serving",
    "ServingConfig": "repro.serving",
    "ServiceOverloaded": "repro.serving",
    "ServiceClosed": "repro.serving",
    "LoadReport": "repro.serving",
    "claims_from_session": "repro.serving",
}


def __getattr__(name: str):
    if name in _LAZY_EXPORTS:
        import importlib

        value = getattr(importlib.import_module(_LAZY_EXPORTS[name]), name)
        globals()[name] = value
        return value
    if name == "metrics":
        # ``repro.metrics`` (the registry facade) as a lazy submodule, so
        # ``import repro; repro.metrics.create("diff")`` just works.
        import importlib

        return importlib.import_module("repro.metrics")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_LAZY_EXPORTS) | {"metrics"})


__all__ = [
    "__version__",
    # backends
    "ArrayBackend",
    "BACKENDS",
    "BackendSpec",
    "NumpyBackend",
    "TorchBackend",
    "default_backend",
    # types
    "Region",
    "PAPER_REGION",
    # deployment
    "GaussianResidentDistribution",
    "UniformDiskResidentDistribution",
    "GridDeploymentModel",
    "HexDeploymentModel",
    "RandomDeploymentModel",
    "paper_deployment_model",
    "GzTable",
    "gz_exact",
    "gz_quadrature",
    "DeploymentKnowledge",
    # network
    "SensorNetwork",
    "NetworkGenerator",
    "generate_network",
    "NeighborIndex",
    "UnitDiskRadio",
    "LogNormalShadowingRadio",
    # localization
    "BeaconlessLocalizer",
    "CentroidLocalizer",
    "MmseMultilaterationLocalizer",
    "DvHopLocalizer",
    "ApitLocalizer",
    "BeaconInfrastructure",
    "localization_error",
    "localization_errors",
    # attacks
    "AttackBudget",
    "DecBoundedAttack",
    "DecOnlyAttack",
    "GreedyMetricMinimizer",
    "DisplacementAttack",
    "SilenceAttack",
    "ImpersonationAttack",
    "MultiImpersonationAttack",
    "RangeChangeAttack",
    "WormholeAttack",
    # core
    "DiffMetric",
    "AddAllMetric",
    "ProbabilityMetric",
    "resolve_metric",
    "derive_threshold",
    "collect_training_data",
    "benign_scores",
    "compute_roc",
    "RocCurve",
    "evaluate_detection",
    "Verdict",
    "verdicts_from_scores",
    # registries
    "Registry",
    # experiments (lazy)
    "SimulationConfig",
    "LadSession",
    "ScenarioSpec",
    "ArtifactStore",
    "SweepPoint",
    "SweepRunner",
    "SweepManifest",
    "SweepProgress",
    "shard_of_point",
    "shard_points",
    "FigureResult",
    "run_figure_spec",
    # events (lazy)
    "EventEngine",
    "EventSpec",
    "TimelineSpec",
    "TemporalOutcome",
    "TemporalRunner",
    "TemporalWorld",
    # serving (lazy)
    "DetectionService",
    "LocationClaim",
    "ClaimError",
    "ServiceRuntime",
    "ServingConfig",
    "ServiceOverloaded",
    "ServiceClosed",
    "LoadReport",
    "claims_from_session",
]
