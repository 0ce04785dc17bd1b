"""The LAD detection scheme — the paper's primary contribution (Section 5).

The pipeline is:

1. compute the expected observation ``µ`` at the estimated location
   (:meth:`repro.deployment.knowledge.DeploymentKnowledge.expected_observation`);
2. score the inconsistency between the actual observation ``o`` and ``µ``
   with one of the three metrics (:mod:`repro.core.metrics`);
3. compare the score against a threshold trained on benign deployments
   (:mod:`repro.core.training`, :mod:`repro.core.thresholds`);
4. raise an alarm when the score exceeds the threshold
   (:class:`~repro.core.verdict.Verdict`).

Steps 1–2 are :meth:`AnomalyMetric.score
<repro.core.metrics.AnomalyMetric.score>`, the one batch-scoring path.
The detector that runs all four steps on location claims is
:class:`repro.serving.DetectionService`.

:mod:`repro.core.roc` and :mod:`repro.core.evaluation` provide the
evaluation machinery (ROC curves, detection rate / false-positive rate under
the attack models of Section 6) used by the figure-reproduction benchmarks.
"""

from repro.core.metrics import (
    AnomalyMetric,
    DiffMetric,
    AddAllMetric,
    ProbabilityMetric,
    METRICS,
    resolve_metric,
    ALL_METRICS,
)
from repro.core.thresholds import derive_threshold
from repro.core.verdict import Verdict, verdicts_from_scores
from repro.core.training import TrainingData, collect_training_data, benign_scores
from repro.core.roc import RocCurve, compute_roc
from repro.core.evaluation import (
    attacked_scores_from_observations,
    evaluate_detection,
    DetectionOutcome,
)

__all__ = [
    "AnomalyMetric",
    "DiffMetric",
    "AddAllMetric",
    "ProbabilityMetric",
    "METRICS",
    "resolve_metric",
    "ALL_METRICS",
    "derive_threshold",
    "Verdict",
    "verdicts_from_scores",
    "TrainingData",
    "collect_training_data",
    "benign_scores",
    "RocCurve",
    "compute_roc",
    "attacked_scores_from_observations",
    "evaluate_detection",
    "DetectionOutcome",
]
