"""Per-decision verdicts — the shared currency of offline and online LAD.

A :class:`Verdict` is the answer to one location-verification question:
"is this (claimed location, observation) pair consistent with the
deployment knowledge?"  It carries the metric score, the threshold in
force, the resulting decision and the false-positive budget the threshold
was trained at — everything needed to audit the decision later.

Both evaluation paths produce the *same* type:

* the batch path — :meth:`repro.experiments.session.LadSession.outcome`
  wraps its score samples in a :class:`DetectionOutcome
  <repro.core.evaluation.DetectionOutcome>` whose :meth:`verdicts` method
  yields one ``Verdict`` per victim;
* the serving path — :class:`repro.serving.DetectionService` returns one
  ``Verdict`` per :class:`~repro.serving.LocationClaim`, with the claim id
  and the observed service latency attached.

Because the two paths share the dataclass (and derive thresholds with the
same :func:`repro.core.thresholds.derive_threshold` rule), offline and
online decisions are comparable by construction: a claim scored online
flags if and only if the same score would have counted as detected in the
offline sweep at the same false-positive budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

__all__ = ["Verdict", "verdicts_from_scores"]


@dataclass(frozen=True, slots=True)
class Verdict:
    """One location-verification decision.

    Attributes
    ----------
    score:
        The anomaly-metric value (larger = more anomalous).
    threshold:
        The detection threshold in force when the decision was made.
    anomalous:
        ``True`` when ``score > threshold`` — the claim is flagged.
    metric:
        Canonical name of the metric that produced the score.
    false_positive_rate:
        The nominal false-positive budget the threshold was trained at.
    claim_id:
        Identifier of the claim this verdict answers (serving path only;
        ``None`` for batch-evaluation verdicts).
    latency_ms:
        Wall-clock milliseconds from claim admission to verdict (serving
        path only; ``None`` for batch-evaluation verdicts).
    error:
        Why the claim could not be scored (e.g. non-finite coordinates).
        An error verdict is always treated as anomalous — a malformed
        claim must never be accepted — but carries no meaningful score.
    """

    score: float
    threshold: float
    anomalous: bool
    metric: str
    false_positive_rate: float
    claim_id: Optional[str] = None
    latency_ms: Optional[float] = None
    error: Optional[str] = None

    @property
    def decision(self) -> str:
        """``"flag"``/``"accept"``, or ``"error"`` for unscorable claims."""
        if self.error is not None:
            return "error"
        return "flag" if self.anomalous else "accept"

    def with_latency(self, latency_ms: float) -> "Verdict":
        """A copy of the verdict with the observed service latency set."""
        # Positional, in field order: the runtime copies every served
        # verdict, and this skips ``dataclasses.replace``'s per-field
        # introspection.
        return Verdict(
            self.score,
            self.threshold,
            self.anomalous,
            self.metric,
            self.false_positive_rate,
            self.claim_id,
            float(latency_ms),
            self.error,
        )

    def as_dict(self) -> Dict[str, object]:
        """JSON-serialisable rendering (used by the JSONL transport)."""
        payload: Dict[str, object] = {
            "decision": self.decision,
            "threshold": self.threshold,
            "metric": self.metric,
            "false_positive_rate": self.false_positive_rate,
        }
        if np.isfinite(self.score):
            payload["score"] = self.score
        if self.claim_id is not None:
            payload["id"] = self.claim_id
        if self.latency_ms is not None:
            payload["latency_ms"] = self.latency_ms
        if self.error is not None:
            payload["error"] = self.error
        return payload


def verdicts_from_scores(
    scores: np.ndarray,
    *,
    threshold: float,
    metric: str,
    false_positive_rate: float,
    claim_ids: Optional[Sequence[Optional[str]]] = None,
) -> List[Verdict]:
    """One :class:`Verdict` per score under a single trained threshold.

    The decision rule is the uniform LAD one — flag when
    ``score > threshold`` — applied elementwise, so a batch of verdicts is
    exactly the per-element decisions of the vectorised evaluation path.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1:
        raise ValueError(f"expected a 1-D score sample, got shape {scores.shape}")
    if claim_ids is not None and len(claim_ids) != scores.shape[0]:
        raise ValueError("claim_ids and scores disagree in length")
    threshold = float(threshold)
    false_positive_rate = float(false_positive_rate)
    if claim_ids is None:
        claim_ids = [None] * scores.shape[0]
    # ``tolist`` gives the same floats and bools as per-element casts, without
    # a NumPy scalar per row (the serving path builds every verdict here, so
    # the fields go in positionally, in declaration order).
    return [
        Verdict(score, threshold, flag, metric, false_positive_rate, claim_id)
        for score, flag, claim_id in zip(
            scores.tolist(), (scores > threshold).tolist(), claim_ids
        )
    ]
