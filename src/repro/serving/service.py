"""The streaming detection service core — vectorised claim verification.

:class:`DetectionService` is the online form of the LAD detector: it holds
a trained session's state (deployment knowledge with its ``g(z)`` table,
the localization scheme, one trained threshold per metric, the array
backend) and verifies batches of :class:`~repro.serving.claims.LocationClaim`
requests in one vectorised pass:

1. claims without a claimed location are localized first — all of them in
   one :meth:`BeaconlessLocalizer.localize_observations` call;
2. the claims are grouped by metric, and each group is scored with one
   :meth:`AnomalyMetric.score` call — the expected observations ``µ`` at
   the group's locations, then the same vectorised ``compute`` kernel the
   offline evaluation uses;
3. scores become :class:`~repro.core.verdict.Verdict` objects under the
   session-trained thresholds (:func:`~repro.core.verdict.verdicts_from_scores`).

Every kernel in that pipeline is row-elementwise (and the batch engine is
pinned batch == loop bit-for-bit), so a claim's verdict never depends on
which other claims shared its micro-batch — the service is bit-identical
to offline :class:`~repro.experiments.session.LadSession` scoring by
construction, which the serving test-suite asserts across all registered
localizers.

Construction is either *live* (:meth:`DetectionService.from_session`
trains thresholds through the session, reusing its artifact store when
present) or *warm* (``require_warm=True`` loads the benign scores straight
from the :class:`~repro.experiments.store.ArtifactStore` and refuses to
fall back to training — cold starts should be a decision, not an
accident).
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Union

import numpy as np

from repro.core.metrics import AnomalyMetric, resolve_metric
from repro.core.thresholds import derive_threshold
from repro.core.verdict import Verdict, verdicts_from_scores
from repro.deployment.knowledge import DeploymentKnowledge
from repro.localization.base import LocalizationScheme
from repro.localization.beaconless import BeaconlessLocalizer
from repro.serving.claims import ClaimError, LocationClaim
from repro.utils.logging import get_logger
from repro.utils.validation import check_fraction

if TYPE_CHECKING:  # pragma: no cover - imported for type checkers only
    from repro.experiments.scenario import ScenarioSpec
    from repro.experiments.session import LadSession

__all__ = ["DetectionService"]

_LOGGER = get_logger("serving.service")


class DetectionService:
    """Verify location claims against a trained LAD configuration.

    Parameters
    ----------
    knowledge:
        The deployment knowledge (with its ``g(z)`` table) claims are
        verified against.
    thresholds:
        One trained detection threshold per metric name.  Usually derived
        by :meth:`from_session`; passing them explicitly supports loading
        exported state without a session object.
    false_positive_rate:
        The nominal false-positive budget the thresholds were trained at
        (recorded on every verdict).
    metric:
        Default metric for claims that don't name one; must have a
        threshold.  Defaults to the first thresholded metric.
    localizer:
        Localization scheme for claims arriving *without* a claimed
        location.  Only observation-only schemes (the beaconless MLE
        engine) can serve those; beacon-based schemes verify claimed
        locations only.
    """

    def __init__(
        self,
        knowledge: DeploymentKnowledge,
        *,
        thresholds: Mapping[str, float],
        false_positive_rate: float = 0.01,
        metric: Union[str, AnomalyMetric, None] = None,
        localizer: Optional[LocalizationScheme] = None,
    ):
        if not thresholds:
            raise ValueError("a DetectionService needs at least one threshold")
        check_fraction("false_positive_rate", false_positive_rate)
        self._knowledge = knowledge
        self._thresholds = {
            resolve_metric(name).name: float(value)
            for name, value in thresholds.items()
        }
        self._false_positive_rate = float(false_positive_rate)
        if metric is None:
            self._default_metric = next(iter(self._thresholds))
        else:
            self._default_metric = resolve_metric(metric).name
        if self._default_metric not in self._thresholds:
            raise ValueError(
                f"default metric {self._default_metric!r} has no trained "
                f"threshold (have: {sorted(self._thresholds)})"
            )
        self._localizer = localizer

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_session(
        cls,
        session: "LadSession",
        *,
        metrics: Sequence[Union[str, AnomalyMetric]] = ("diff",),
        false_positive_rate: float = 0.01,
        require_warm: bool = False,
    ) -> "DetectionService":
        """Build a service from a :class:`LadSession`'s trained state.

        With ``require_warm=False`` thresholds come from
        :meth:`LadSession.threshold` — trained now, or served from the
        session's artifact store when warm.  With ``require_warm=True``
        the session *must* carry a store already holding every metric's
        benign scores: they are loaded via
        :meth:`ArtifactStore.load_required` and startup performs zero
        training (a missing artifact raises ``KeyError`` instead of
        silently training).
        """
        names = [resolve_metric(metric).name for metric in metrics]
        if not names:
            raise ValueError("metrics must name at least one trained metric")
        thresholds: Dict[str, float] = {}
        if require_warm:
            store = session.store
            if store is None:
                raise ValueError(
                    "require_warm=True needs a session with an artifact "
                    "store (pass store=/cache dir to the session)"
                )
            for name in names:
                arrays = store.load_required(
                    "benign_scores", session.benign_scores_key(name)
                )
                thresholds[name] = derive_threshold(
                    arrays["scores"], 1.0 - false_positive_rate
                )
        else:
            for name in names:
                thresholds[name] = session.threshold(
                    name, false_positive_rate=false_positive_rate
                )
        _LOGGER.info(
            "detection service ready: metrics=%s fp=%.2f%% warm=%s",
            names,
            100.0 * false_positive_rate,
            require_warm,
        )
        return cls(
            session.knowledge,
            thresholds=thresholds,
            false_positive_rate=false_positive_rate,
            metric=names[0],
            localizer=session.localizer,
        )

    @classmethod
    def from_spec(
        cls,
        spec: Union["ScenarioSpec", str],
        *,
        store=None,
        metrics: Optional[Sequence[str]] = None,
        false_positive_rate: Optional[float] = None,
        localizer: Optional[str] = None,
        group_size: Optional[int] = None,
        require_warm: bool = False,
    ) -> "DetectionService":
        """Build a service from a declarative scenario spec (or spec file).

        The spec's metric list and false-positive budget are the defaults;
        *store* enables the warm-start path (``require_warm=True`` then
        guarantees zero training at startup).
        """
        from repro.experiments.scenario import ScenarioSpec

        if not isinstance(spec, ScenarioSpec):
            spec = ScenarioSpec.from_file(spec)
        session = spec.session(
            group_size=group_size, localizer=localizer, store=store
        )
        return cls.from_session(
            session,
            metrics=tuple(metrics) if metrics else spec.metrics,
            false_positive_rate=(
                spec.false_positive_rate
                if false_positive_rate is None
                else false_positive_rate
            ),
            require_warm=require_warm,
        )

    # -- properties --------------------------------------------------------

    @property
    def knowledge(self) -> DeploymentKnowledge:
        """The deployment knowledge claims are verified against."""
        return self._knowledge

    @property
    def localizer(self) -> Optional[LocalizationScheme]:
        """The localization scheme for location-less claims (may be ``None``)."""
        return self._localizer

    @property
    def metrics(self) -> List[str]:
        """Names of the metrics with trained thresholds."""
        return sorted(self._thresholds)

    @property
    def default_metric(self) -> str:
        """Metric used by claims that don't name one."""
        return self._default_metric

    @property
    def false_positive_rate(self) -> float:
        """The false-positive budget the thresholds were trained at."""
        return self._false_positive_rate

    @property
    def n_groups(self) -> int:
        """Length every claim observation must have."""
        return int(self._knowledge.n_groups)

    def threshold(self, metric: Union[str, AnomalyMetric]) -> float:
        """The trained threshold of one metric."""
        name = resolve_metric(metric).name
        if name not in self._thresholds:
            raise KeyError(
                f"no trained threshold for metric {name!r} "
                f"(have: {sorted(self._thresholds)})"
            )
        return self._thresholds[name]

    # -- claim validation --------------------------------------------------

    def validate(self, claim: LocationClaim) -> str:
        """Raise :class:`ClaimError` when *claim* cannot be served.

        Checked at admission (before a claim occupies queue space) so a
        bad claim is rejected immediately and can never poison the
        micro-batch it would have joined.  Returns the canonical name of
        the metric the claim is scored with.
        """
        if claim.observation.shape[0] != self.n_groups:
            raise ClaimError(
                f"claim observation has {claim.observation.shape[0]} "
                f"group(s); this deployment has {self.n_groups}"
            )
        metric = claim.metric or self._default_metric
        name = resolve_metric(metric).name
        if name not in self._thresholds:
            raise ClaimError(
                f"no trained threshold for metric {metric!r} "
                f"(have: {sorted(self._thresholds)})"
            )
        if claim.needs_localization and not self._can_localize():
            raise ClaimError(
                "claim has no claimed_location and this service cannot "
                "localize observations (needs the beaconless scheme; "
                f"localizer is {self._localizer!r})"
            )
        return name

    def _can_localize(self) -> bool:
        return isinstance(self._localizer, BeaconlessLocalizer)

    # -- verification ------------------------------------------------------

    def verify_batch(
        self, claims: Sequence[LocationClaim]
    ) -> List[Verdict]:
        """Verify a micro-batch of claims in one vectorised pass.

        Location-less claims are localized together in one
        :meth:`localize_observations` call, and each metric scores its rows
        with one :meth:`AnomalyMetric.score` call (one
        :meth:`expected_observation` plus one vectorised ``compute``).
        Every kernel is row-elementwise, so verdicts are bit-identical
        whether a claim is verified alone or inside any batch.

        Claims carrying non-finite values (``NaN``/``inf`` in the
        observation or the claimed location) get a per-claim *error*
        verdict — ``decision == "error"``, treated as anomalous — instead
        of poisoning the batch matmul: one bad claim never perturbs its
        batch-mates' scores.
        """
        claims = list(claims)
        if not claims:
            return []
        names = [self.validate(claim) for claim in claims]

        verdicts: List[Optional[Verdict]] = [None] * len(claims)
        ok_rows: List[int] = []
        for row, claim in enumerate(claims):
            message = None
            if not np.isfinite(claim.observation).all():
                message = "claim observation contains non-finite values"
            elif claim.claimed_location is not None and not np.isfinite(
                claim.claimed_location
            ).all():
                message = "claimed location contains non-finite coordinates"
            if message is None:
                ok_rows.append(row)
                continue
            verdicts[row] = Verdict(
                score=float("nan"),
                threshold=self._thresholds[names[row]],
                anomalous=True,
                metric=names[row],
                false_positive_rate=self._false_positive_rate,
                claim_id=claim.claim_id,
                error=message,
            )
        if not ok_rows:
            return verdicts  # type: ignore[return-value]

        observations = np.stack([claims[row].observation for row in ok_rows])
        locations = np.empty((len(ok_rows), 2), dtype=np.float64)
        localize_positions = [
            pos
            for pos, row in enumerate(ok_rows)
            if claims[row].needs_localization
        ]
        for pos, row in enumerate(ok_rows):
            if claims[row].claimed_location is not None:
                locations[pos] = claims[row].claimed_location
        if localize_positions:
            estimates = self._localizer.localize_observations(
                self._knowledge, observations[localize_positions]
            )
            locations[localize_positions] = estimates

        # Group rows by metric so each metric scores its rows in one call;
        # scoring is row-elementwise, so grouping cannot change any score.
        by_metric: Dict[str, List[int]] = {}
        for pos, row in enumerate(ok_rows):
            by_metric.setdefault(names[row], []).append(pos)

        for name, positions in by_metric.items():
            rows = [ok_rows[pos] for pos in positions]
            scores = resolve_metric(name).score(
                self._knowledge, locations[positions], observations[positions]
            )
            grouped = verdicts_from_scores(
                scores,
                threshold=self._thresholds[name],
                metric=name,
                false_positive_rate=self._false_positive_rate,
                claim_ids=[claims[row].claim_id for row in rows],
            )
            for row, verdict in zip(rows, grouped):
                verdicts[row] = verdict
        return verdicts  # type: ignore[return-value]

    def verify(self, claim: LocationClaim) -> Verdict:
        """Verify one claim (a batch of one) and record its latency."""
        start = time.perf_counter()
        verdict = self.verify_batch([claim])[0]
        return verdict.with_latency((time.perf_counter() - start) * 1000.0)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DetectionService(metrics={self.metrics}, "
            f"fp={self._false_positive_rate:g}, "
            f"n_groups={self.n_groups})"
        )
