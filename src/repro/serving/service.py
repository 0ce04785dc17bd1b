"""The streaming detection service core — columnar claim verification.

:class:`DetectionService` is the online form of the LAD detector: it holds
a trained session's state (deployment knowledge with its ``g(z)`` table,
the localization scheme, one trained threshold per metric, the array
backend) and verifies micro-batches of
:class:`~repro.serving.claims.LocationClaim` requests as arrays:

1. the batch is stacked once — observations and claimed locations become
   two matrices — and the finite checks run as row reductions over them;
   only the rows that fail get an error verdict;
2. claims without a claimed location are localized together, in one
   :meth:`BeaconlessLocalizer.localize_observations` call;
3. the rows are grouped by metric in one pass, and each group is scored
   with one :meth:`AnomalyMetric.score` call — the expected observations
   ``µ`` at the group's locations, then the same vectorised ``compute``
   kernel the offline evaluation uses — and turned into verdicts under the
   session-trained threshold by one
   :func:`~repro.core.verdict.verdicts_from_scores` call.

A claim's metric resolves through a spelling → canonical-name dict built
at construction from the registry names and aliases of the thresholded
metrics, so per-claim validation costs a dict lookup.

Scoring is row-elementwise, so the verdict of a claim that carries its
location never depends on which other claims shared its micro-batch — the
service is bit-identical to offline
:class:`~repro.experiments.session.LadSession` scoring by construction,
which the serving test-suite asserts across all registered localizers.
Claims without a location are localized together: their coarse lattice
scores come from one matrix product over the batch, whose rounding can
depend on the batch's composition (differences of order ``1e-11`` have
been measured).  Such a claim's verdict is therefore the score at its
batch's :meth:`~repro.localization.beaconless.BeaconlessLocalizer.localize_observations`
estimate; it matches the verdict the claim gets alone unless two
candidate locations score within that rounding.

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

from repro.core.metrics import METRICS, AnomalyMetric, resolve_metric
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

#: Stand-in location of a claim without one, until it is localized.
_NOWHERE = np.zeros(2)


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
        self._can_localize = isinstance(localizer, BeaconlessLocalizer)
        self._n_groups = int(knowledge.n_groups)
        # The metric each micro-batch group of that name scores through.
        self._scorers = {name: resolve_metric(name) for name in self._thresholds}
        # Every registered spelling of a thresholded metric (canonical
        # names and aliases) -> its canonical name.  Only read after this:
        # other spellings take the registry path uncached, so a stream of
        # distinct metric strings cannot grow it.
        classes = {type(metric): name for name, metric in self._scorers.items()}
        self._spellings = {name: name for name in self._thresholds}
        for spelling in (*METRICS.available(), *METRICS.aliases()):
            name = classes.get(METRICS.get(spelling))
            if name is not None:
                self._spellings[spelling] = name

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
        return self._n_groups

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
        the metric the claim is scored with: a registered spelling is one
        dict lookup, any other goes through the metric registry.
        """
        if claim.observation.shape[0] != self._n_groups:
            raise ClaimError(
                f"claim observation has {claim.observation.shape[0]} "
                f"group(s); this deployment has {self._n_groups}"
            )
        metric = claim.metric or self._default_metric
        name = self._spellings.get(metric)
        if name is None:
            try:
                name = resolve_metric(metric).name
            except ValueError as error:
                raise ClaimError(str(error)) from None
            if name not in self._thresholds:
                raise ClaimError(
                    f"no trained threshold for metric {metric!r} "
                    f"(have: {sorted(self._thresholds)})"
                )
        if claim.needs_localization and not self._can_localize:
            raise ClaimError(
                "claim has no claimed_location and this service cannot "
                "localize observations (needs the beaconless scheme; "
                f"localizer is {self._localizer!r})"
            )
        return name

    # -- verification ------------------------------------------------------

    def verify_batch(
        self, claims: Sequence[LocationClaim]
    ) -> List[Verdict]:
        """Verify a micro-batch of claims as arrays.

        The batch is stacked once into an observation matrix and a
        location matrix, and the finite checks are row reductions over
        them.  Location-less claims are localized together in one
        :meth:`localize_observations` call.  The rows are grouped by metric
        in one pass, and each group is scored with one
        :meth:`AnomalyMetric.score` call (one :meth:`expected_observation`
        plus one vectorised ``compute``) and turned into verdicts by one
        :func:`verdicts_from_scores` call.  Scoring is row-elementwise, so
        the verdict of a claim carrying its location is bit-identical
        whether it is verified alone or inside any batch.  A location-less
        claim's verdict is :meth:`AnomalyMetric.score` at the estimate
        :meth:`localize_observations` gives on this batch; the coarse
        localization level scores the batch in one matrix product whose
        rounding can depend on the batch, so the estimate — and with it
        the verdict — equals the claim's solo one unless two candidate
        locations tie within that rounding.

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
        claimed = [claim.claimed_location for claim in claims]
        unlocated = [row for row, location in enumerate(claimed) if location is None]
        for row in unlocated:
            claimed[row] = _NOWHERE
        observations = np.array([claim.observation for claim in claims])
        locations = np.array(claimed)
        bad_observation = ~np.isfinite(observations).all(axis=1)
        bad = bad_observation | ~np.isfinite(locations).all(axis=1)
        failed = set(np.flatnonzero(bad).tolist())

        verdicts: List[Optional[Verdict]] = [None] * len(claims)
        for row in failed:
            verdicts[row] = Verdict(
                score=float("nan"),
                threshold=self._thresholds[names[row]],
                anomalous=True,
                metric=names[row],
                false_positive_rate=self._false_positive_rate,
                claim_id=claims[row].claim_id,
                error=(
                    "claim observation contains non-finite values"
                    if bad_observation[row]
                    else "claimed location contains non-finite coordinates"
                ),
            )

        pending = [row for row in unlocated if row not in failed]
        if pending:
            locations[pending] = self._localizer.localize_observations(
                self._knowledge, observations[pending]
            )

        # Group rows by metric so each metric scores its rows in one call;
        # scoring is row-elementwise, so grouping cannot change any score.
        groups: Dict[str, List[int]] = {}
        for row, name in enumerate(names):
            if row not in failed:
                groups.setdefault(name, []).append(row)
        for name, rows in groups.items():
            scores = self._scorers[name].score(
                self._knowledge, locations[rows], observations[rows]
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
            f"n_groups={self._n_groups})"
        )
