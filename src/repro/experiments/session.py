"""The LAD evaluation session — cached state behind the scenario API.

:class:`LadSession` wires together the whole pipeline of the paper's
evaluation (Section 7):

* deploy sensor networks from the configured deployment model;
* collect benign training data and derive metric thresholds (Section 5.5);
* sample victim nodes, simulate D-anomaly attacks plus the greedy
  observation-tainting adversary (Sections 6, 7.1);
* report ROC curves and detection rates at a fixed false-positive budget.

The pipeline is batched end to end.  Victim observations are collected by
the one-pass :meth:`NeighborIndex.observations_of_nodes` kernel and benign
training locations come from the vectorised
:meth:`BeaconlessLocalizer.localize_observations` engine, so neither pays a
Python-level loop per sample.  Everything expensive is cached per session
instance: the ``g(z)`` table, the evaluation networks, the victims' honest
observations, the benign training scores per metric.

Two kinds of reuse stack on top of the in-memory caches:

* **sweeps** — :meth:`LadSession.sweep` hands the cached state to a
  :class:`~repro.experiments.sweep.SweepRunner`, which fans the
  per-combination scoring across worker processes while every combination
  keeps its name-derived random stream (a parallel sweep reproduces the
  serial one exactly).  The per-point methods (:meth:`attacked_scores`,
  :meth:`roc`, :meth:`outcome`) are one-point reads of that runner, so a
  point is attacked, scored and keyed one way only;
* **persistence** — when constructed with a
  :class:`~repro.experiments.store.ArtifactStore` (or ``--cache-dir`` on
  the CLI), trained benign scores and victim samples are keyed by a
  content hash of the training-relevant configuration and re-loaded from
  disk, so repeated and resumed sweeps skip the training pass entirely;
  the sweep's store loop also persists attacked scores *per sweep point*
  (keyed by :meth:`attacked_fingerprint`), so an interrupted sweep resumed
  with the same cache directory recomputes only the points that never
  finished.

A :class:`~repro.experiments.sweep.SweepPoint` keeps component *names*, so
every metric and attack class the session is given resolves to its
registered name first; an instance that is not the component registered
under its name raises ``ValueError`` (register it to evaluate it).

Sessions are usually built from a declarative
:class:`~repro.experiments.scenario.ScenarioSpec`.  Beacon-based
localization schemes are first-class: the session deploys the config's
:class:`~repro.localization.beacons.BeaconSpec` (spec defaults when none is
configured) from a name-derived random stream and threads the resulting
:class:`~repro.localization.base.BeaconInfrastructure` through threshold
training, and the artifact keys carry the localizer identity plus the
beacon fingerprint so warm caches never alias across schemes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.attacks.constraints import ATTACKS, AttackClass, resolve_attack_class
from repro.core.evaluation import DetectionOutcome
from repro.core.metrics import METRICS, AnomalyMetric, resolve_metric
from repro.core.roc import RocCurve
from repro.backend import ArrayBackend, BackendSpec
from repro.core.training import TrainingData, benign_scores, collect_training_data
from repro.deployment.distributions import GaussianResidentDistribution
from repro.deployment.knowledge import DeploymentKnowledge
from repro.deployment.models import GridDeploymentModel
from repro.experiments.config import SimulationConfig
from repro.experiments.store import ArtifactStore, fingerprint_key
from repro.experiments.sweep import SweepPoint, SweepRunner
from repro.localization.apit import ApitLocalizer
from repro.localization.base import (
    LOCALIZERS,
    BeaconInfrastructure,
    LocalizationScheme,
)
from repro.localization.beaconless import BeaconlessLocalizer
from repro.localization.beacons import BeaconSpec
from repro.network.generator import NetworkGenerator
from repro.network.neighbors import NeighborIndex
from repro.network.radio import UnitDiskRadio
from repro.types import Region
from repro.utils.logging import get_logger
from repro.utils.rng import RandomState

__all__ = ["LadSession"]

_LOGGER = get_logger("experiments.session")


@dataclass
class _VictimSample:
    """Cached honest observations of the evaluation victims."""

    observations: np.ndarray
    actual_locations: np.ndarray


class LadSession:
    """End-to-end LAD evaluation for one :class:`SimulationConfig`.

    Parameters
    ----------
    config:
        The simulation configuration (paper defaults when omitted).
    localizer:
        Localization scheme used for threshold training: a registered name
        (``repro.localization.available()``) or a configured
        :class:`~repro.localization.base.LocalizationScheme` instance.
        Defaults to the paper's beaconless MLE scheme at the config's
        resolution.  Beacon-based schemes (``centroid``, ``mmse``,
        ``dvhop``, ``apit``) get a :class:`BeaconInfrastructure` deployed
        from the config's :class:`~repro.localization.beacons.BeaconSpec`
        (spec defaults when the config carries none); the beacon layout is
        drawn from a name-derived random stream, so parallel and serial
        sweeps place the same beacons.
    store:
        Optional :class:`~repro.experiments.store.ArtifactStore` (or a
        cache-directory path) persisting trained benign scores, victim
        samples and per-point attacked scores across sessions.

    Examples
    --------
    >>> session = LadSession(SimulationConfig(num_training_samples=50,
    ...                                       num_victims=50))
    >>> outcome = session.outcome("diff", "dec_bounded",
    ...                           degree_of_damage=160,
    ...                           compromised_fraction=0.1,
    ...                           false_positive_rate=0.01)
    >>> outcome.detection_rate, outcome.threshold  # doctest: +SKIP
    (0.94, 27.0)
    """

    def __init__(
        self,
        config: Optional[SimulationConfig] = None,
        *,
        localizer: Union[str, LocalizationScheme] = "beaconless",
        store: Union[ArtifactStore, str, None] = None,
    ):
        self.config = config or SimulationConfig()
        self._random = RandomState(self.config.seed)

        region = Region(0.0, 0.0, self.config.region_size, self.config.region_size)
        self._model = GridDeploymentModel(
            region=region,
            rows=self.config.grid_rows,
            cols=self.config.grid_cols,
            distribution=GaussianResidentDistribution(self.config.sigma),
        )
        self._generator = NetworkGenerator(
            model=self._model,
            group_size=self.config.group_size,
            radio=UnitDiskRadio(self.config.radio_range),
        )
        # The session owns one backend instance for everything it computes:
        # the likelihood kernels of its deployment knowledge, the
        # localizer's vectorised kernels, and the training pass.
        self._backend_spec = self.config.backend or BackendSpec()
        self._backend = self._backend_spec.build()
        self._localizer = self._resolve_localizer(localizer)
        if self._localizer.backend is None:
            self._localizer.with_backend(self._backend)
        # Beacon-based schemes always get an infrastructure: the config's
        # spec when present, the BeaconSpec defaults otherwise.
        beacon_spec = self.config.beacons
        if beacon_spec is None and self._localizer.requires_beacons:
            beacon_spec = BeaconSpec()
        self._beacon_spec: Optional[BeaconSpec] = beacon_spec
        if store is not None and not isinstance(store, ArtifactStore):
            store = ArtifactStore(store)
        self._store: Optional[ArtifactStore] = store

        # Lazy caches.
        self._knowledge: Optional[DeploymentKnowledge] = None
        self._beacons: Optional[BeaconInfrastructure] = None
        self._training: Optional[TrainingData] = None
        self._benign_scores: Dict[str, np.ndarray] = {}
        self._victims: Optional[_VictimSample] = None

    def _resolve_localizer(
        self, localizer: Union[str, LocalizationScheme]
    ) -> LocalizationScheme:
        if isinstance(localizer, str):
            cls = LOCALIZERS.get(localizer)
            if issubclass(cls, BeaconlessLocalizer):
                return cls(resolution=self.config.localization_resolution)
            if issubclass(cls, ApitLocalizer):
                # APIT rasterises the deployment region; match the config's.
                return cls(region=self._model.region)
            return cls()
        return localizer

    # -- cached building blocks ------------------------------------------------

    @property
    def generator(self) -> NetworkGenerator:
        """The network generator used by this session."""
        return self._generator

    @property
    def localizer(self) -> LocalizationScheme:
        """The localization scheme used for threshold training."""
        return self._localizer

    @property
    def store(self) -> Optional[ArtifactStore]:
        """The artifact store persisting trained state (``None`` = off)."""
        return self._store

    @property
    def backend(self) -> ArrayBackend:
        """The array backend owned by this session (never ``None``)."""
        return self._backend

    @property
    def backend_spec(self) -> BackendSpec:
        """The backend spec in effect (the numpy default when unset)."""
        return self._backend_spec

    @property
    def knowledge(self) -> DeploymentKnowledge:
        """The (cached) deployment knowledge, including the ``g(z)`` table."""
        if self._knowledge is None:
            self._knowledge = self._generator.knowledge(
                omega=self.config.gz_omega,
                backend=self._backend,
            )
        return self._knowledge

    @property
    def beacon_spec(self) -> Optional[BeaconSpec]:
        """The beacon spec in effect (``None`` = no beacons deployed)."""
        return self._beacon_spec

    @property
    def beacons(self) -> Optional[BeaconInfrastructure]:
        """The (cached) beacon infrastructure, or ``None`` without a spec.

        Placement randomness (the ``random`` layout) comes from a stream
        named after the beacon seed, so the infrastructure depends only on
        ``(config seed, beacon spec)`` — never on call order or on which
        process builds it.
        """
        if self._beacon_spec is None:
            return None
        if self._beacons is None:
            rng = self._random.stream(f"beacons/{self._beacon_spec.seed}")
            self._beacons = self._beacon_spec.build(self._model.region, rng=rng)
        return self._beacons

    # -- artifact fingerprints -------------------------------------------------

    def _deployment_fingerprint(self) -> Dict[str, object]:
        """Config fields that shape the deployed networks and the seed."""
        c = self.config
        return {
            "version": 1,
            "region_size": c.region_size,
            "grid_rows": c.grid_rows,
            "grid_cols": c.grid_cols,
            "sigma": c.sigma,
            "group_size": c.group_size,
            "radio_range": c.radio_range,
            "seed": c.seed,
        }

    def _backend_fingerprint(self) -> Optional[Dict[str, object]]:
        """The backend's contribution to artifact keys.

        ``None`` for numpy-exact backends: their scores are bit-identical
        to the historical default, so they must alias to its keys (a cache
        written before the backend layer existed — or by any numpy-exact
        backend — keeps hitting).  Backends whose results can differ at
        the bit level (torch, float32, CUDA) carry their identity instead.
        """
        return self._backend.fingerprint()

    def _beacon_fingerprint(self) -> Optional[Dict[str, object]]:
        """The beacon spec's contribution to artifact keys.

        ``None`` whenever the localizer is not beacon-based: a beaconless
        session ignores any configured beacons, so two such sessions with
        different ``[beacons]`` tables legitimately share artifacts.
        """
        if not self._localizer.requires_beacons or self._beacon_spec is None:
            return None
        # Modality-aware: only the fields the localizer's modality consumes
        # reach the keys, so e.g. re-tuning the RSSI radio model never
        # invalidates a DV-Hop artifact (and legacy keys stay valid).
        return dict(self._beacon_spec.fingerprint(self._localizer))

    def training_fingerprint(self) -> Dict[str, object]:
        """Everything the trained benign scores depend on.

        Victim-sampling fields are deliberately excluded: two specs that
        differ only in their victim counts share the same trained state.
        The localizer identity and — for beacon-based schemes — the beacon
        fingerprint (layout, count, noise, range, seed) are included, so
        warm caches never alias across localizers or beacon layouts.  The
        backend identity is included only when the backend is not
        numpy-exact (see :meth:`_backend_fingerprint`): the default and
        every bit-exact backend keep the historical keys, so pre-refactor
        warm caches stay warm.
        """
        c = self.config
        fingerprint = self._deployment_fingerprint()
        fingerprint.update(
            {
                "num_training_samples": c.num_training_samples,
                "training_samples_per_network": c.training_samples_per_network,
                "gz_omega": c.gz_omega,
                "localizer": repr(self._localizer),
            }
        )
        beacons = self._beacon_fingerprint()
        if beacons is not None:
            fingerprint["beacons"] = beacons
        backend = self._backend_fingerprint()
        if backend is not None:
            fingerprint["backend"] = backend
        if c.gz_omega != 1000:
            # Scores trained before training shared the session's g(z)
            # table were localized under the ω = 1000 default.  Marking the
            # other resolutions retires those keys, while ω = 1000 keys
            # (whose values are unchanged) stay warm.
            fingerprint["training_knowledge"] = "session"
        return fingerprint

    def victims_fingerprint(self) -> Dict[str, object]:
        """Everything the victims' honest observations depend on."""
        c = self.config
        fingerprint = self._deployment_fingerprint()
        fingerprint.update(
            {
                "num_victims": c.num_victims,
                "victims_per_network": c.victims_per_network,
            }
        )
        return fingerprint

    @staticmethod
    def _impl_identity(component) -> str:
        """Implementation identity of a pluggable component.

        Cached artifacts must not survive a re-registered or customised
        implementation under the same canonical name, so keys carry the
        class path and ``repr`` alongside the name.
        """
        return (
            f"{type(component).__module__}.{type(component).__qualname__}"
            f":{component!r}"
        )

    def attacked_fingerprint(self, point: SweepPoint) -> Dict[str, object]:
        """Everything one sweep point's attacked scores depend on.

        Builds on :meth:`victims_fingerprint` (the honest observations)
        plus the ``g(z)`` table resolution, the metric and attack-class
        identities and the attack parameters.  The localizer identity and
        the beacon fingerprint ride along too, so a sweep point scored
        under one localization scheme is never served to another — warm
        caches cannot alias across schemes.  The per-point random stream
        (:meth:`SweepPoint.stream_name`) is derived from the seed (already
        fingerprinted) and the same registered names, so two runs with
        equal fingerprints produce bit-identical scores regardless of which
        other points ran alongside them.
        """
        metric = resolve_metric(point.metric)
        attack = resolve_attack_class(point.attack)
        fingerprint = self.victims_fingerprint()
        fingerprint.update(
            {
                "gz_omega": self.config.gz_omega,
                "metric": metric.name,
                "metric_impl": self._impl_identity(metric),
                "attack": attack.name,
                "attack_impl": self._impl_identity(attack),
                "degree_of_damage": float(point.degree_of_damage),
                "compromised_fraction": float(point.compromised_fraction),
                "localizer": repr(self._localizer),
                "beacons": self._beacon_fingerprint(),
            }
        )
        backend = self._backend_fingerprint()
        if backend is not None:
            fingerprint["backend"] = backend
        return fingerprint

    def temporal_fingerprint(self, point: SweepPoint, timeline) -> Dict[str, object]:
        """Everything one point's temporal epoch record depends on.

        The attacked fingerprint (victims, metric/attack identities,
        parameters, localizer, beacons, backend) plus the *entire*
        timeline table via
        :meth:`~repro.events.timeline.TimelineSpec.fingerprint` — any
        change to the epoch grid or any event's schedule or effect
        parameters keys a fresh artifact.  The false-positive budget is
        deliberately excluded: the stored record is the raw per-epoch
        score matrix, and thresholds are applied at load time.
        """
        fingerprint = self.attacked_fingerprint(point)
        fingerprint["temporal_version"] = 1
        fingerprint["timeline"] = timeline.fingerprint()
        return fingerprint

    @classmethod
    def _registered(cls, registry, component) -> str:
        """*component* as a name: names pass, an instance gives its own.

        A :class:`SweepPoint` keeps names only, so an instance must be
        interchangeable with the one *registry* builds under its name —
        same class and ``repr``, hence the same artifact keys — or it
        would silently be evaluated as that registered component instead.
        """
        if isinstance(component, str):
            return component
        stock = registry.resolve(component.name)
        if cls._impl_identity(component) != cls._impl_identity(stock):
            raise ValueError(
                f"{component!r} is not the component registered as "
                f"{stock.name!r} ({stock!r}); register it under its own "
                "name to evaluate it"
            )
        return stock.name

    def _point(
        self,
        metric: Union[str, AnomalyMetric],
        attack_class: Union[str, AttackClass],
        degree_of_damage: float,
        compromised_fraction: float,
    ) -> SweepPoint:
        """The sweep point of one combination, under registered names."""
        (point,) = SweepRunner.grid(
            [self._registered(METRICS, metric)],
            [self._registered(ATTACKS, attack_class)],
            [degree_of_damage],
            [compromised_fraction],
        )
        return point

    @property
    def training_data(self) -> TrainingData:
        """Benign training samples (cached; Section 5.5 step 1)."""
        if self._training is None:
            _LOGGER.info(
                "collecting %d benign training samples (m=%d)",
                self.config.num_training_samples,
                self.config.group_size,
            )
            beacons = (
                self.beacons if self._localizer.requires_beacons else None
            )
            self._training = collect_training_data(
                self._generator,
                num_samples=self.config.num_training_samples,
                samples_per_network=self.config.training_samples_per_network,
                localizer=self._localizer,
                beacons=beacons,
                beacon_noise_std=(
                    self._beacon_spec.noise_std if beacons is not None else 0.0
                ),
                rng=self._random.stream("training"),
                knowledge=self.knowledge,
            )
        return self._training

    def benign_scores_key(self, metric: Union[str, AnomalyMetric]) -> str:
        """Artifact-store key of one metric's trained benign scores.

        The training fingerprint plus the metric name and implementation
        identity: a re-registered or customised metric under the same name
        must not hit the scores the stock implementation produced.  The
        serving layer probes this key to decide whether a store is warm
        enough to start without a training pass.
        """
        metric = resolve_metric(self._registered(METRICS, metric))
        fingerprint = self.training_fingerprint()
        fingerprint["metric"] = metric.name
        fingerprint["metric_impl"] = self._impl_identity(metric)
        return fingerprint_key(fingerprint)

    def benign_scores(self, metric: Union[str, AnomalyMetric]) -> np.ndarray:
        """Benign metric scores used for threshold training.

        Cached per metric in memory and — when a store is attached —
        persisted under the training fingerprint, so a warm cache serves
        the scores without ever collecting training data.  Only registered
        metrics reach either cache (see :meth:`_registered`), so the name
        is a sound in-memory key.
        """
        metric = resolve_metric(self._registered(METRICS, metric))
        if metric.name not in self._benign_scores:
            key = None
            if self._store is not None:
                key = self.benign_scores_key(metric)
                cached = self._store.load("benign_scores", key)
                if cached is not None:
                    self._benign_scores[metric.name] = cached["scores"]
                    return self._benign_scores[metric.name]
            scores = benign_scores(self.training_data, self.knowledge, metric)
            self._benign_scores[metric.name] = scores
            if self._store is not None and key is not None:
                self._store.save("benign_scores", key, scores=scores)
        return self._benign_scores[metric.name]

    def victims(self) -> _VictimSample:
        """Honest observations and locations of the evaluation victims.

        Cached in memory and — when a store is attached — persisted under
        the victim fingerprint, so a warm cache skips network generation
        and neighbour discovery for the evaluation victims too.
        """
        if self._victims is None:
            key = None
            if self._store is not None:
                key = fingerprint_key(self.victims_fingerprint())
                cached = self._store.load("victims", key)
                if cached is not None:
                    self._victims = _VictimSample(
                        observations=cached["observations"],
                        actual_locations=cached["locations"],
                    )
                    return self._victims
            observations: List[np.ndarray] = []
            locations: List[np.ndarray] = []
            for network, nodes in self._generator.sample_nodes(
                self._random.stream("victims"),
                self.config.num_victims,
                self.config.victims_per_network,
            ):
                observations.append(NeighborIndex(network).observations_of_nodes(nodes))
                locations.append(network.positions[nodes])
            self._victims = _VictimSample(
                observations=np.vstack(observations),
                actual_locations=np.vstack(locations),
            )
            if self._store is not None and key is not None:
                self._store.save(
                    "victims",
                    key,
                    observations=self._victims.observations,
                    locations=self._victims.actual_locations,
                )
        return self._victims

    # -- evaluation entry points -------------------------------------------------

    def attacked_scores(
        self,
        metric: Union[str, AnomalyMetric],
        attack_class: Union[str, AttackClass],
        *,
        degree_of_damage: float,
        compromised_fraction: float,
    ) -> np.ndarray:
        """Attacked anomaly scores for one parameter combination.

        A one-point read of :meth:`sweep`: the scores come from (and, when
        a store is attached, persist under) the sweep's per-point store
        loop, so a resumed sweep recomputes only the points that never
        finished — bit-identical to a cold run, because every point's
        random stream is derived from the seed and the registered names.
        """
        point = self._point(
            metric, attack_class, degree_of_damage, compromised_fraction
        )
        return self.sweep().attacked_scores([point])[point]

    def attacked_claims(
        self,
        metric: Union[str, AnomalyMetric],
        attack_class: Union[str, AttackClass],
        *,
        degree_of_damage: float,
        compromised_fraction: float,
    ) -> list:
        """The victims' attacked claims for the serving path.

        One :class:`~repro.serving.LocationClaim` per evaluation victim:
        the tainted observation plus the spoofed claimed location the
        compromised node would submit.  Drawn from the *same* point and
        random stream as :meth:`attacked_scores`, so a
        :class:`~repro.serving.DetectionService` built from this session
        scores these claims bit-identically to the offline attacked
        scores — ``lad-repro demo`` and the serving equivalence tests
        rely on this.
        """
        from repro.core.evaluation import attack_observations
        from repro.serving.claims import LocationClaim

        point = self._point(
            metric, attack_class, degree_of_damage, compromised_fraction
        )
        sample = self.victims()
        tainted, spoofed, _ = attack_observations(
            self.knowledge,
            sample.observations,
            sample.actual_locations,
            metric=point.metric,
            attack_class=point.attack,
            degree_of_damage=point.degree_of_damage,
            compromised_fraction=point.compromised_fraction,
            rng=self._random.stream(point.stream_name()),
            localizer=self._localizer,
        )
        return [
            LocationClaim(
                observation=tainted[i],
                claimed_location=spoofed[i],
                claim_id=f"victim-{i}",
                metric=point.metric,
            )
            for i in range(tainted.shape[0])
        ]

    def roc(
        self,
        metric: Union[str, AnomalyMetric],
        attack_class: Union[str, AttackClass],
        *,
        degree_of_damage: float,
        compromised_fraction: float,
        num_thresholds: Optional[int] = None,
    ) -> RocCurve:
        """ROC curve for one parameter combination (Figures 4–6)."""
        point = self._point(
            metric, attack_class, degree_of_damage, compromised_fraction
        )
        return self.sweep().rocs([point], num_thresholds=num_thresholds)[point]

    def threshold(
        self,
        metric: Union[str, AnomalyMetric],
        *,
        false_positive_rate: float = 0.01,
    ) -> float:
        """The trained detection threshold at a false-positive budget.

        This is the exact threshold every evaluation path applies — the
        tightest value whose benign false-positive rate does not exceed
        the budget (Section 5.5) — and the one a
        :class:`~repro.serving.DetectionService` built from this session
        serves claims against.
        """
        from repro.core.thresholds import derive_threshold

        return derive_threshold(
            self.benign_scores(metric), 1.0 - false_positive_rate
        )

    def outcome(
        self,
        metric: Union[str, AnomalyMetric],
        attack_class: Union[str, AttackClass],
        *,
        degree_of_damage: float,
        compromised_fraction: float,
        false_positive_rate: float = 0.01,
    ) -> DetectionOutcome:
        """Full :class:`~repro.core.evaluation.DetectionOutcome` for one combination.

        The outcome carries the operating point (detection rate, trained
        threshold, false-positive budget), the score samples, a lazily
        computed ROC curve, and per-victim
        :class:`~repro.core.verdict.Verdict` objects via
        :meth:`DetectionOutcome.verdicts` — the same per-decision type the
        streaming service emits.
        """
        point = self._point(
            metric, attack_class, degree_of_damage, compromised_fraction
        )
        return self.sweep().detection_rates(
            [point], false_positive_rate=false_positive_rate
        )[point]

    def service(
        self,
        *,
        metrics: Sequence[Union[str, AnomalyMetric]] = ("diff",),
        false_positive_rate: float = 0.01,
        require_warm: bool = False,
    ):
        """A :class:`~repro.serving.DetectionService` over this session's state.

        Trains (or loads from the artifact store) one threshold per metric
        and hands the knowledge, localizer and beacon infrastructure to the
        streaming verifier.  With ``require_warm=True`` the session must
        have a store already holding every needed artifact — startup then
        performs zero training (see
        :meth:`~repro.serving.DetectionService.from_session`).
        """
        from repro.serving import DetectionService

        return DetectionService.from_session(
            self,
            metrics=metrics,
            false_positive_rate=false_positive_rate,
            require_warm=require_warm,
        )

    def sweep(self, *, workers: int = 0) -> SweepRunner:
        """A :class:`~repro.experiments.sweep.SweepRunner` over this session.

        Parameters
        ----------
        workers:
            Worker processes for the per-combination scoring; ``0``/``1``
            runs serially with identical results.
        """
        return SweepRunner(self, workers=workers)

    def temporal(self, timeline=None, *, workers: int = 0):
        """A :class:`~repro.events.temporal.TemporalRunner` over this session.

        Parameters
        ----------
        timeline:
            The :class:`~repro.events.timeline.TimelineSpec` to run every
            point through.  ``None`` means the trivial single-epoch
            timeline — the temporal engine then reproduces the static
            attacked scores bit for bit.
        workers:
            Worker processes for the per-point simulation; ``0``/``1``
            runs serially with identical results.
        """
        from repro.events.temporal import TemporalRunner

        return TemporalRunner(self, timeline, workers=workers)

    def benign_localization_error(self) -> float:
        """Mean benign localization error of the training samples (metres)."""
        return float(self.training_data.localization_errors().mean())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(m={self.config.group_size}, "
            f"R={self.config.radio_range:g})"
        )
