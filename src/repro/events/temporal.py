"""Epoch-stepped temporal evaluation — the second engine beside the sweep.

The static evaluation asks "given this snapshot, is the attack detected?".
The temporal engine asks the *online* question: a live network evolves —
nodes move, churn in and out, beacons degrade, an attack switches on mid
run — and the deployed detector re-scores every victim's location claim
once per epoch.  The new metric family falls out of the per-epoch record:

* **detection latency** — epochs until any attacked victim is flagged;
* **time to first false positive** — epochs until a benign victim is
  flagged;
* **detection-rate drift** — how the detection rate decays as deployment
  knowledge goes stale while the network keeps moving.

The implementation deliberately reuses the batch kernels: each epoch
rebuilds the victims' observations with the one-pass
:meth:`~repro.network.neighbors.NeighborIndex.observations_of_nodes`
kernel and scores the whole victim batch with one
:meth:`~repro.core.metrics.AnomalyMetric.compute` call per path, so an
``E``-epoch run costs ``E`` amortised batch passes, not ``E * V`` Python
loops.

Determinism contract (the same one the sweep honours):

* :class:`TemporalWorld` rebuilds the evaluation networks by replaying the
  session's ``"victims"`` stream, so epoch 0 of an un-evented timeline
  sees *bit-for-bit* the observations of :meth:`LadSession.victims`;
* every firing's effect draws from its own name-derived stream
  (``timeline/{source}/fire/{ordinal}``) and the per-epoch attack scoring
  re-derives the sweep point's stream (:meth:`SweepPoint.stream_name`)
  every epoch, and serial and pooled runs call the same per-point function
  on the same state dict (the fan-out contract of
  :func:`~repro.experiments.sweep.fan_out`), so they are identical by
  construction;
* cold results are persisted per point under
  :meth:`LadSession.temporal_fingerprint` (the attacked fingerprint plus
  the timeline fingerprint) by the sweep's store loop, so interrupted
  temporal sweeps resume without recomputing finished points.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.core.evaluation import attacked_scores_from_observations
from repro.core.metrics import resolve_metric
from repro.core.verdict import Verdict, verdicts_from_scores
from repro.events.engine import EventEngine
from repro.events.timeline import TimelineSpec
from repro.experiments.sweep import CachedGrid, SweepPoint
from repro.network.neighbors import NeighborIndex
from repro.utils.rng import RandomState

if TYPE_CHECKING:  # pragma: no cover - imported for type checkers only
    from repro.experiments.session import LadSession

__all__ = ["TemporalOutcome", "TemporalRunner", "TemporalWorld"]

#: Effective range of a departed node: strictly positive (the network
#: container requires it) but far below any plausible radio range, so a
#: departed node is heard by nobody until a join event restores it.
_DEPARTED_RANGE = 1e-9


@dataclass
class _Cell:
    """One evaluation network plus its victims' mutable temporal state."""

    network: object
    victims: np.ndarray
    node_alive: np.ndarray
    waypoints: Optional[np.ndarray] = None

    def copy(self) -> "_Cell":
        return _Cell(
            network=self.network.copy(),
            victims=self.victims.copy(),
            node_alive=self.node_alive.copy(),
            waypoints=None if self.waypoints is None else self.waypoints.copy(),
        )


class TemporalWorld:
    """The mutable network state a timeline evolves.

    Built by replaying the session's ``"victims"`` random stream: the same
    networks, the same victim draw, in the same order — so an un-evented
    world reproduces :meth:`LadSession.victims` exactly.  The world is then
    mutated in place by event firings (mobility, churn, beacon decay) and
    re-observed per epoch through a fresh :class:`NeighborIndex` (the index
    snapshots positions at construction, so it must be rebuilt after any
    movement).
    """

    def __init__(
        self,
        cells: List[_Cell],
        *,
        beacon_noise_std: float = 0.0,
        beacon_bias: float = 0.0,
    ):
        self._cells = cells
        self.beacon_noise_std = float(beacon_noise_std)
        self.beacon_bias = float(beacon_bias)

    @classmethod
    def build(
        cls,
        generator,
        *,
        num_victims: int,
        victims_per_network: int,
        seed: Optional[int],
    ) -> "TemporalWorld":
        """Replay the ``"victims"`` stream of *seed* and retain the networks."""
        rng = RandomState(seed).stream("victims")
        cells = [
            _Cell(
                network=network,
                victims=np.asarray(nodes, dtype=np.int64),
                node_alive=np.ones(network.num_nodes, dtype=bool),
            )
            for network, nodes in generator.sample_nodes(
                rng, num_victims, victims_per_network
            )
        ]
        return cls(cells)

    @classmethod
    def from_session(cls, session: "LadSession") -> "TemporalWorld":
        """Build the world matching *session*'s evaluation victims."""
        c = session.config
        return cls.build(
            session.generator,
            num_victims=c.num_victims,
            victims_per_network=c.victims_per_network,
            seed=c.seed,
        )

    def copy(self) -> "TemporalWorld":
        """Deep copy — each simulated point evolves its own world."""
        return TemporalWorld(
            [cell.copy() for cell in self._cells],
            beacon_noise_std=self.beacon_noise_std,
            beacon_bias=self.beacon_bias,
        )

    @property
    def num_victims(self) -> int:
        """Total number of evaluation victims across all cells."""
        return sum(cell.victims.size for cell in self._cells)

    @property
    def region(self):
        """The deployment region (taken from the first network)."""
        return self._cells[0].network.region

    # -- observation -------------------------------------------------------

    def victim_state(self) -> Tuple[np.ndarray, np.ndarray]:
        """Current honest observations and positions of every victim.

        Rebuilds one :class:`NeighborIndex` per network — positions may
        have moved and ranges may have changed since the last epoch — and
        runs the same one-pass observation kernel the static path uses.
        """
        observations: List[np.ndarray] = []
        positions: List[np.ndarray] = []
        for cell in self._cells:
            index = NeighborIndex(cell.network)
            observations.append(index.observations_of_nodes(cell.victims))
            positions.append(cell.network.positions[cell.victims])
        return np.vstack(observations), np.vstack(positions)

    def victim_alive(self) -> np.ndarray:
        """Boolean mask of victims still deployed (not churned out)."""
        return np.concatenate([cell.node_alive[cell.victims] for cell in self._cells])

    # -- event effects -----------------------------------------------------

    def apply_mobility(
        self, action: str, fraction: float, amplitude: float, rng
    ) -> None:
        """Move a fraction of the live nodes (``jitter`` or ``waypoint``)."""
        for cell in self._cells:
            network = cell.network
            alive = np.flatnonzero(cell.node_alive)
            if alive.size == 0:
                continue
            count = (
                alive.size
                if fraction >= 1.0
                else max(1, int(round(fraction * alive.size)))
            )
            count = min(count, alive.size)
            chosen = np.sort(rng.choice(alive, size=count, replace=False))
            if action == "jitter":
                network.positions[chosen] += rng.normal(0.0, amplitude, size=(count, 2))
            else:  # waypoint
                if cell.waypoints is None:
                    cell.waypoints = self.region.sample_uniform(rng, network.num_nodes)
                delta = cell.waypoints[chosen] - network.positions[chosen]
                dist = np.linalg.norm(delta, axis=1)
                arrived = dist <= amplitude
                moving = ~arrived & (dist > 0)
                network.positions[chosen[arrived]] = cell.waypoints[chosen[arrived]]
                if arrived.any():
                    cell.waypoints[chosen[arrived]] = self.region.sample_uniform(
                        rng, int(arrived.sum())
                    )
                if moving.any():
                    step = delta[moving] / dist[moving, None] * amplitude
                    network.positions[chosen[moving]] += step
            if self.region is not None:
                network.positions[chosen] = self.region.clip(network.positions[chosen])

    def apply_churn(self, action: str, fraction: float, rng) -> None:
        """Silence (``leave``) or restore (``join``) a fraction of nodes."""
        for cell in self._cells:
            network = cell.network
            if action == "leave":
                pool = np.flatnonzero(cell.node_alive)
            else:  # join
                pool = np.flatnonzero(~cell.node_alive)
            if pool.size == 0:
                continue
            count = (
                pool.size
                if fraction >= 1.0
                else max(1, int(round(fraction * pool.size)))
            )
            count = min(count, pool.size)
            chosen = np.sort(rng.choice(pool, size=count, replace=False))
            if network.ranges is None:
                network.ranges = np.full(
                    network.num_nodes,
                    network.radio.nominal_range,
                    dtype=np.float64,
                )
            if action == "leave":
                network.ranges[chosen] = _DEPARTED_RANGE
                cell.node_alive[chosen] = False
            else:
                network.ranges[chosen] = network.radio.nominal_range
                cell.node_alive[chosen] = True

    def apply_beacons(self, action: str, fraction: float, amplitude: float) -> None:
        """Degrade (or repair) the benign nodes' self-localization quality.

        ``fail`` blurs benign claimed locations with Gaussian noise of std
        ``fraction * amplitude`` metres (cumulative across firings — more
        anchors lost, blurrier estimates); ``compromise`` adds a coherent
        per-epoch bias of the same magnitude (lying anchors drag every
        estimate the same way); ``restore`` repairs both.
        """
        if action == "fail":
            self.beacon_noise_std += fraction * amplitude
        elif action == "compromise":
            self.beacon_bias += fraction * amplitude
        else:  # restore
            self.beacon_noise_std = 0.0
            self.beacon_bias = 0.0


def _simulate_point(
    world_base: TemporalWorld,
    knowledge,
    seed: Optional[int],
    timeline: TimelineSpec,
    point: SweepPoint,
    localizer=None,
) -> Dict[str, np.ndarray]:
    """Run one sweep point through the timeline; returns the raw epoch record.

    The record is exactly what the store persists, so ``events`` (the fired
    labels per epoch) arrives as one JSON string array.

    This single function is the *entire* temporal computation — the serial
    path and every worker process call it with identical arguments, and all
    randomness inside comes from name-derived streams of *seed*, so
    parallel and serial runs are bit-identical by construction.

    Degeneracy: with an empty timeline the single epoch scores all victims
    through :func:`attacked_scores_from_observations` under the point's own
    stream — the call of the sweep's ``_score_point``, which
    :meth:`LadSession.attacked_scores` reads — so the temporal engine
    reproduces the static attacked scores bit for bit.
    """
    world = world_base.copy()
    metric = resolve_metric(point.metric)
    engine: EventEngine = EventEngine()
    for firing in timeline.compile(seed):
        engine.push(firing.time, firing)

    num_victims = world.num_victims
    attacked = np.full(num_victims, timeline.starts_attacked, dtype=bool)

    epochs = timeline.epochs
    scores = np.full((epochs, num_victims), np.nan, dtype=np.float64)
    attacked_record = np.zeros((epochs, num_victims), dtype=bool)
    alive_record = np.zeros((epochs, num_victims), dtype=bool)
    times = np.asarray(timeline.epoch_times(), dtype=np.float64)
    events: List[List[str]] = []

    for epoch, now in enumerate(times):
        fired: List[str] = []
        for firing in engine.pop_due(now):
            spec = firing.spec
            fired.append(spec.label)
            rng = RandomState(seed).stream(firing.stream_name())
            if spec.kind == "attack":
                if spec.action == "on":
                    pool = np.flatnonzero(~attacked)
                else:
                    pool = np.flatnonzero(attacked)
                if pool.size:
                    count = (
                        num_victims
                        if spec.fraction >= 1.0
                        else max(1, int(round(spec.fraction * num_victims)))
                    )
                    count = min(count, pool.size)
                    chosen = rng.choice(pool, size=count, replace=False)
                    attacked[chosen] = spec.action == "on"
            elif spec.kind == "mobility":
                world.apply_mobility(spec.action, spec.fraction, spec.amplitude, rng)
            elif spec.kind == "churn":
                world.apply_churn(spec.action, spec.fraction, rng)
            else:  # beacons
                world.apply_beacons(spec.action, spec.fraction, spec.amplitude)
        events.append(fired)

        observations, actual = world.victim_state()
        alive = world.victim_alive()
        attack_rows = attacked & alive
        benign_rows = ~attacked & alive

        if attack_rows.any():
            # Always attack the *full* victim batch under the point's own
            # stream, recreated every epoch: the draws never depend on the
            # attacked mask, and epoch 0 of an empty timeline replays
            # LadSession.attacked_scores exactly.
            attack_scores = attacked_scores_from_observations(
                knowledge,
                observations,
                actual,
                metric=metric,
                attack_class=point.attack,
                degree_of_damage=point.degree_of_damage,
                compromised_fraction=point.compromised_fraction,
                rng=RandomState(seed).stream(point.stream_name()),
                localizer=localizer,
            )
            scores[epoch, attack_rows] = attack_scores[attack_rows]

        if benign_rows.any():
            claimed = actual.copy()
            if world.beacon_noise_std > 0.0 or world.beacon_bias > 0.0:
                rng_beacons = RandomState(seed).stream(
                    f"timeline/beacons/epoch/{epoch}"
                )
                if world.beacon_noise_std > 0.0:
                    claimed += rng_beacons.normal(
                        0.0, world.beacon_noise_std, size=claimed.shape
                    )
                if world.beacon_bias > 0.0:
                    angle = rng_beacons.uniform(0.0, 2.0 * np.pi)
                    claimed += world.beacon_bias * np.array(
                        [np.cos(angle), np.sin(angle)]
                    )
                if world.region is not None:
                    claimed = world.region.clip(claimed)
            benign_scores = metric.score(knowledge, claimed, observations)
            scores[epoch, benign_rows] = benign_scores[benign_rows]

        attacked_record[epoch] = attacked
        alive_record[epoch] = alive

    return {
        "scores": scores,
        "attacked": attacked_record,
        "alive": alive_record,
        "times": times,
        "events": np.array(json.dumps(events)),
    }


@dataclass(frozen=True, eq=False)
class TemporalOutcome:
    """Per-epoch record of one sweep point run through a timeline.

    The temporal analogue of
    :class:`~repro.core.evaluation.DetectionOutcome`: raw per-epoch score /
    attacked / alive matrices plus the trained operating point, with the
    online metric family derived lazily on top.

    Attributes
    ----------
    point:
        The sweep point (metric, attack, D, x) that was run.
    scores:
        Anomaly scores, shape ``(epochs, victims)``; ``NaN`` marks a
        victim that was churned out at that epoch (no claim submitted).
    attacked, alive:
        Boolean state matrices of the same shape.
    times:
        Epoch times, shape ``(epochs,)``.
    events:
        Per-epoch tuples of the event labels that fired at that epoch.
    threshold, false_positive_rate:
        The trained operating point every epoch is judged at.
    """

    point: SweepPoint
    scores: np.ndarray
    attacked: np.ndarray
    alive: np.ndarray
    times: np.ndarray
    events: Tuple[Tuple[str, ...], ...]
    threshold: float
    false_positive_rate: float

    @classmethod
    def from_arrays(
        cls,
        point: SweepPoint,
        arrays: Dict[str, np.ndarray],
        *,
        threshold: float,
        false_positive_rate: float,
    ) -> "TemporalOutcome":
        """Assemble an outcome from :func:`_simulate_point`'s raw record."""
        events = json.loads(arrays["events"].item())
        return cls(
            point=point,
            scores=np.asarray(arrays["scores"], dtype=np.float64),
            attacked=np.asarray(arrays["attacked"], dtype=bool),
            alive=np.asarray(arrays["alive"], dtype=bool),
            times=np.asarray(arrays["times"], dtype=np.float64),
            events=tuple(tuple(labels) for labels in events),
            threshold=float(threshold),
            false_positive_rate=float(false_positive_rate),
        )

    # -- shape -------------------------------------------------------------

    @property
    def num_epochs(self) -> int:
        """Number of scored epochs."""
        return int(self.scores.shape[0])

    @property
    def num_victims(self) -> int:
        """Number of evaluation victims."""
        return int(self.scores.shape[1])

    # -- derived per-epoch series -----------------------------------------

    @cached_property
    def flagged(self) -> np.ndarray:
        """Which claims the detector flagged (``NaN`` scores never flag)."""
        with np.errstate(invalid="ignore"):
            return self.scores > self.threshold

    def detection_rates(self) -> np.ndarray:
        """Fraction of live attacked victims flagged, per epoch (0 if none)."""
        under_attack = self.attacked & self.alive
        hits = (self.flagged & under_attack).sum(axis=1)
        totals = under_attack.sum(axis=1)
        return np.divide(
            hits,
            totals,
            out=np.zeros(self.num_epochs, dtype=np.float64),
            where=totals > 0,
        )

    def false_positive_rates(self) -> np.ndarray:
        """Fraction of live benign victims flagged, per epoch (0 if none)."""
        benign = ~self.attacked & self.alive
        hits = (self.flagged & benign).sum(axis=1)
        totals = benign.sum(axis=1)
        return np.divide(
            hits,
            totals,
            out=np.zeros(self.num_epochs, dtype=np.float64),
            where=totals > 0,
        )

    def delivery_rates(self) -> np.ndarray:
        """Fraction of victims whose claims were accepted, per epoch.

        A claim is delivered when the node is alive and not flagged —
        the network's usable capacity as attack and churn progress.
        """
        delivered = (self.alive & ~self.flagged).sum(axis=1)
        return delivered / float(self.num_victims)

    # -- the online metric family ------------------------------------------

    @cached_property
    def detection_latency(self) -> Optional[int]:
        """Epoch index at which an attacked victim was first flagged.

        ``None`` when no attacked victim was ever flagged (also when the
        timeline never switches an attack on over any live victim).
        """
        hits = (self.flagged & self.attacked & self.alive).any(axis=1)
        indices = np.flatnonzero(hits)
        return int(indices[0]) if indices.size else None

    @property
    def detection_time(self) -> Optional[float]:
        """Time of the first detection (``None`` when never detected)."""
        latency = self.detection_latency
        return None if latency is None else float(self.times[latency])

    @cached_property
    def first_false_positive(self) -> Optional[int]:
        """Epoch index of the first benign victim flagged (``None`` = never)."""
        hits = (self.flagged & ~self.attacked & self.alive).any(axis=1)
        indices = np.flatnonzero(hits)
        return int(indices[0]) if indices.size else None

    @property
    def first_false_positive_time(self) -> Optional[float]:
        """Time of the first false positive (``None`` = never)."""
        epoch = self.first_false_positive
        return None if epoch is None else float(self.times[epoch])

    @cached_property
    def detection_drift(self) -> float:
        """Detection-rate change from the first to the last attacked epoch.

        Negative values mean the detector degrades as the network evolves
        (knowledge staleness, churn); ``0.0`` when fewer than two epochs
        had live attacked victims.
        """
        under_attack = (self.attacked & self.alive).any(axis=1)
        indices = np.flatnonzero(under_attack)
        if indices.size < 2:
            return 0.0
        rates = self.detection_rates()
        return float(rates[indices[-1]] - rates[indices[0]])

    # -- interop -----------------------------------------------------------

    def verdicts(self, epoch: int = 0) -> List[Verdict]:
        """Per-victim verdicts of one epoch — the static path's record type.

        For an empty timeline, ``verdicts(0)`` equals the verdicts of the
        static :meth:`DetectionOutcome.verdicts` for the same point: same
        scores, same trained threshold, same decision rule.
        """
        return verdicts_from_scores(
            self.scores[epoch],
            threshold=self.threshold,
            metric=self.point.metric,
            false_positive_rate=self.false_positive_rate,
        )

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready summary (CLI ``--json`` payloads)."""
        return {
            "metric": self.point.metric,
            "attack": self.point.attack,
            "degree_of_damage": self.point.degree_of_damage,
            "compromised_fraction": self.point.compromised_fraction,
            "epochs": self.num_epochs,
            "threshold": self.threshold,
            "false_positive_rate": self.false_positive_rate,
            "detection_latency": self.detection_latency,
            "first_false_positive": self.first_false_positive,
            "detection_drift": self.detection_drift,
            "detection_rates": self.detection_rates().tolist(),
            "false_positive_rates": self.false_positive_rates().tolist(),
            "delivery_rates": self.delivery_rates().tolist(),
            "times": self.times.tolist(),
            "events": [list(labels) for labels in self.events],
        }

    def __eq__(self, other):
        """Value equality with elementwise array comparison (NaN == NaN).

        The warm/cold and serial/parallel tests compare whole outcome maps,
        so equality must be well-defined for the array fields.
        """
        if not isinstance(other, TemporalOutcome):
            return NotImplemented
        return (
            self.point == other.point
            and self.threshold == other.threshold
            and self.false_positive_rate == other.false_positive_rate
            and self.events == other.events
            and np.array_equal(self.scores, other.scores, equal_nan=True)
            and np.array_equal(self.attacked, other.attacked)
            and np.array_equal(self.alive, other.alive)
            and np.array_equal(self.times, other.times)
        )


def _simulate_from_state(state: dict, point: SweepPoint) -> Dict[str, np.ndarray]:
    """:func:`_simulate_point` on :meth:`TemporalRunner._build_state`'s dict."""
    return _simulate_point(
        state["world"],
        state["knowledge"],
        state["seed"],
        state["timeline"],
        point,
        localizer=state["localizer"],
    )


class TemporalRunner(CachedGrid):
    """Fan sweep points through a timeline, with caching and fan-out.

    The temporal sibling of
    :class:`~repro.experiments.sweep.SweepRunner`, on the same
    :class:`~repro.experiments.sweep.CachedGrid` store loop: store
    category ``"temporal"`` keyed by :meth:`LadSession.temporal_fingerprint`,
    the same warm/cold partition, ``shard=`` slices and :meth:`progress`,
    the same worker pool with the bit-identical serial fallback, and the
    same streaming iteration order.  Obtained via
    :meth:`LadSession.temporal`.
    """

    category = "temporal"
    compute = staticmethod(_simulate_from_state)

    def __init__(
        self,
        session: "LadSession",
        timeline: Optional[TimelineSpec] = None,
        *,
        workers: int = 0,
    ):
        super().__init__(session, workers=workers)
        self._timeline = timeline if timeline is not None else TimelineSpec()

    @property
    def timeline(self) -> TimelineSpec:
        """The timeline every point is run through."""
        return self._timeline

    def fingerprint(self, point: SweepPoint) -> Dict[str, object]:
        """See :meth:`LadSession.temporal_fingerprint` (under this timeline)."""
        return self._session.temporal_fingerprint(point, self._timeline)

    def run(
        self, point: SweepPoint, *, false_positive_rate: float = 0.01
    ) -> TemporalOutcome:
        """Run a single point through the timeline (store-aware)."""
        return dict(
            self.iter_outcomes([point], false_positive_rate=false_positive_rate)
        )[point]

    def outcomes(
        self,
        points: Sequence[SweepPoint],
        *,
        false_positive_rate: float = 0.01,
    ) -> Dict[SweepPoint, TemporalOutcome]:
        """A :class:`TemporalOutcome` per point (see :meth:`iter_outcomes`)."""
        return dict(self.iter_outcomes(points, false_positive_rate=false_positive_rate))

    def iter_outcomes(
        self,
        points: Sequence[SweepPoint],
        *,
        false_positive_rate: float = 0.01,
        shard: Optional[Tuple[int, int]] = None,
    ) -> Iterator[Tuple[SweepPoint, TemporalOutcome]]:
        """Yield ``(point, outcome)`` pairs in grid order as they complete.

        Warm records stream from the session store under their temporal
        fingerprint (attacked fingerprint plus timeline fingerprint) and
        cold ones are simulated and persisted as they arrive, so a resumed
        temporal sweep is bit-identical to an uninterrupted one; *shard*
        selects one slice of the grid (see
        :meth:`~repro.experiments.sweep.CachedGrid._iter_arrays`).  The
        trained threshold is applied here in the parent (workers only
        produce raw score matrices), so fan-out never re-trains.
        """
        for point, arrays in self._iter_arrays(points, shard=shard):
            yield point, TemporalOutcome.from_arrays(
                point,
                arrays,
                threshold=self._session.threshold(
                    point.metric, false_positive_rate=false_positive_rate
                ),
                false_positive_rate=false_positive_rate,
            )

    def _build_state(self) -> dict:
        """The base world, knowledge, seed, timeline and localizer view."""
        session = self._session
        return {
            "world": TemporalWorld.from_session(session),
            "knowledge": session.knowledge,
            "seed": session.config.seed,
            "timeline": self._timeline,
            "localizer": self._localizer_view(),
        }
