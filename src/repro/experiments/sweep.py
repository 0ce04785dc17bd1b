"""Parameter sweeps over the cached LAD evaluation state.

Every figure of the paper's evaluation section is a sweep of the same inner
computation — score the victims' tainted observations for one
``(metric, attack class, degree of damage D, compromise fraction x)``
combination — against state that is *shared* by all combinations: the
``g(z)`` table inside the deployment knowledge, the victims' honest
observations, and the benign training scores per metric.

:class:`SweepRunner` makes that structure explicit.  It fans a grid of
:class:`SweepPoint` combinations over worker processes (or runs them
serially for ``workers <= 1``) while materialising the shared state exactly
once:

* the expensive per-combination work — the greedy adversary plus metric
  scoring — is what gets distributed;
* the shared state is one dict (seed, knowledge, the victims' observations
  and locations, the localizer's modality view) that every point reads
  through the one per-point function :func:`_score_point`, in-process or
  in a pool worker that received the dict once;
* the per-combination random streams are derived from the session seed
  and the combination *name* (:meth:`SweepPoint.stream_name`), so a
  parallel sweep reproduces the serial one bit for bit, regardless of
  scheduling order.  :meth:`LadSession.attacked_scores`, ``roc`` and
  ``outcome`` are one-point reads of this runner, so :func:`_score_point`
  is the only code that attacks and scores a point.

Platforms without working process pools (some sandboxes and embedded
interpreters) degrade gracefully: the runner emits a ``RuntimeWarning``
and computes the remaining points in-process instead of crashing
mid-sweep.

:class:`CachedGrid` is the one store loop under both runners: the sweep
(category ``attacked_scores``) and the temporal runner
(:mod:`repro.events.temporal`, category ``temporal``) each name their
category and supply a per-point fingerprint, one per-point function and its
state, and inherit the store keys, the warm/cold partition, ``shard=``, the
cold-point fan-out and :meth:`~CachedGrid.progress`.  A point's ``.npz`` in
the store is its only progress record.

:func:`fan_out` is the one fan-out contract and the only process pool of
the package: every task runs ``fn(state, task)``, so serial and pooled runs
execute the same function.  The sweep's cold points, the temporal runner's
points and the figures' per-session training passes
(:mod:`repro.experiments.figures.common`) all fan out through it.

The figure drivers (:mod:`repro.experiments.figures`) all route their
parameter grids through this runner.
"""

from __future__ import annotations

import hashlib
import itertools
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from functools import partial
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

import numpy as np

from repro.attacks.constraints import AttackClass, resolve_attack_class
from repro.core.evaluation import (
    DetectionOutcome,
    attacked_scores_from_observations,
    evaluate_detection,
)
from repro.core.metrics import AnomalyMetric, resolve_metric
from repro.core.roc import RocCurve, compute_roc
from repro.experiments.store import fingerprint_key
from repro.utils.rng import RandomState

if TYPE_CHECKING:  # pragma: no cover - imported for type checkers only
    from repro.experiments.session import LadSession

__all__ = [
    "CachedGrid",
    "LocalizerModalities",
    "SweepPoint",
    "SweepProgress",
    "SweepRunner",
    "fan_out",
    "shard_of_point",
    "shard_points",
]

S = TypeVar("S")
T = TypeVar("T")
R = TypeVar("R")


@dataclass(frozen=True)
class SweepPoint:
    """One combination of the evaluation parameter grid."""

    metric: str
    attack: str
    degree_of_damage: float
    compromised_fraction: float

    def stream_name(self) -> str:
        """Name of this combination's random stream.

        Spelled from the registered names, as the point's store key is, so
        ``"Dec-Bounded"`` and ``"dec_bounded"`` draw the same randomness.
        :meth:`~repro.utils.rng.RandomState.stream` derives its generator
        from ``(seed, name)`` alone, so every path that scores the point
        reproduces the same attack.
        """
        return (
            f"attack/{resolve_metric(self.metric).name}/"
            f"{resolve_attack_class(self.attack).name}/"
            f"{self.degree_of_damage:g}/{self.compromised_fraction:g}"
        )


def shard_of_point(point: SweepPoint, shard_count: int) -> int:
    """Deterministic shard index of *point* under *shard_count*-way sharding.

    Derived from the SHA-256 of the point's random-stream name — a pure
    function of the point's parameters, independent of grid order, Python's
    per-process hash randomisation, and the host computing it.  Every host
    of a fleet therefore agrees on the partition without coordination.
    """
    count = int(shard_count)
    if count < 1:
        raise ValueError("shard count must be >= 1")
    digest = hashlib.sha256(point.stream_name().encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % count


def shard_points(
    points: Iterable[SweepPoint], shard_index: int, shard_count: int
) -> List[SweepPoint]:
    """The slice of *points* owned by shard ``shard_index`` of ``shard_count``.

    The partition is stable (a point's shard depends only on its own
    parameters), so the slices of a given grid are pairwise disjoint and
    their union is exactly the full grid — regardless of grid ordering,
    re-runs, or which host evaluates the assignment.
    """
    index, count = int(shard_index), int(shard_count)
    if count < 1:
        raise ValueError("shard count must be >= 1")
    if not 0 <= index < count:
        raise ValueError(f"shard index must be in [0, {count}), got {index}")
    return [p for p in points if shard_of_point(p, count) == index]


#: Errors that mean "this platform cannot fan out worker processes" —
#: :func:`fan_out` falls back to the (bit-identical) serial path on one.
FAN_OUT_ERRORS = (ImportError, NotImplementedError, OSError, BrokenProcessPool)

#: The state of the pool this worker process serves: set once by the pool
#: initializer and read only by :func:`_call_with_state`.
_pool_state: object = None


def _install_state(state: object) -> None:
    global _pool_state
    _pool_state = state


def _call_with_state(fn: Callable[[S, T], R], task: T) -> R:
    return fn(_pool_state, task)


def fan_out(
    fn: Callable[[S, T], R],
    tasks: Sequence[T],
    workers: int,
    *,
    state: S = None,
) -> Iterator[R]:
    """Yield ``fn(state, task)`` for every task, in task order.

    With ``workers <= 1`` each task runs in-process.  Otherwise a pool of up
    to *workers* processes maps the tasks, each worker holding *state* from
    its initializer: inherited under ``fork``, pickled once per worker under
    ``spawn`` or ``forkserver``.  Serial and pooled runs therefore call the
    same *fn* (module-level, so a pool can ship it) on the same state.

    Any :data:`FAN_OUT_ERRORS` — raised while starting the pool or
    mid-stream — emits one ``RuntimeWarning``, and the remaining tasks
    continue in-process from the first one not yet yielded.  Every random
    stream is name-derived, so the switch never shows in the results.
    """
    tasks = list(tasks)
    done = 0
    if workers > 1 and tasks:
        try:
            with ProcessPoolExecutor(
                max_workers=min(workers, len(tasks)),
                initializer=_install_state,
                initargs=(state,),
            ) as pool:
                for result in pool.map(partial(_call_with_state, fn), tasks):
                    yield result
                    done += 1
        except FAN_OUT_ERRORS as exc:
            warnings.warn(
                f"process fan-out unavailable on this platform ({exc!r}); "
                f"falling back to the serial path from task {done}",
                RuntimeWarning,
                stacklevel=2,
            )
    for task in tasks[done:]:
        yield fn(state, task)


@dataclass(frozen=True)
class LocalizerModalities:
    """Picklable stand-in for a localization scheme in a grid's state.

    Modality-targeted attack classes only consult the scheme's
    ``modalities`` tag (to decide whether the attacked channel feeds the
    scheme at all), so the state carries this two-field view instead of
    the scheme itself — schemes may hold process-local backend state that
    must not cross process boundaries.
    """

    modalities: tuple = ()
    name: str = ""


def _score_point(state: dict, point: SweepPoint) -> Dict[str, np.ndarray]:
    """Attacked scores of one combination, from :meth:`SweepRunner._build_state`.

    The only code that attacks and scores a point: the greedy adversary
    under the point's own stream, then the metric.
    """
    scores = attacked_scores_from_observations(
        state["knowledge"],
        state["observations"],
        state["locations"],
        metric=point.metric,
        attack_class=point.attack,
        degree_of_damage=point.degree_of_damage,
        compromised_fraction=point.compromised_fraction,
        rng=RandomState(state["seed"]).stream(point.stream_name()),
        localizer=state["localizer"],
    )
    return {"scores": scores}


@dataclass(frozen=True)
class SweepProgress:
    """How many points of a grid have their artifact in the store."""

    total: int
    done: int

    @property
    def remaining(self) -> int:
        """Points still to compute."""
        return self.total - self.done


class CachedGrid:
    """A grid of sweep points whose per-point arrays persist in the session store.

    The one store loop under :class:`SweepRunner` (category
    ``"attacked_scores"``) and
    :class:`~repro.events.temporal.TemporalRunner` (category
    ``"temporal"``).  A point is done once its ``.npz`` is in the store;
    nothing else records progress.  A subclass names its :attr:`category`
    and supplies:

    * ``fingerprint(point)`` — everything the point's artifact depends on;
      :meth:`keys` hashes it;
    * :attr:`compute` — the module-level ``compute(state, point)`` giving
      the named arrays the store persists for one point;
    * ``_build_state()`` — the one state dict every point reads.

    The cold points go through :func:`fan_out` with that state, so serial
    and pooled runs call :attr:`compute` on the same state.  The state is
    built when the first point is computed, so a fully warm grid builds
    none (and loads no victims).
    """

    #: Store category of the per-point artifacts.
    category = ""

    #: ``compute(state, point) -> arrays`` (a module-level function).
    compute: Callable[[dict, SweepPoint], Dict[str, np.ndarray]]

    def __init__(self, session: "LadSession", *, workers: int = 0):
        self._session = session
        self._workers = int(workers)
        self._state: Optional[dict] = None

    @property
    def session(self) -> "LadSession":
        """The session whose cached state this runner shares."""
        return self._session

    def _localizer_view(self) -> LocalizerModalities:
        """The session localizer's modality tag, in picklable form.

        Modality-targeted attack classes gate their displacement on it;
        it rides in the grid's state, so serial and pooled runs read the
        same view.
        """
        localizer = self._session.localizer
        return LocalizerModalities(
            modalities=tuple(localizer.modalities), name=localizer.name
        )

    def keys(self, points: Sequence[SweepPoint]) -> List[str]:
        """Store keys of *points*, in grid order: one per ``fingerprint``.

        The runner, ``--status`` and the finishing-shard completeness check
        all derive a point's identity here.
        """
        return [fingerprint_key(self.fingerprint(point)) for point in points]

    def progress(self, points: Sequence[SweepPoint]) -> SweepProgress:
        """How many of *points* have this category's artifact in the store.

        Derives each point's key and checks that its ``.npz`` exists:
        nothing is opened or written, and the store's hit/miss counters
        stay untouched.
        """
        store = self._session.store
        if store is None:
            raise ValueError("grid progress requires a session artifact store")
        keys = self.keys(points)
        return SweepProgress(
            total=len(keys),
            done=sum(store.contains(self.category, key) for key in keys),
        )

    def _iter_arrays(
        self,
        points: Sequence[SweepPoint],
        *,
        shard: Optional[Tuple[int, int]] = None,
    ) -> Iterator[Tuple[SweepPoint, Dict[str, np.ndarray]]]:
        """Yield ``(point, arrays)`` in grid order: warm from disk, cold computed.

        *shard* restricts the iteration to one deterministic slice of the
        grid (``(index, count)``, see :func:`shard_points`).  With a
        session store, the slice's points are probed first — existence
        checks only, so the generator stays O(1) in memory for arbitrarily
        long resumed grids, and a miss is counted only for a point this run
        computes.  The cold remainder fans out through :func:`fan_out`; each
        cold result is saved atomically the moment it arrives.  A warm
        artifact that vanished or was corrupt since the probe (quarantined
        by the failed load) is recomputed inline.
        """
        points = list(points) if shard is None else shard_points(points, *shard)
        store = self._session.store
        if store is None:
            yield from zip(points, self._iter_cold(points))
            return
        keys = self.keys(points)
        warm = [store.probe(self.category, key) for key in keys]
        cold = self._iter_cold([p for p, hit in zip(points, warm) if not hit])
        for point, key, hit in zip(points, keys, warm):
            if hit:
                arrays = store.load(self.category, key)
                if arrays is not None:
                    yield point, arrays
                    continue
                arrays = self.compute(self._cold_state(), point)
            else:
                arrays = next(cold)
            store.save(self.category, key, **arrays)
            yield point, arrays

    def _iter_cold(self, points: List[SweepPoint]) -> Iterator[Dict[str, np.ndarray]]:
        """Compute *points* in grid order; the state is built on the first."""
        if points:
            yield from fan_out(
                self.compute, points, self._workers, state=self._cold_state()
            )

    def _cold_state(self) -> dict:
        """The state dict of :attr:`compute`, built on first use."""
        if self._state is None:
            self._state = self._build_state()
        return self._state

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(workers={self._workers}, "
            f"session={self._session!r})"
        )


class SweepRunner(CachedGrid):
    """Fan a parameter grid over workers that share the cached state.

    Parameters
    ----------
    session:
        The :class:`~repro.experiments.session.LadSession` whose cached
        knowledge, victims and benign scores the sweep reuses.
    workers:
        Number of worker processes.  ``0`` or ``1`` (default) runs the sweep
        serially in-process; either way the results are identical.

    Examples
    --------
    >>> runner = LadSession(config).sweep(workers=4)
    >>> points = SweepRunner.grid(["diff"], ["dec_bounded"],
    ...                           degrees=[80, 160], fractions=[0.1, 0.3])
    >>> rates = runner.detection_rates(points)
    """

    category = "attacked_scores"
    compute = staticmethod(_score_point)

    @staticmethod
    def grid(
        metrics: Iterable[Union[str, AnomalyMetric]],
        attacks: Iterable[Union[str, AttackClass]],
        degrees: Iterable[float],
        fractions: Iterable[float],
    ) -> List[SweepPoint]:
        """The cartesian product of the given axes, under registered names."""
        return [
            SweepPoint(
                resolve_metric(metric).name,
                resolve_attack_class(attack).name,
                float(degree),
                float(fraction),
            )
            for metric, attack, degree, fraction in itertools.product(
                metrics, attacks, degrees, fractions
            )
        ]

    def fingerprint(self, point: SweepPoint) -> Dict[str, object]:
        """See :meth:`LadSession.attacked_fingerprint`."""
        return self._session.attacked_fingerprint(point)

    def attacked_scores(
        self,
        points: Sequence[SweepPoint],
        *,
        shard: Optional[Tuple[int, int]] = None,
    ) -> Dict[SweepPoint, np.ndarray]:
        """Attacked score samples for every point (see :meth:`iter_attacked_scores`)."""
        return dict(self.iter_attacked_scores(points, shard=shard))

    def iter_attacked_scores(
        self,
        points: Sequence[SweepPoint],
        *,
        shard: Optional[Tuple[int, int]] = None,
    ) -> Iterator[Tuple[SweepPoint, np.ndarray]]:
        """Yield ``(point, attacked scores)`` pairs as they complete.

        Results arrive in grid order.  This is the streaming form of
        :meth:`attacked_scores`: the CLI ``sweep`` command prints each point
        the moment it is scored instead of waiting for the whole grid.

        Warm points stream from the session store under their attacked-score
        fingerprint and cold ones are computed and published as they arrive
        (see :meth:`CachedGrid._iter_arrays`, which also explains *shard*).
        Each point's random stream derives from the seed and parameter names
        alone, so a resumed sweep reproduces an uninterrupted cold run bit
        for bit.  With ``workers > 1`` the pool's results are consumed
        lazily, so scoring and downstream reporting overlap (see
        :func:`fan_out` for the serial fallback).
        """
        for point, arrays in self._iter_arrays(points, shard=shard):
            yield point, arrays["scores"]

    def _build_state(self) -> dict:
        """The session's seed, knowledge and victims, and the localizer view."""
        session = self._session
        sample = session.victims()
        return {
            "seed": session.config.seed,
            "knowledge": session.knowledge,
            "observations": sample.observations,
            "locations": sample.actual_locations,
            "localizer": self._localizer_view(),
        }

    def rocs(
        self,
        points: Sequence[SweepPoint],
        *,
        num_thresholds: Optional[int] = None,
    ) -> Dict[SweepPoint, RocCurve]:
        """ROC curves for every sweep point (Figures 4–6)."""
        attacked = self.attacked_scores(points)
        return {
            point: compute_roc(
                self._session.benign_scores(point.metric),
                scores,
                num_thresholds=num_thresholds,
            )
            for point, scores in attacked.items()
        }

    def detection_rates(
        self,
        points: Sequence[SweepPoint],
        *,
        false_positive_rate: float = 0.01,
        shard: Optional[Tuple[int, int]] = None,
    ) -> Dict[SweepPoint, DetectionOutcome]:
        """A :class:`DetectionOutcome` per point at a FP budget (Figures 7–9).

        Each outcome carries the detection rate, the trained threshold and
        the score samples; per-victim :class:`~repro.core.verdict.Verdict`
        objects are one :meth:`DetectionOutcome.verdicts` call away.
        """
        return dict(
            self.iter_detection_rates(
                points, false_positive_rate=false_positive_rate, shard=shard
            )
        )

    def iter_detection_rates(
        self,
        points: Sequence[SweepPoint],
        *,
        false_positive_rate: float = 0.01,
        shard: Optional[Tuple[int, int]] = None,
    ) -> Iterator[Tuple[SweepPoint, DetectionOutcome]]:
        """Stream ``(point, DetectionOutcome)`` pairs in grid order.

        The streaming form of :meth:`detection_rates` used by the CLI
        ``sweep`` subcommand; each metric's threshold is trained (or served
        from the session's artifact store) when its first point arrives.
        *shard* restricts the stream to one slice of the grid (see
        :meth:`iter_attacked_scores`).
        """
        for point, scores in self.iter_attacked_scores(points, shard=shard):
            yield (
                point,
                evaluate_detection(
                    self._session.benign_scores(point.metric),
                    scores,
                    false_positive_rate=false_positive_rate,
                    metric=point.metric,
                ),
            )
