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
* the victim observation payload lives in one
  :mod:`multiprocessing.shared_memory` segment per array: workers receive
  only the segment name / shape / dtype through the pool initializer and
  map the buffers zero-copy, so no worker ever re-pickles the (potentially
  large) victim sample;
* the per-combination random streams are derived from the session seed
  and the combination *name* (:func:`attack_stream_name`), so a parallel
  sweep reproduces the serial one — and therefore
  :meth:`LadSession.attacked_scores` — bit for bit, regardless of
  scheduling order.

Platforms without working process pools or shared memory (some sandboxes
and embedded interpreters) degrade gracefully: the runner emits a
``RuntimeWarning`` and runs the identical serial path instead of crashing
mid-sweep.

:class:`CachedGrid` is the one store loop under both runners: the sweep
(category ``attacked_scores``) and the temporal runner
(:mod:`repro.events.temporal`, category ``temporal``) each name their
category and supply per-point keys and computations, and inherit the
warm/cold partition, ``shard=`` and :meth:`~CachedGrid.progress`.  A
point's ``.npz`` in the store is its only progress record.

:func:`fan_out` is that pool-with-serial-fallback, and the only process
pool of the package: the sweep's cold points, the temporal runner's
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
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    ContextManager,
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

from repro.core.evaluation import (
    DetectionOutcome,
    attacked_scores_from_observations,
    evaluate_detection,
)
from repro.core.metrics import AnomalyMetric, resolve_metric
from repro.core.roc import RocCurve, compute_roc
from repro.utils.rng import RandomState

if TYPE_CHECKING:  # pragma: no cover - imported for type checkers only
    from repro.experiments.session import LadSession

__all__ = [
    "CachedGrid",
    "LocalizerModalities",
    "SweepPoint",
    "SweepProgress",
    "SweepRunner",
    "attack_stream_name",
    "fan_out",
    "shard_of_point",
    "shard_points",
]

T = TypeVar("T")
R = TypeVar("R")


def attack_stream_name(
    metric: Union[str, AnomalyMetric],
    attack_class: str,
    degree_of_damage: float,
    compromised_fraction: float,
) -> str:
    """Name of the random stream for one attack parameter combination.

    Shared by :meth:`LadSession.attacked_scores` and the sweep workers:
    because :meth:`~repro.utils.rng.RandomState.stream` derives its
    generator from ``(seed, name)`` alone, any evaluation path that uses the
    same name reproduces the same attack randomness.
    """
    return (
        f"attack/{resolve_metric(metric).name}/{attack_class}/"
        f"{degree_of_damage:g}/{compromised_fraction:g}"
    )


@dataclass(frozen=True)
class SweepPoint:
    """One combination of the evaluation parameter grid."""

    metric: str
    attack: str
    degree_of_damage: float
    compromised_fraction: float

    def stream_name(self) -> str:
        """Random-stream name of this combination."""
        return attack_stream_name(
            self.metric, self.attack, self.degree_of_damage, self.compromised_fraction
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


#: Shared per-worker state, installed once by the pool initializer.
_WORKER_STATE: dict = {}

#: Errors that mean "this platform cannot fan out worker processes" —
#: :func:`fan_out` falls back to the (bit-identical) serial path on one.
FAN_OUT_ERRORS = (ImportError, NotImplementedError, OSError, BrokenProcessPool)


def fan_out(
    fn: Callable[[T], R],
    tasks: Sequence[T],
    workers: int,
    *,
    serial: Optional[Callable[[T], R]] = None,
    initializer: Optional[Callable[[object], None]] = None,
    worker_state: Callable[[], ContextManager[object]] = nullcontext,
) -> Iterator[R]:
    """Yield the result of every task, in task order.

    With ``workers <= 1`` each task runs in-process through *serial*
    (default: *fn*).  Otherwise a pool of up to *workers* processes maps
    *fn* over the tasks.  ``worker_state()`` is entered only once a pool
    is wanted; its value reaches every worker through
    ``initializer(value)`` and it is exited after the pool shuts down.

    Any :data:`FAN_OUT_ERRORS` — raised while building the worker state,
    while starting the pool or mid-stream — emits one ``RuntimeWarning``,
    and the remaining tasks continue serially from the first one not yet
    yielded.  *fn* and *serial* must return the same result for a task
    (every random stream is name-derived), so the switch never shows.
    """
    tasks = list(tasks)
    serial = fn if serial is None else serial
    done = 0
    if workers > 1 and tasks:
        try:
            with worker_state() as state:
                with ProcessPoolExecutor(
                    max_workers=min(workers, len(tasks)),
                    initializer=initializer,
                    initargs=() if initializer is None else (state,),
                ) as pool:
                    for result in pool.map(fn, tasks):
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
        yield serial(task)


def _share_array(array: np.ndarray):
    """Copy *array* into a fresh shared-memory segment.

    Returns the segment (the caller owns it and must ``close``/``unlink``)
    plus the picklable metadata a worker needs to map the buffer.
    """
    from multiprocessing import shared_memory

    array = np.ascontiguousarray(array)
    segment = shared_memory.SharedMemory(create=True, size=max(1, array.nbytes))
    view = np.ndarray(array.shape, dtype=array.dtype, buffer=segment.buf)
    view[...] = array
    meta = {"name": segment.name, "shape": array.shape, "dtype": str(array.dtype)}
    return segment, meta


def _release(segments) -> None:
    """Close and unlink shared-memory segments created by :func:`_share_array`."""
    for segment in segments:
        segment.close()
        try:
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass


def _attach_array(meta: dict):
    """Map a shared-memory segment created by :func:`_share_array`.

    The worker does not own the segment — the parent unlinks it — so the
    attach must not register it with the resource tracker (on POSIX,
    attaching registers just like creating; with a fork-shared tracker the
    duplicate registrations from many workers then produce spurious
    "leaked shared_memory" noise and double-unlink errors).  Registration
    is suppressed for the duration of the attach.
    """
    from multiprocessing import resource_tracker, shared_memory

    original_register = resource_tracker.register
    resource_tracker.register = lambda name, rtype: None
    try:
        segment = shared_memory.SharedMemory(name=meta["name"])
    finally:
        resource_tracker.register = original_register
    array = np.ndarray(
        tuple(meta["shape"]), dtype=np.dtype(meta["dtype"]), buffer=segment.buf
    )
    # Every worker maps the same buffer: an in-place mutation anywhere would
    # silently corrupt the other workers' inputs, so make it loud instead.
    array.flags.writeable = False
    return segment, array


def _init_worker(payload: dict) -> None:
    state = dict(payload)
    shared = state.pop("shared_arrays", None)
    if shared:
        segments = []
        for key, meta in shared.items():
            segment, array = _attach_array(meta)
            segments.append(segment)
            state[key] = array
        # Keep the segments referenced for the worker's lifetime: the numpy
        # views borrow their buffers.
        state["_shared_segments"] = segments
    skeleton = state.pop("knowledge_skeleton", None)
    if skeleton is not None:
        # Rebuild the deployment knowledge from its shared-memory arrays
        # plus the pickled skeleton: the lattice and the tabulated g(z)
        # knots are mapped zero-copy, so per-worker memory stays
        # O(victims), not O(knowledge).  Backends hold process-local state
        # and are rebuilt from their spec.
        from repro.deployment.knowledge import DeploymentKnowledge

        backend_spec = state.pop("backend_spec", None)
        backend = None if backend_spec is None else backend_spec.build()
        state["knowledge"] = DeploymentKnowledge.from_share_parts(
            skeleton,
            {
                "deployment_points": state.pop("knowledge_points"),
                "gz_knots": state.pop("knowledge_gz_knots"),
                "gz_values": state.pop("knowledge_gz_values"),
            },
            backend=backend,
        )
    _WORKER_STATE.update(state)


@dataclass(frozen=True)
class LocalizerModalities:
    """Picklable stand-in for a localization scheme in the worker payload.

    Modality-targeted attack classes only consult the scheme's
    ``modalities`` tag (to decide whether the attacked channel feeds the
    scheme at all), so the pool ships this two-field view instead of the
    scheme itself — schemes may hold process-local backend state that must
    not cross process boundaries.  Serial and parallel paths therefore see
    the same modality decision, keeping them bit-identical.
    """

    modalities: tuple = ()
    name: str = ""


def _score_point(point: SweepPoint) -> np.ndarray:
    """Attacked scores for one combination, from the worker's shared state."""
    state = _WORKER_STATE
    rng = RandomState(state["seed"]).stream(point.stream_name())
    return attacked_scores_from_observations(
        state["knowledge"],
        state["observations"],
        state["locations"],
        metric=point.metric,
        attack_class=point.attack,
        degree_of_damage=point.degree_of_damage,
        compromised_fraction=point.compromised_fraction,
        rng=rng,
        localizer=state.get("localizer_view"),
    )


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
    and supplies three hooks, each giving the named arrays the store
    persists for a point:

    * ``keys(points)`` — the points' store keys, in grid order;
    * ``_compute(point)`` — one point, computed in-process;
    * ``_iter_cold(points)`` — the store-missing points in grid order,
      fanned out through :func:`fan_out`.
    """

    #: Store category of the per-point artifacts.
    category = ""

    def __init__(self, session: "LadSession", *, workers: int = 0):
        self._session = session
        self._workers = int(workers)

    @property
    def session(self) -> "LadSession":
        """The session whose cached state this runner shares."""
        return self._session

    def _localizer_view(self) -> LocalizerModalities:
        """The session localizer's modality tag, in picklable form.

        Modality-targeted attack classes gate their displacement on it;
        serial and worker paths receive the same view so they stay
        bit-identical.
        """
        localizer = self._session.localizer
        return LocalizerModalities(
            modalities=tuple(localizer.modalities), name=localizer.name
        )

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
        computes.  The cold remainder goes through :meth:`_iter_cold`; each
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
                arrays = self._compute(point)
            else:
                arrays = next(cold)
            store.save(self.category, key, **arrays)
            yield point, arrays

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

    @staticmethod
    def grid(
        metrics: Iterable[Union[str, AnomalyMetric]],
        attacks: Iterable[str],
        degrees: Iterable[float],
        fractions: Iterable[float],
    ) -> List[SweepPoint]:
        """The cartesian product of the given parameter axes."""
        return [
            SweepPoint(
                resolve_metric(metric).name, attack, float(degree), float(fraction)
            )
            for metric, attack, degree, fraction in itertools.product(
                metrics, attacks, degrees, fractions
            )
        ]

    def keys(self, points: Sequence[SweepPoint]) -> List[str]:
        """Attacked-score store keys of *points*, in grid order."""
        return self._session.attacked_scores_keys(points)

    def attacked_scores(
        self,
        points: Sequence[SweepPoint],
        *,
        shard: Optional[Tuple[int, int]] = None,
    ) -> Dict[SweepPoint, np.ndarray]:
        """Attacked score samples for every sweep point.

        With ``workers > 1`` the grid is fanned over a process pool whose
        workers map the victim payload from shared memory; on platforms
        where that is impossible the sweep falls back to the serial path
        (identical results) with a :class:`RuntimeWarning`.
        """
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
        lazily, so scoring and downstream reporting overlap; when fan-out is
        unavailable (or a pool dies mid-sweep) the remaining points continue
        on the bit-identical serial path after a :class:`RuntimeWarning`.
        """
        for point, arrays in self._iter_arrays(points, shard=shard):
            yield point, arrays["scores"]

    def _score(self, point: SweepPoint) -> np.ndarray:
        """Attacked scores of one point, computed in-process."""
        return self._session._compute_attacked_scores(
            point.metric,
            point.attack,
            degree_of_damage=point.degree_of_damage,
            compromised_fraction=point.compromised_fraction,
        )

    def _compute(self, point: SweepPoint) -> Dict[str, np.ndarray]:
        return {"scores": self._score(point)}

    def _iter_cold(self, points: List[SweepPoint]) -> Iterator[Dict[str, np.ndarray]]:
        """Score store-missing points in grid order (shared-memory pool or serial)."""
        for scores in fan_out(
            _score_point,
            points,
            self._workers,
            serial=self._score,
            initializer=_init_worker,
            worker_state=self._shared_payload,
        ):
            yield {"scores": scores}

    def _pool_payload(self):
        """Shared segments plus the metadata-only pool initializer payload.

        Everything with a real footprint — the victims' observation arrays
        and the deployment knowledge's lattice and tabulated ``g(z)`` —
        travels through shared memory; the pickled payload carries only
        segment metadata and a small knowledge skeleton
        (:meth:`~repro.deployment.knowledge.DeploymentKnowledge.share_parts`),
        so per-worker memory is O(victims' views), not O(knowledge) per
        process.  The caller owns the returned segments and must
        close/unlink them once the pool is done.
        """
        session = self._session
        sample = session.victims()
        knowledge_arrays, knowledge_skeleton = session.knowledge.share_parts()
        segments = []
        shared_arrays = {}
        try:
            for key, array in (
                ("observations", sample.observations),
                ("locations", sample.actual_locations),
                ("knowledge_points", knowledge_arrays["deployment_points"]),
                ("knowledge_gz_knots", knowledge_arrays["gz_knots"]),
                ("knowledge_gz_values", knowledge_arrays["gz_values"]),
            ):
                segment, meta = _share_array(array)
                segments.append(segment)
                shared_arrays[key] = meta
        except BaseException:
            _release(segments)
            raise
        payload = {
            "seed": session.config.seed,
            "knowledge_skeleton": knowledge_skeleton,
            "backend_spec": session.backend_spec,
            "shared_arrays": shared_arrays,
            "localizer_view": self._localizer_view(),
        }
        return segments, payload

    @contextmanager
    def _shared_payload(self) -> Iterator[dict]:
        """The pool payload, its shared segments released on exit."""
        segments, payload = self._pool_payload()
        try:
            yield payload
        finally:
            _release(segments)

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
        ``sweep`` subcommand; thresholds are trained (or served from the
        session's artifact store) before the first point is scored.
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
