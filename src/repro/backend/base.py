"""The :class:`ArrayBackend` seam behind the dense likelihood kernels.

The hot path of the whole evaluation is a handful of array kernels — the
coarse-lattice likelihood matmul, the segmented refinement reductions, the
masked-sum centroid kernel and the batched 2x2 normal equations of MMSE
multilateration.  :class:`ArrayBackend` lifts exactly those operations
behind one small interface so the compute substrate is a configuration
choice:

* :class:`~repro.backend.numpy_backend.NumpyBackend` (the default) *is*
  the pre-refactor numpy code, operation for operation — results are
  bit-for-bit identical to calling the kernels directly, which is what
  lets numpy-exact backends share artifact-cache keys with the historical
  default;
* :class:`~repro.backend.torch_backend.TorchBackend` (optional) runs the
  same operations through torch on CPU or CUDA for million-observation
  batches.  Floating-point accumulation order differs, so it carries its
  own cache identity and is validated by atol-pinned score comparisons
  plus identical detection decisions.

Backends are published through the :data:`BACKENDS` registry (alongside
the metric/attack/deployment/localizer families) and selected
declaratively by a :class:`BackendSpec` — the ``[backend]`` table of a
scenario file, ``--backend`` on the CLI.

Implementations accept plain numpy arrays at every entry point and return
plain numpy ``float64`` arrays; how an operation stages data onto its
device is the backend's business.  The contract every implementation must
honour is *semantic* equivalence with the numpy reference (same shapes,
same argmax tie-breaking of "first maximal element", ``-inf`` handled as
a value); ``numpy_exact`` additionally promises bit-level equality.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Optional

import numpy as np

from repro.registry import Registry

__all__ = [
    "ArrayBackend",
    "BACKENDS",
    "BackendSpec",
    "default_backend",
    "resolve_backend",
]

#: Registry of array-compute backends.  Third-party backends plug in with
#: ``@BACKENDS.register(...)`` exactly like metrics or localizers.
BACKENDS = Registry("backend")

#: When the pruned active set would cover at least this fraction of the
#: ``(candidate, group)`` pairs, the sparse likelihood kernels fall back
#: to the dense matmul path.  This is the measured crossover for numpy on
#: CPU; device backends (where the dense matmul is comparatively cheaper)
#: override :attr:`ArrayBackend.dense_fallback_fraction` with their own
#: measured value.
DEFAULT_DENSE_FALLBACK_FRACTION = 0.5


class ArrayBackend(abc.ABC):
    """Array-kernel interface shared by every compute backend.

    The operations are the ones the evaluation pipeline actually spends
    its time in: array plumbing (``asarray``/``to_numpy``), the dense
    likelihood matmuls, segmented reductions and argmax/gather for the
    lock-step refinement, masked sums for the beacon kernels, and the
    batched closed-form 2x2 solve.  Everything else in the pipeline is
    orchestration and stays plain numpy.
    """

    #: Canonical registry name.
    name: str = "abstract"

    #: ``True`` when every operation is bit-for-bit identical to the
    #: numpy reference.  Numpy-exact backends alias to the historical
    #: artifact-cache keys (their :meth:`fingerprint` is ``None``), so a
    #: warm sweep cache stays warm when such a backend is selected.
    numpy_exact: bool = False

    #: Active-fraction threshold above which the pruned likelihood kernels
    #: fall back to the dense path (see
    #: :data:`DEFAULT_DENSE_FALLBACK_FRACTION`).
    dense_fallback_fraction: float = DEFAULT_DENSE_FALLBACK_FRACTION

    #: Resolved device the kernels run on (informational).
    device: str = "cpu"

    #: Compute dtype of the device kernels (results always return float64).
    dtype: str = "float64"

    # -- availability ------------------------------------------------------

    @classmethod
    def is_available(cls) -> bool:
        """Whether this backend can be instantiated in this environment."""
        return True

    @classmethod
    def availability(cls) -> str:
        """Human-readable availability probe (``lad-repro backends``)."""
        return "available"

    # -- identity ----------------------------------------------------------

    def fingerprint(self) -> Optional[Dict[str, object]]:
        """This backend's contribution to artifact-cache keys.

        ``None`` for numpy-exact backends: their results are bit-identical
        to the default, so they must share the default's keys (a warm
        cache written before — or without — the backend layer still hits).
        Every other backend returns its identity (name, device, dtype),
        because scores may differ at the bit level.
        """
        if self.numpy_exact:
            return None
        return {"name": self.name, "device": self.device, "dtype": self.dtype}

    def describe(self) -> str:
        """One-line description for CLI listings."""
        return f"{self.name} (device={self.device}, dtype={self.dtype})"

    # -- array plumbing ----------------------------------------------------

    @abc.abstractmethod
    def asarray(self, values: Any) -> Any:
        """Stage *values* as this backend's array type (float64 semantics)."""

    @abc.abstractmethod
    def to_numpy(self, values: Any) -> np.ndarray:
        """Materialise a backend array as a numpy ``float64`` array."""

    # -- dense likelihood kernels ------------------------------------------

    @abc.abstractmethod
    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Plain matrix product ``a @ b``."""

    @abc.abstractmethod
    def binomial_loglik(
        self,
        row_coeff: np.ndarray,
        obs: np.ndarray,
        m: float,
        log_p: np.ndarray,
        log_q: np.ndarray,
    ) -> np.ndarray:
        """The coarse-lattice likelihood kernel.

        Computes ``row_coeff[:, None] + obs @ log_p.T + (m - obs) @
        log_q.T`` — the two matrix products that dominate the dense
        batched log-likelihood (*obs* is ``(k, g)``, *log_p*/*log_q* are
        ``(c, g)``; the result is ``(k, c)``).
        """

    @abc.abstractmethod
    def segmented_loglik(
        self,
        obs_rep: np.ndarray,
        probs: np.ndarray,
        m: float,
        *,
        reaches_one: bool,
        log_coefficients: Callable[[np.ndarray, float], np.ndarray],
    ) -> np.ndarray:
        """Dense per-candidate binomial log-likelihood row sums.

        *obs_rep* and *probs* are ``(total, g)`` (one row per refinement
        candidate); the result is the ``(total,)`` log-likelihood of each
        candidate: the unobserved ``(m - k) log(1 - p)`` term everywhere,
        plus the binomial coefficient and ``k log p`` at the observed
        (``k > 0``) pairs, with the degenerate ``p >= 1`` masking applied
        when *reaches_one*.  *log_coefficients* maps observed counts to
        binomial log-coefficients (backends may substitute their own
        device-side ``lgamma`` evaluation).
        """

    @abc.abstractmethod
    def sparse_segment_loglik(
        self,
        k_values: np.ndarray,
        probs: np.ndarray,
        m: float,
        candidate_ids: np.ndarray,
        num_candidates: int,
        *,
        reaches_one: bool,
        log_coefficients: Callable[[np.ndarray, float], np.ndarray],
    ) -> np.ndarray:
        """Pruned active-set likelihood: per-pair terms + segmented sum.

        *k_values*, *probs* and *candidate_ids* are flat, one entry per
        scored ``(candidate, group)`` pair; the result scatters the
        per-pair binomial terms onto ``num_candidates`` candidate slots
        (the segmented reduction replacing the dense row sum).
        """

    # -- reductions and gathers --------------------------------------------

    @abc.abstractmethod
    def segment_sum(
        self,
        values: np.ndarray,
        segment_ids: np.ndarray,
        num_segments: int,
    ) -> np.ndarray:
        """Sum *values* into ``num_segments`` slots indexed by *segment_ids*."""

    @abc.abstractmethod
    def segment_argmax(
        self, values: np.ndarray, counts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-segment argmax of a flat concatenated value array.

        *values* concatenates one block per segment, *counts* gives the
        block lengths (all must be positive).  Returns ``(indices,
        maxima)`` where ``indices[i]`` is the **global** index into
        *values* of segment *i*'s first maximal element — the same
        tie-breaking as running ``np.argmax`` per segment — and
        ``maxima[i]`` the value there.  ``-inf`` is an ordinary value
        (all ``-inf`` segments return their first element); ``NaN`` must
        not appear (the likelihood kernels cannot produce it).
        """

    @abc.abstractmethod
    def rowwise_argmax(
        self, values: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Argmax along axis 1 plus the gathered maxima, per row."""

    @abc.abstractmethod
    def masked_sum(self, terms: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """Sum *terms* over axis 1 with masked-out entries as exact zeros.

        *mask* is boolean ``(k, b)``; *terms* is ``(k, b)`` — or
        ``(k, b, d)``-broadcastable with a trailing component axis (the
        masked-centroid kernel) in which case the mask applies to every
        component.
        """

    # -- batched linear algebra --------------------------------------------

    @abc.abstractmethod
    def solve2x2(
        self,
        m00: np.ndarray,
        m01: np.ndarray,
        m11: np.ndarray,
        v0: np.ndarray,
        v1: np.ndarray,
        *,
        rtol: float = 1e-9,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Solve a batch of symmetric 2x2 normal-equation systems.

        Returns ``(estimates, solvable)``: the closed-form solutions
        ``(k, 2)`` and a boolean mask flagging rows whose determinant
        clears ``rtol * trace**2`` (near-singular systems are reported
        unsolvable rather than amplified).
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(device={self.device!r}, dtype={self.dtype!r})"


@dataclass(frozen=True)
class BackendSpec:
    """Declarative selection of an array backend (the ``[backend]`` table).

    Attributes
    ----------
    name:
        Registered backend name (``repro.backend.BACKENDS``).
    device:
        Device policy: ``"auto"`` (the backend picks its best device),
        ``"cpu"``, or an accelerator name such as ``"cuda"`` /
        ``"cuda:1"`` for backends that support one.
    dtype:
        Compute dtype policy for device kernels (``"float64"`` or
        ``"float32"``).  Results are always returned as float64; float32
        trades accuracy for throughput on devices where float64 is slow
        and is rejected by numpy-exact backends.
    """

    name: str = "numpy"
    device: str = "auto"
    dtype: str = "float64"

    def __post_init__(self) -> None:
        set_ = object.__setattr__
        set_(self, "name", BACKENDS.canonical(self.name))
        set_(self, "device", str(self.device).strip().lower())
        set_(self, "dtype", str(self.dtype).strip().lower())
        if self.dtype not in ("float64", "float32"):
            raise ValueError(
                f"unsupported backend dtype {self.dtype!r}; "
                "choose 'float64' or 'float32'"
            )

    def build(self) -> ArrayBackend:
        """Instantiate the selected backend (raises when unavailable)."""
        return BACKENDS.get(self.name)(device=self.device, dtype=self.dtype)

    def with_device(self, device: str) -> "BackendSpec":
        """A copy of the spec pinned to a different device."""
        return replace(self, device=device)

    # -- serialisation (the [backend] table of scenario files) -------------

    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict view (TOML/JSON-ready; lossless round trip)."""
        return {"name": self.name, "device": self.device, "dtype": self.dtype}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "BackendSpec":
        """Rebuild a spec from its :meth:`as_dict` form (typos raise)."""
        data = dict(data)
        known = {"name", "device", "dtype"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown backend field(s) {sorted(unknown)}; "
                f"expected a subset of {sorted(known)}"
            )
        return cls(**data)


#: Process-wide default backend instance (the numpy reference), shared so
#: every kernel constructed without an explicit backend uses one object.
_DEFAULT_BACKEND: Optional[ArrayBackend] = None


def default_backend() -> ArrayBackend:
    """The shared numpy reference backend (built lazily, one per process)."""
    global _DEFAULT_BACKEND
    if _DEFAULT_BACKEND is None:
        _DEFAULT_BACKEND = BACKENDS.create("numpy")
    return _DEFAULT_BACKEND


def resolve_backend(spec) -> ArrayBackend:
    """Resolve ``None`` / name / :class:`BackendSpec` / instance to a backend."""
    if spec is None:
        return default_backend()
    if isinstance(spec, ArrayBackend):
        return spec
    if isinstance(spec, BackendSpec):
        return spec.build()
    if isinstance(spec, str):
        return BackendSpec(name=spec).build()
    raise TypeError(
        "backend must be None, a registered name, a BackendSpec or an "
        f"ArrayBackend instance, got {type(spec).__name__}"
    )
