"""The deployment knowledge carried by every sensor.

:class:`DeploymentKnowledge` bundles exactly the information the paper
assumes each sensor stores before deployment:

* the coordinates of every deployment point;
* the number of sensors deployed per group (``m``);
* the wireless transmission range ``R``;
* the pre-computed ``g(z)`` table (Section 3.3).

Both the beaconless localization scheme and the LAD detector consume this
object, so it is the natural seam between the deployment substrate and the
rest of the system.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.spatial import cKDTree

from repro.backend import ArrayBackend, resolve_backend
from repro.deployment.gz import GzTable
from repro.deployment.models import DeploymentModel
from repro.types import Region, as_points
from repro.utils.validation import check_int, check_positive

__all__ = ["DeploymentKnowledge"]

#: Probabilities at or below this value cannot perturb a log-likelihood term:
#: ``1.0 - p == 1.0`` in float64 (so the unobserved ``(m - k) log(1 - p)``
#: term is an exact zero) whenever ``p <= 2**-55``.
_PRUNE_TINY = 2.0**-55

#: Memory budget of each per-knowledge likelihood cache (the squared-distance
#: table and the coarse-lattice terms); a cache that would not fit is not
#: built and its kernel keeps the per-call path.
_CACHE_BUDGET_BYTES = 32 * 2**20

#: Largest coordinate magnitude the squared-distance table accepts: axis
#: offsets stay below ``2**26``, so every squared offset and their sum are
#: exact in float64 and ``sqrt(s)`` is the correctly rounded distance.
_EXACT_COORDINATE = 2.0**25


def _exact_integers(values: np.ndarray) -> bool:
    """Whether every value is an integer within :data:`_EXACT_COORDINATE`."""
    return bool(
        np.all(np.abs(values) <= _EXACT_COORDINATE)
        and np.all(values == np.floor(values))
    )


class DeploymentKnowledge:
    """Per-sensor deployment knowledge (deployment points, ``m``, ``R``, ``g``).

    Parameters
    ----------
    model:
        The deployment model (grid layout + landing distribution).
    group_size:
        Number of sensors per deployment group (``m``).
    radio_range:
        Wireless transmission range ``R`` in metres.
    gz_table:
        Optional pre-built :class:`~repro.deployment.gz.GzTable`.  When
        omitted one is constructed from ``radio_range`` and the model's
        Gaussian ``σ``.
    omega:
        Table resolution used when ``gz_table`` is not supplied.
    backend:
        Array backend running the batched likelihood kernels: ``None``
        (the shared numpy reference), a registered backend name, a
        :class:`~repro.backend.BackendSpec`, or an
        :class:`~repro.backend.ArrayBackend` instance.
    dense_fallback_fraction:
        Optional override of the active-set fraction above which the
        pruned kernels fall back to the dense path; defaults to the
        backend's own crossover.
    """

    def __init__(
        self,
        model: DeploymentModel,
        group_size: int,
        radio_range: float,
        *,
        gz_table: Optional[GzTable] = None,
        omega: int = 1000,
        backend=None,
        dense_fallback_fraction: Optional[float] = None,
    ):
        self._model = model
        self._group_size = check_int("group_size", group_size, minimum=1)
        self._radio_range = check_positive("radio_range", radio_range)
        self._backend = resolve_backend(backend)
        if dense_fallback_fraction is None:
            self._dense_fallback = float(self._backend.dense_fallback_fraction)
        else:
            self._dense_fallback = float(dense_fallback_fraction)
            if not 0.0 < self._dense_fallback <= 1.0:
                raise ValueError("dense_fallback_fraction must be in (0, 1]")
        if gz_table is None:
            sigma = getattr(model.distribution, "sigma", None)
            if sigma is None:
                raise ValueError(
                    "a GzTable must be supplied explicitly for non-Gaussian "
                    "resident-point distributions"
                )
            z_max = model.region.diagonal + radio_range
            gz_table = GzTable(radio_range, sigma, omega=omega, z_max=z_max)
        self._gz = gz_table
        self._group_tree: Optional[cKDTree] = None
        self._support_radius: Optional[float] = None
        self._lattice_terms: Optional[tuple[bytes, Optional[tuple]]] = None

    # -- transport ---------------------------------------------------------

    def share_parts(self) -> tuple[dict, dict]:
        """Split the knowledge into flat arrays plus a small skeleton.

        Returns ``(arrays, skeleton)``: the arrays hold everything with
        O(n_groups) or O(ω) footprint (the deployment lattice and the
        tabulated ``g(z)`` knots/values, contiguous ``float64`` so they can
        travel through ``multiprocessing.shared_memory`` zero-copy); the
        skeleton holds only scalars plus the tiny landing-distribution
        object.  :meth:`from_share_parts` rebuilds an equivalent knowledge
        object whose likelihood kernels are bit-identical: distances come
        from ``cdist`` over the identical points and probabilities from
        interpolation over the identical knots.
        """
        gz = self._gz
        arrays = {
            "deployment_points": np.ascontiguousarray(
                self.deployment_points, dtype=np.float64
            ),
            "gz_knots": np.ascontiguousarray(gz.table.knots, dtype=np.float64),
            "gz_values": np.ascontiguousarray(gz.table.values, dtype=np.float64),
        }
        region = self.region
        skeleton = {
            "version": 1,
            "region": (region.x_min, region.y_min, region.x_max, region.y_max),
            "distribution": self._model.distribution,
            "group_size": self._group_size,
            "radio_range": self._radio_range,
            "gz_radio_range": gz.radio_range,
            "gz_sigma": gz.sigma,
            "dense_fallback_fraction": self._dense_fallback,
        }
        return arrays, skeleton

    @classmethod
    def from_share_parts(
        cls, skeleton: dict, arrays: dict, *, backend=None
    ) -> "DeploymentKnowledge":
        """Rebuild knowledge from :meth:`share_parts` output.

        *backend* is resolved locally (backends hold process-local state and
        are rebuilt from their spec on the receiving side, not shipped).
        """
        from repro.deployment.models import PrebuiltDeploymentModel

        table = GzTable.from_tabulated(
            skeleton["gz_radio_range"],
            skeleton["gz_sigma"],
            arrays["gz_knots"],
            arrays["gz_values"],
        )
        model = PrebuiltDeploymentModel(
            Region(*skeleton["region"]),
            arrays["deployment_points"],
            distribution=skeleton["distribution"],
        )
        return cls(
            model,
            skeleton["group_size"],
            skeleton["radio_range"],
            gz_table=table,
            backend=backend,
            dense_fallback_fraction=skeleton["dense_fallback_fraction"],
        )

    # -- properties --------------------------------------------------------

    @property
    def model(self) -> DeploymentModel:
        """The deployment model this knowledge was derived from."""
        return self._model

    @property
    def region(self) -> Region:
        """Deployment region."""
        return self._model.region

    @property
    def deployment_points(self) -> np.ndarray:
        """Deployment-point coordinates, shape ``(n_groups, 2)``."""
        return self._model.deployment_points

    @property
    def n_groups(self) -> int:
        """Number of deployment groups ``n``."""
        return self._model.n_groups

    @property
    def group_size(self) -> int:
        """Number of sensors per group ``m``."""
        return self._group_size

    @property
    def radio_range(self) -> float:
        """Wireless transmission range ``R``."""
        return self._radio_range

    @property
    def gz_table(self) -> GzTable:
        """The ``g(z)`` lookup table."""
        return self._gz

    @property
    def backend(self) -> ArrayBackend:
        """The array backend running the batched likelihood kernels."""
        return self._backend

    @property
    def dense_fallback_fraction(self) -> float:
        """Active-set fraction above which pruned kernels go dense."""
        return self._dense_fallback

    # -- active-group pruning ----------------------------------------------

    @property
    def support_radius(self) -> float:
        """Distance beyond which ``g(z)`` cannot perturb a likelihood term.

        Derived from the ``g(z)`` table itself: the first knot after the
        last one whose value exceeds ``2**-55``.  Linear interpolation stays
        within the bracketing knot values, so every query beyond this radius
        yields ``p`` with ``1.0 - p == 1.0`` in float64 — the unobserved
        ``(m − k) · log(1 − p)`` term of such a group is an *exact* zero and
        can be skipped without changing the likelihood sum.  ``inf`` when
        the table still carries non-negligible mass at its upper end (the
        pruned kernels then fall back to the dense path).

        The pruned refinement kernel of :meth:`log_likelihood_grids` reads
        this radius twice: as the reach of the active group sets, and as
        the end of its squared-distance table — integer squared distances
        ``s`` with ``√s`` at or beyond the radius all read the table's
        exact ``0.0``.
        """
        if self._support_radius is None:
            knots = self._gz.table.knots
            values = self._gz.table.values
            above = np.flatnonzero(values > _PRUNE_TINY)
            if above.size == 0:
                self._support_radius = 0.0
            elif above[-1] == values.size - 1:
                self._support_radius = float("inf")
            else:
                self._support_radius = float(knots[above[-1] + 1])
        return self._support_radius

    def active_groups(
        self, locations, radius: Optional[float] = None
    ) -> list[np.ndarray]:
        """Group indices within *radius* of each location (KD-tree query).

        Parameters
        ----------
        locations:
            Query locations, shape ``(k, 2)`` (or a single point).
        radius:
            Search radius in metres; defaults to :attr:`support_radius`.

        Returns
        -------
        One sorted ``int64`` index array per location.  An empty array means
        the location is outside every group's reach.
        """
        pts = as_points(locations)
        r = self.support_radius if radius is None else float(radius)
        if not np.isfinite(r):
            everything = np.arange(self.n_groups, dtype=np.int64)
            return [everything] * pts.shape[0]
        if self._group_tree is None:
            self._group_tree = cKDTree(self.deployment_points)
        hits = self._group_tree.query_ball_point(pts, r, return_sorted=True)
        return [np.asarray(h, dtype=np.int64) for h in hits]

    def _shared_active_set(
        self, locations: np.ndarray, observations: np.ndarray
    ) -> Optional[np.ndarray]:
        """Active set shared by a batch kernel call, or ``None`` for dense.

        The union of (a) every group within :attr:`support_radius` of some
        candidate and (b) every group any observation row touches.  Groups
        outside the union contribute exact zeros to every ``(row, candidate)``
        likelihood (they have ``k == 0`` in all rows and ``1 − p == 1.0`` at
        all candidates), so restricting the kernel to the union only changes
        floating-point summation order.
        """
        if not np.isfinite(self.support_radius):
            return None
        near = self.active_groups(locations)
        observed = np.flatnonzero(np.any(observations != 0, axis=0))
        active = np.unique(np.concatenate([*near, observed]))
        if active.size >= self._dense_fallback * self.n_groups:
            return None
        return active

    # -- core computations -------------------------------------------------

    def membership_probabilities(self, locations) -> np.ndarray:
        """``g_i(θ)`` for each location ``θ`` and each group ``i``.

        Parameters
        ----------
        locations:
            A single point or an array of shape ``(k, 2)``.

        Returns
        -------
        Array of shape ``(k, n_groups)`` where entry ``[j, i]`` is the
        probability that a given sensor from group ``i`` lands within radio
        range of ``locations[j]``.
        """
        distances = self._model.distances_to_groups(as_points(locations))
        return np.asarray(self._gz(distances), dtype=np.float64)

    def expected_observation(self, locations) -> np.ndarray:
        """Expected observation ``µ_i = m · g_i(θ)`` (paper Eq. (2)).

        Returns an array of shape ``(k, n_groups)``.
        """
        return self._group_size * self.membership_probabilities(locations)

    def expected_neighbor_count(self, locations) -> np.ndarray:
        """Total expected number of neighbours at each location, ``Σ_i µ_i``."""
        return self.expected_observation(locations).sum(axis=1)

    def log_likelihood(self, locations, observation) -> np.ndarray:
        """Log-likelihood of *observation* if the sensor were at *locations*.

        The observation counts of the ``n`` groups are modelled as
        independent ``Binomial(m, g_i(θ))`` variables, which is the
        probabilistic model behind both the beaconless localization scheme
        and the Probability metric.

        Parameters
        ----------
        locations:
            Candidate locations, shape ``(k, 2)``.
        observation:
            A single observation vector of shape ``(n_groups,)``.

        Returns
        -------
        Array of shape ``(k,)`` with the total log-likelihood per location.
        """
        from repro.utils.stats import binomial_log_pmf

        obs = np.asarray(observation, dtype=np.float64)
        if obs.shape != (self.n_groups,):
            raise ValueError(
                f"observation must have shape ({self.n_groups},), got {obs.shape}"
            )
        probs = self.membership_probabilities(locations)
        log_pmf = binomial_log_pmf(obs[None, :], self._group_size, probs)
        return log_pmf.sum(axis=1)

    @staticmethod
    def _log_coefficients(k_values: np.ndarray, m: float) -> np.ndarray:
        """Binomial log-coefficients, via a small value table when possible.

        Honest observations are integer counts drawn from a narrow range, so
        the ``gammaln`` evaluations collapse to one pass over
        ``0 … max(k)`` followed by a gather.  Real-valued observations (the
        tainted ones can be fractional) fall back to the element-wise form.
        """
        from repro.utils.stats import binomial_log_coefficient

        if (
            k_values.size > 1024
            and float(k_values.min(initial=0.0)) >= 0.0
            and float(k_values.max(initial=0.0)) <= 65536.0
            and np.all(k_values == np.floor(k_values))
        ):
            values = np.arange(int(k_values.max()) + 1, dtype=np.float64)
            return binomial_log_coefficient(values, m)[k_values.astype(np.int64)]
        return binomial_log_coefficient(k_values, m)

    def _membership_fast(self, locations, groups=None) -> np.ndarray:
        """``g_i(θ)`` via the table's uniform-grid fast lookup.

        Same values as :meth:`membership_probabilities` up to floating-point
        rounding; used by the batched likelihood kernels where the table
        lookup dominates the runtime.  *groups* restricts the columns to an
        active subset (bit-identical to the same columns of the full
        matrix).
        """
        distances = self._model.distances_to_groups(as_points(locations), groups)
        return self._gz.fast_lookup(distances)

    def log_likelihood_batch(
        self, locations, observations, *, prune: bool = False
    ) -> np.ndarray:
        """Log-likelihood of every observation at every candidate location.

        The batched form of :meth:`log_likelihood` over a *shared* candidate
        set — the ``(k, candidates, n_groups)`` kernel of the evaluation
        pipeline: the membership probabilities (and their logs) are
        evaluated once per candidate, and each observation row then reduces
        to two matrix products, because the log-pmf is linear in ``k`` and
        ``m − k`` once ``log p`` and ``log (1 − p)`` are tabulated.  The
        observation-only binomial coefficient is hoisted out via
        :func:`~repro.utils.stats.binomial_log_coefficient`.  The result
        equals ``binomial_log_pmf(obs[:, None, :], m, probs[None]).sum(-1)``
        up to floating-point rounding (matrix products accumulate in a
        different order).

        Parameters
        ----------
        locations:
            Candidate locations shared by all observations, shape ``(c, 2)``.
        observations:
            Observation vectors, shape ``(k, n_groups)``.
        prune:
            When ``True``, restrict the kernel to the active group set (the
            union of groups within :attr:`support_radius` of some candidate
            and groups with a non-zero observation entry).  The dropped
            terms are exact zeros, so the result matches the dense kernel up
            to summation order; when the active set covers most groups the
            dense path is used regardless.

        Returns
        -------
        Array of shape ``(k, c)`` with the total log-likelihood of each
        observation at each candidate.
        """
        obs = self._check_observations(observations)
        locs = as_points(locations)
        active = self._shared_active_set(locs, obs) if prune else None
        if active is not None:
            obs = obs[:, active]
            probs = self._membership_fast(locs, active)
        else:
            probs = self._membership_fast(locs)
        return self._binomial_batch(obs, *self._batch_terms(probs))

    def log_likelihood_lattice(self, lattice, covered, observations) -> np.ndarray:
        """:meth:`log_likelihood_batch` at ``lattice[covered]``, from cached terms.

        A localizer scores every batch against the same region-wide
        lattice, so the lattice's membership probabilities and their logs
        are built once per knowledge and lattice, then sliced by each
        call's boolean *covered* mask.  Every term is computed element by
        element, so the slices equal the terms of ``lattice[covered]``
        bit for bit and the same operands reach the same matrix products:
        the result is that of
        ``log_likelihood_batch(lattice[covered], observations)``.  A lattice
        whose terms would exceed the cache budget keeps that per-call path.
        """
        lattice = as_points(lattice)
        key = lattice.tobytes()
        cached = self._lattice_terms
        if cached is None or cached[0] != key:
            terms = None
            if 3 * 8 * lattice.shape[0] * self.n_groups <= _CACHE_BUDGET_BYTES:
                terms = self._batch_terms(self._membership_fast(lattice))
                for term in terms:
                    term.flags.writeable = False
            cached = self._lattice_terms = (key, terms)
        if cached[1] is None:
            return self.log_likelihood_batch(lattice[covered], observations)
        obs = self._check_observations(observations)
        return self._binomial_batch(obs, *(term[covered] for term in cached[1]))

    def _check_observations(self, observations) -> np.ndarray:
        obs = np.atleast_2d(np.asarray(observations, dtype=np.float64))
        if obs.shape[1] != self.n_groups:
            raise ValueError(
                f"observations must have {self.n_groups} columns, "
                f"got {obs.shape[1]}"
            )
        return obs

    @staticmethod
    def _batch_terms(probs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(p, log p, log(1 − p))`` of a membership matrix, element by element."""
        with np.errstate(divide="ignore", invalid="ignore"):
            log_p = np.log(np.where(probs > 0, probs, 1.0))
            log_q = np.log(np.where(probs < 1, 1.0 - probs, 1.0))
        return probs, log_p, log_q

    def _binomial_batch(
        self, obs: np.ndarray, probs: np.ndarray, log_p: np.ndarray, log_q: np.ndarray
    ) -> np.ndarray:
        """The ``(k, c)`` matmul reduction of :meth:`log_likelihood_batch`."""
        from repro.utils.stats import binomial_log_coefficient

        m = float(self._group_size)
        coeff = binomial_log_coefficient(obs, m)
        coeff = np.where((obs < 0) | (obs > m), -np.inf, coeff)
        row_coeff = coeff.sum(axis=1)
        ll = self._backend.binomial_loglik(row_coeff, obs, m, log_p, log_q)

        # Degenerate probabilities force the count: p == 0 requires k == 0
        # and p == 1 requires k == m at that group; one float matmul counts
        # the violating groups per (observation, candidate) pair.  Real
        # ``g(z)`` tables never reach exactly 0 or 1, so this usually skips.
        zero_p = probs <= 0
        one_p = probs >= 1
        if np.any(zero_p):
            impossible = self._backend.matmul(
                (obs > 0).astype(np.float64), zero_p.T.astype(np.float64)
            )
            ll = np.where(impossible > 0, -np.inf, ll)
        if np.any(one_p):
            impossible = self._backend.matmul(
                (obs < m).astype(np.float64), one_p.T.astype(np.float64)
            )
            ll = np.where(impossible > 0, -np.inf, ll)
        return ll

    def log_likelihood_segmented(
        self,
        locations,
        observations,
        segment_counts,
        *,
        active: Optional[Sequence[np.ndarray]] = None,
    ) -> np.ndarray:
        """Log-likelihoods for per-row candidate segments in one flat pass.

        ``locations`` concatenates one candidate block per observation row;
        ``segment_counts[i]`` says how many of its rows belong to
        ``observations[i]``.  The returned flat array matches calling
        :meth:`log_likelihood` once per row on its block up to
        floating-point rounding, at a fraction of the cost:

        * the table lookup uses the uniform-grid fast path instead of a
          binary search per element;
        * the observation-dependent ``gammaln`` terms and ``log p`` factors
          are only evaluated at the ``(candidate, group)`` pairs the row
          actually observed (``k_i > 0`` — a few percent of all pairs);
        * the unobserved pairs keep just the dense
          ``(m − k) · log(1 − p)`` term, whose far-group entries are exact
          zeros.

        Every pair runs the full chain distance → ``g(z)`` lookup →
        ``log(1 − p)``; :meth:`log_likelihood_grids` is the table-driven
        form of the pruned kernel for axis-product candidate grids.

        Parameters
        ----------
        locations:
            Concatenated candidate locations, shape ``(sum(counts), 2)``.
        observations:
            Observation vectors, shape ``(k, n_groups)``.
        segment_counts:
            Number of candidates per observation row, shape ``(k,)``.
        active:
            Optional per-row active group sets (one index array per row,
            e.g. from :meth:`active_groups` on the rows' search centres).
            The kernel then scores only the ``(candidate, group)`` pairs in
            each row's active set — unioned with the groups the row actually
            observed, so every skipped pair has ``k == 0`` and
            ``1 − p == 1.0``, i.e. contributes an exact zero.  Dropping
            exact zeros still changes the floating-point *summation order*
            (the same rounding-level caveat the batched engine already
            carries against the per-row reference), which leaves the
            estimates unchanged whenever candidate likelihoods are
            separated by more than accumulated rounding; the tie-prone
            all-zero rows never reach this kernel.  When the active sets
            cover most pairs the dense path runs instead, so callers may
            pass ``active`` unconditionally.

        Returns
        -------
        Flat array of shape ``(sum(counts),)``.
        """
        obs = np.atleast_2d(np.asarray(observations, dtype=np.float64))
        counts = np.asarray(segment_counts, dtype=np.int64)
        if counts.shape != (obs.shape[0],):
            raise ValueError("need one segment count per observation row")
        locs = as_points(locations)
        if locs.shape[0] != int(counts.sum()):
            raise ValueError("segment counts do not add up to len(locations)")
        m = float(self._group_size)
        reaches_one = bool(np.any(self._gz.table.values >= 1.0))
        rows_active = None
        if active is not None:
            rows_active = self._rows_active(obs, counts, active)
        if rows_active is None:
            out = self._backend.segmented_loglik(
                np.repeat(obs, counts, axis=0),
                self._membership_fast(locs),
                m,
                reaches_one=reaches_one,
                log_coefficients=self._log_coefficients,
            )
        else:
            # Every scored pair reuses the exact distance (``cdist``
            # evaluates pairs independently) and the same per-pair
            # arithmetic as the dense kernel.
            offsets = np.concatenate([[0], np.cumsum(counts)])
            pairs = self._active_pairs(
                obs,
                counts,
                rows_active,
                lambda row, groups: self._model.distances_to_groups(
                    locs[offsets[row] : offsets[row + 1]], groups
                ),
            )
            out = np.zeros(locs.shape[0], dtype=np.float64)
            if pairs is not None:
                distances, k, cand = pairs
                out = self._backend.sparse_segment_loglik(
                    k,
                    self._gz.fast_lookup(distances),
                    m,
                    cand,
                    out.size,
                    reaches_one=reaches_one,
                    log_coefficients=self._log_coefficients,
                )
        return self._poison_invalid(out, obs, counts)

    def log_likelihood_grids(
        self,
        axes: Sequence[tuple[np.ndarray, np.ndarray]],
        observations,
        active: Sequence[np.ndarray],
    ) -> np.ndarray:
        """The pruned segmented kernel over per-row axis-product grids.

        Row ``i`` of *observations* is scored at every point of the grid
        spanned by ``axes[i] = (xs, ys)``, y-major and x-minor (the order of
        ``np.meshgrid(xs, ys)``), against its active group set
        ``active[i]``.  The flat result is bit-identical to
        :meth:`log_likelihood_segmented` on the concatenated grid points
        with the same *active* sets, dense fallback included.

        When every axis value and every deployment point is an integer,
        each pair's squared distance ``s = dx² + dy²`` is an exact integer,
        built as one broadcast add of per-axis squared offsets.  The
        unobserved ``(m − k) · log(1 − p)`` term then is one gather from a
        per-knowledge table of ``log(1 − g(√s))``; ``s`` past the table's
        end (the support radius) reads its exact ``0.0``, so the table *is*
        the support-radius pruning.  Observed pairs (``k > 0``) keep the
        full chain on ``√s`` — the correctly rounded distance ``cdist``
        returns — and each kernel keeps its own reduction, so every
        candidate's log-likelihood keeps its bits.  Calls with a
        non-integer row, and knowledge without a table (see
        :attr:`_squared_distance_table`), run
        :meth:`log_likelihood_segmented` instead.

        Parameters
        ----------
        axes:
            One ``(xs, ys)`` pair of ascending axis values per row.
        observations:
            Observation vectors, shape ``(k, n_groups)``.
        active:
            Per-row active group sets, as for
            :meth:`log_likelihood_segmented`.

        Returns
        -------
        Flat array of shape ``(sum(len(xs) * len(ys)),)``.
        """
        obs = np.atleast_2d(np.asarray(observations, dtype=np.float64))
        if len(axes) != obs.shape[0]:
            raise ValueError("need one pair of grid axes per observation row")
        xs = [np.asarray(x, dtype=np.float64) for x, _ in axes]
        ys = [np.asarray(y, dtype=np.float64) for _, y in axes]
        nx = np.array([x.size for x in xs], dtype=np.int64)
        ny = np.array([y.size for y in ys], dtype=np.int64)
        counts = nx * ny
        xs_all = np.concatenate([np.zeros(0), *xs])
        ys_all = np.concatenate([np.zeros(0), *ys])
        table = self._squared_distance_table
        if table is None or not (_exact_integers(xs_all) and _exact_integers(ys_all)):
            grids = [np.meshgrid(x, y) for x, y in zip(xs, ys)]
            locations = np.vstack(
                [np.zeros((0, 2))]
                + [np.column_stack([gx.ravel(), gy.ravel()]) for gx, gy in grids]
            )
            return self.log_likelihood_segmented(locations, obs, counts, active=active)

        # Squared offsets of every axis value to every deployment point: the
        # squared distances of row r's grid are one broadcast add of its
        # y-axis block over its x-axis block.
        points = self.deployment_points.astype(np.int64)
        dx2 = xs_all.astype(np.int64)[:, None] - points[:, 0]
        dx2 *= dx2
        dy2 = ys_all.astype(np.int64)[:, None] - points[:, 1]
        dy2 *= dy2
        x_at = np.concatenate([[0], np.cumsum(nx)])
        y_at = np.concatenate([[0], np.cumsum(ny)])
        offsets = np.concatenate([[0], np.cumsum(counts)])

        def squared(row: int, groups, out=None) -> np.ndarray:
            return np.add(
                dy2[y_at[row] : y_at[row + 1], None, groups],
                dx2[None, x_at[row] : x_at[row + 1], groups],
                out=out,
            )

        m = float(self._group_size)
        n = self.n_groups
        rows_active = self._rows_active(obs, counts, active)
        if rows_active is None:
            # Dense: row by row, (m − k) · log(1 − p) is one gather and one
            # product over a cache-sized block.
            pair_squared = np.empty((offsets[-1], n), dtype=np.int64)
            terms = np.empty((offsets[-1], n), dtype=np.float64)
            for row in range(obs.shape[0]):
                shape = (ny[row], nx[row], n)
                block = pair_squared[offsets[row] : offsets[row + 1]].reshape(shape)
                squared(row, slice(None), out=block)
                row_terms = terms[offsets[row] : offsets[row + 1]]
                np.take(table, block, mode="clip", out=row_terms.reshape(shape))
                row_terms *= m - obs[row]
            # Observed pairs, one observed (row, group) at a time: the
            # group's column over every candidate of the row.
            rows, groups = np.nonzero(obs > 0)
            size = counts[rows]
            start = np.repeat(offsets[rows] - (np.cumsum(size) - size), size)
            flat = (start + np.arange(size.sum())) * n + np.repeat(groups, size)
            terms.reshape(-1)[flat] += self._observed_terms(
                np.repeat(obs[rows, groups], size), pair_squared.reshape(-1)[flat]
            )
            out = terms.sum(axis=1)
        else:
            pairs = self._active_pairs(obs, counts, rows_active, squared)
            out = np.zeros(offsets[-1], dtype=np.float64)
            if pairs is not None:
                pair_squared, k, cand = pairs
                terms = (m - k) * np.take(table, pair_squared, mode="clip")
                observed = k > 0
                terms[observed] += self._observed_terms(
                    k[observed], pair_squared[observed]
                )
                out = self._backend.segment_sum(terms, cand, out.size)
        return self._poison_invalid(out, obs, counts)

    def _observed_terms(self, k: np.ndarray, squared: np.ndarray) -> np.ndarray:
        """Binomial coefficient plus ``k · log p`` of observed pairs.

        The observed-pair arithmetic of the numpy backend's segmented
        kernels, with ``p`` from the chain on the correctly rounded
        ``√s``.
        """
        p = self._gz.fast_lookup(np.sqrt(squared.astype(np.float64)))
        with np.errstate(divide="ignore", invalid="ignore"):
            term = self._log_coefficients(k, float(self._group_size)) + k * np.log(p)
        return np.where(p <= 0, -np.inf, term)

    @cached_property
    def _squared_distance_table(self) -> Optional[np.ndarray]:
        """``log(1 − g(√s))`` for every integer ``s`` in ``[0, S]``, or ``None``.

        ``S`` is the smallest integer with ``√S ≥`` :attr:`support_radius`
        (265,053 — 2.1 MB — at the paper's parameters).  Each entry runs
        the chain of the dense kernel (``fast_lookup`` of the correctly
        rounded ``√s``, then ``log(1 − p)``), so a gather returns the bits
        the chain would.  Entries from ``S`` on are exact zeros: the build
        checks them up to two knots past the support radius, beyond which
        every lookup interpolates between knot values of at most
        ``2**-55``.  Built on first use; ``None`` when the table cannot
        stand in for the chain: a backend that is not numpy-exact, a
        ``g(z)`` that reaches one, an infinite support radius, deployment
        points that are not integers, or a table over the cache budget.
        """
        radius = self.support_radius
        knots = self._gz.table.knots
        if (
            not self._backend.numpy_exact
            or not np.isfinite(radius)
            or np.any(self._gz.table.values >= 1.0)
            or not _exact_integers(self.deployment_points)
        ):
            return None
        size = int(np.ceil(radius * radius))
        while size > 0 and np.sqrt(size - 1.0) >= radius:
            size -= 1
        while np.sqrt(float(size)) < radius:
            size += 1
        edge = knots[min(int(np.searchsorted(knots, radius)) + 2, knots.size - 1)]
        last = max(size, int(np.ceil(edge * edge)))
        if 8 * (last + 1) > _CACHE_BUDGET_BYTES:
            return None
        table = np.log(
            1.0 - self._gz.fast_lookup(np.sqrt(np.arange(last + 1, dtype=np.float64)))
        )
        if np.any(table[size:] != 0.0):
            return None
        table = table[: size + 1].copy()
        table.flags.writeable = False
        return table

    def _rows_active(
        self, obs: np.ndarray, counts: np.ndarray, active: Sequence[np.ndarray]
    ) -> Optional[list[np.ndarray]]:
        """Per-row active sets unioned with the observed groups.

        Returns ``None`` when they would cover at least the backend's
        dense-fallback fraction of the ``(candidate, group)`` pairs — the
        dense kernel wins there.  The unions come from one rows × groups
        mask, so the decision costs no per-row set operation.
        """
        if len(active) != obs.shape[0]:
            raise ValueError("need one active-group set per observation row")
        groups = [np.asarray(a, dtype=np.int64) for a in active]
        mask = obs != 0
        if groups:
            rows = np.repeat(np.arange(len(groups)), [g.size for g in groups])
            mask[rows, np.concatenate(groups)] = True
        n_pairs = int((mask.sum(axis=1) * counts).sum())
        if n_pairs >= self._dense_fallback * int(counts.sum()) * self.n_groups:
            return None
        return [np.flatnonzero(row) for row in mask]

    @staticmethod
    def _active_pairs(
        obs: np.ndarray,
        counts: np.ndarray,
        rows_active: Sequence[np.ndarray],
        values: Callable[[int, np.ndarray], np.ndarray],
    ) -> Optional[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Flat ``(values, k, candidate)`` over every row's active pairs.

        Pairs run candidate-major, each candidate's active groups in
        ascending order; ``values(row, groups)`` gives the row's
        ``(candidates, groups)`` block.  ``None`` when no pair is active.
        """
        offsets = np.concatenate([[0], np.cumsum(counts)])
        parts = [
            (
                values(row, groups).ravel(),
                np.tile(obs[row, groups], int(counts[row])),
                np.repeat(np.arange(offsets[row], offsets[row + 1]), groups.size),
            )
            for row, groups in enumerate(rows_active)
            if counts[row] and groups.size
        ]
        if not parts:
            return None
        return tuple(np.concatenate(part) for part in zip(*parts))

    def _poison_invalid(
        self, out: np.ndarray, obs: np.ndarray, counts: np.ndarray
    ) -> np.ndarray:
        """Force the segments of out-of-support observations to ``-inf``.

        Exactly as the reference ``-inf`` masking does: every element of
        such a row is ``-inf`` before the row sum there, so forcing the
        summed value is the same number.
        """
        m = float(self._group_size)
        invalid = np.any((obs < 0) | (obs > m), axis=1)
        if np.any(invalid):
            out[np.repeat(invalid, counts)] = -np.inf
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DeploymentKnowledge(n_groups={self.n_groups}, m={self._group_size}, "
            f"R={self._radio_range:g})"
        )
