"""The beaconless localization scheme (Fang, Du, Ning, INFOCOM 2005).

This is the localization scheme the paper pairs LAD with (Section 7.2).  A
node estimates its own location *without any beacon* by treating its
observation vector — the per-group neighbour counts — as evidence about
where it landed: the number of neighbours seen from group ``i`` is
(approximately) ``Binomial(m, g_i(θ))`` when the node sits at ``θ``, so the
maximum-likelihood estimate is

.. math::

    L_e = \\arg\\max_{\\theta} \\sum_i \\log \\mathrm{Binom}(o_i; m, g_i(\\theta)).

The implementation runs a coarse-to-fine grid search:

1. an initial guess is the observation-weighted centroid of the deployment
   points (cheap and already close for benign observations);
2. the coarse level scores the lattice points of a *shared* region-wide grid
   (spacing ``coarse_step``, anchored at the region origin) that fall inside
   a ``search_margin`` window around the initial guess;
3. the grid is repeatedly refined around the best candidate until the cell
   size drops below ``resolution``.

Because the likelihood surface is smooth at the scale of the deployment-grid
spacing, this converges to the global optimum for all practical observation
vectors while costing only a few thousand ``g(z)`` table lookups.

Batched pipeline
----------------

The paper's entire evaluation reduces to localizing thousands of
observations against one shared :class:`DeploymentKnowledge`, so
:meth:`BeaconlessLocalizer.localize_observations` runs all rows through a
vectorised engine instead of a Python-level loop:

* because the coarse lattice is anchored at the region origin, every row
  draws its coarse candidates from the *same* global lattice.  One
  ``(k, candidates, n_groups)`` kernel —
  :meth:`DeploymentKnowledge.log_likelihood_lattice` — therefore scores all
  ``k`` rows against it as two matrix products, from lattice terms
  (``p``, ``log p``, ``log(1 − p)``) the knowledge builds once per lattice;
  each row then picks its best candidate inside its own search window;
* the refinement levels run in lock-step (the step schedule is
  row-independent): per-row sub-grids are scored by one flat kernel call,
  followed by per-row best-candidate gathers.  With ``prune=True`` (the
  default) that call is :meth:`DeploymentKnowledge.log_likelihood_grids`:
  each row scores only its active groups (or every group, when the active
  sets cover most pairs), and when the candidates and deployment points are
  integers — always, under the paper's defaults — the unobserved
  ``(m − k) · log(1 − p)`` terms are gathers from a per-knowledge table of
  ``log(1 − g(√s))`` over integer squared distances ``s``, whose zero tail
  *is* the support-radius pruning.  ``prune=False`` runs
  :meth:`DeploymentKnowledge.log_likelihood_segmented` over every group
  with the full distance → ``g(z)`` → ``log(1 − p)`` chain per pair: the
  reference the pruned engine is measured and checked against;
* duplicate observation rows are localized once (all-zero rows — whose
  likelihood surface is symmetric and therefore full of exact ties — are
  routed through the per-row reference search so tie-breaking cannot be
  perturbed by kernel rounding).

The per-row :meth:`_search` is kept as the reference implementation.  The
batched kernels read the same ``g(z)`` evaluator and agree with it up to
floating-point rounding (matrix products and the split binomial terms
accumulate differently), which leaves
the per-row argmax — and therefore the estimates — unchanged whenever
candidate likelihoods are separated by more than accumulated rounding;
distinct grid candidates of real observation vectors are separated by many
orders of magnitude more.  The equivalence tests and the
``benchmarks/test_bench_batch_pipeline.py`` speedup benchmark pin down
exact estimate equality on seeded networks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.deployment.knowledge import DeploymentKnowledge
from repro.localization.base import (
    LOCALIZERS,
    LocalizationContext,
    LocalizationResult,
    LocalizationScheme,
)
from repro.types import Region
from repro.utils.validation import check_positive

__all__ = ["BeaconlessLocalizer"]


@LOCALIZERS.register("beaconless_mle", "mle", name="beaconless")
@dataclass
class BeaconlessLocalizer(LocalizationScheme):
    """Maximum-likelihood beaconless localization from group observations.

    Parameters
    ----------
    search_margin:
        Half-width (metres) of the coarse search window centred on the
        observation-weighted centroid of the deployment points.  The default
        of 250 m comfortably covers the deployment-grid spacing (100 m) plus
        the landing spread (σ = 50 m).
    coarse_step:
        Grid spacing of the first search level, metres.  Coarse candidates
        lie on a region-wide lattice with this spacing so that batched
        localization can share their likelihood evaluation across rows.
    resolution:
        Target grid spacing of the final refinement level, metres.  The
        reported estimate is accurate to about this value.
    refine_factor:
        Each refinement level shrinks the grid spacing by this factor.
    coarse_tiers:
        Number of coarse-search tiers.  The default ``1`` scores every
        in-window lattice point densely (the bit-exact historical path).
        ``2`` first scores a ``tier_stride``-subsampled lattice and then
        only the full-lattice points near each row's tier-1 winner,
        cutting the dense group-dimension matmul by ``tier_stride**2`` at
        very large regions; the likelihood surface is smooth at the
        lattice scale, so the same coarse winner emerges for real
        observation vectors (asserted on seeded networks), but the
        two-tier result is not defined to be bit-identical — schemes
        with ``coarse_tiers != 1`` therefore carry a distinct ``repr``
        (and hence distinct artifact-cache keys).
    tier_stride:
        Subsampling stride of the tier-1 lattice when ``coarse_tiers``
        is ``2``.
    """

    search_margin: float = 250.0
    coarse_step: float = 25.0
    resolution: float = 2.0
    refine_factor: float = 5.0
    coarse_tiers: int = 1
    tier_stride: int = 4

    name: str = "beaconless-mle"
    modalities = ("observation",)

    def __post_init__(self) -> None:
        check_positive("search_margin", self.search_margin)
        check_positive("coarse_step", self.coarse_step)
        check_positive("resolution", self.resolution)
        if self.refine_factor <= 1.0:
            raise ValueError("refine_factor must be > 1")
        if self.coarse_step > 2 * self.search_margin:
            raise ValueError("coarse_step must not exceed the search window")
        if self.coarse_tiers not in (1, 2):
            raise ValueError("coarse_tiers must be 1 (dense) or 2 (hierarchical)")
        if self.tier_stride < 2:
            raise ValueError("tier_stride must be at least 2")

    def __repr__(self) -> str:
        # The repr feeds artifact-cache fingerprints, so the hierarchical
        # fields appear only when they can change results: the default
        # one-tier form stays byte-identical to the historical repr and
        # keeps hitting pre-existing cache entries.
        extra = ""
        if self.coarse_tiers != 1:
            extra = (
                f", coarse_tiers={self.coarse_tiers!r}"
                f", tier_stride={self.tier_stride!r}"
            )
        return (
            f"{type(self).__name__}(search_margin={self.search_margin!r}, "
            f"coarse_step={self.coarse_step!r}, resolution={self.resolution!r}, "
            f"refine_factor={self.refine_factor!r}, name={self.name!r}{extra})"
        )

    # -- public API ----------------------------------------------------------

    def localize(self, context: LocalizationContext, rng=None) -> LocalizationResult:
        if context.observation is None or context.knowledge is None:
            raise ValueError(
                "the beaconless scheme needs both an observation and "
                "deployment knowledge"
            )
        position, loglik, iterations = self._search(
            context.knowledge, np.asarray(context.observation, dtype=np.float64)
        )
        return LocalizationResult(
            position=position,
            converged=True,
            iterations=iterations,
            log_likelihood=loglik,
        )

    def localize_observations(
        self,
        knowledge: DeploymentKnowledge,
        observations: np.ndarray,
        *,
        batched: bool = True,
        prune: bool = True,
    ) -> np.ndarray:
        """Batch entry point: estimate one location per observation row.

        Parameters
        ----------
        knowledge:
            Shared deployment knowledge.
        observations:
            Array of shape ``(k, n_groups)``.
        batched:
            When ``True`` (default) all rows are localized by the vectorised
            engine (shared coarse lattice + lock-step refinement); when
            ``False`` each row runs the per-row reference :meth:`_search`.
            Both paths produce the same estimates.
        prune:
            When ``True`` (default) the refinement levels score only each
            row's active group set (groups within the knowledge's support
            radius of the row's search window, plus observed groups); the
            skipped likelihood terms are exact zeros, so the estimates are
            unchanged.  Dense deployments whose active sets cover most
            groups fall back to the dense kernel automatically.  Either
            way, integer candidates against integer deployment points read
            their unobserved terms from the knowledge's squared-distance
            table instead of running the ``g(z)`` chain per pair, with
            bit-identical candidate likelihoods.  ``False`` keeps the full
            chain over every group: the reference path.

        Returns
        -------
        Array of shape ``(k, 2)`` with the estimated locations.
        """
        observations = np.asarray(observations, dtype=np.float64)
        if observations.ndim == 1:
            observations = observations[None, :]
        if not batched:
            out = np.empty((observations.shape[0], 2), dtype=np.float64)
            for row, obs in enumerate(observations):
                out[row], _, _ = self._search(knowledge, obs)
            return out
        return self._search_batch(knowledge, observations, prune=prune)

    # -- candidate grids -----------------------------------------------------

    @staticmethod
    def initial_guess(
        knowledge: DeploymentKnowledge,
        observation: np.ndarray,
    ) -> np.ndarray:
        """Observation-weighted centroid of the deployment points.

        When the node heard nobody the centre of the region is returned.
        """
        weights = np.clip(np.asarray(observation, dtype=np.float64), 0.0, None)
        total = weights.sum()
        if total <= 0:
            return knowledge.region.center
        return (weights[:, None] * knowledge.deployment_points).sum(axis=0) / total

    def _coarse_lattice(self, region: Region) -> tuple[np.ndarray, np.ndarray]:
        """Axes of the region-wide coarse lattice shared by all searches."""
        step = self.coarse_step

        def axis(lo: float, hi: float) -> np.ndarray:
            values = np.arange(lo, hi + step / 2, step)
            values = values[values <= hi]
            if values.size == 0 or values[-1] < hi:
                values = np.append(values, hi)
            return values

        return axis(region.x_min, region.x_max), axis(region.y_min, region.y_max)

    def _axis_window(self, axis: np.ndarray, center: float) -> np.ndarray:
        """Lattice values within ``search_margin`` of *center* (never empty)."""
        window = axis[
            (axis >= center - self.search_margin)
            & (axis <= center + self.search_margin)
        ]
        if window.size == 0:  # pragma: no cover - needs margin < step / 2
            window = axis[[int(np.argmin(np.abs(axis - center)))]]
        return window

    @staticmethod
    def _grid_from_axes(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Candidate points of an axis-aligned grid, y-major / x-minor order."""
        gx, gy = np.meshgrid(xs, ys)
        return np.column_stack([gx.ravel(), gy.ravel()])

    def _candidate_axes(
        self, center: np.ndarray, half_width: float, step: float, region: Region
    ) -> tuple[np.ndarray, np.ndarray]:
        """Axes of the candidate grid around *center*, clipped to the region."""
        xs = np.arange(center[0] - half_width, center[0] + half_width + step / 2, step)
        ys = np.arange(center[1] - half_width, center[1] + half_width + step / 2, step)
        xs = np.unique(np.clip(xs, region.x_min, region.x_max))
        ys = np.unique(np.clip(ys, region.y_min, region.y_max))
        return xs, ys

    def _candidate_grid(
        self, center: np.ndarray, half_width: float, step: float, region: Region
    ) -> np.ndarray:
        """Axis-aligned candidate grid clipped to the deployment region."""
        return self._grid_from_axes(
            *self._candidate_axes(center, half_width, step, region)
        )

    def _candidate_grids_batch(
        self, centers: np.ndarray, half_width: float, step: float, region: Region
    ) -> tuple[np.ndarray, np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
        """Per-row refinement grids, built without a per-row numpy cascade.

        Interior rows all share the same grid shape and offset arithmetic
        (``np.arange`` fills ``start + i · step`` element by element, which
        broadcasting reproduces exactly), so their grids come from one
        vectorised construction.  Rows whose window crosses the region
        boundary — where clipping merges candidates — fall back to
        :meth:`_candidate_axes`; both constructions enumerate candidates in
        the same y-major order.

        Returns ``(points, counts, axes)``: the concatenated candidates, the
        number of candidates per row, and each row's ``(xs, ys)`` axes.
        """
        k = centers.shape[0]
        offsets = np.arange(
            np.ceil((2 * half_width + step / 2) / step).astype(np.int64)
        ) * step
        xs = centers[:, 0][:, None] - half_width + offsets[None, :]
        ys = centers[:, 1][:, None] - half_width + offsets[None, :]
        np.clip(xs, region.x_min, region.x_max, out=xs)
        np.clip(ys, region.y_min, region.y_max, out=ys)
        clean = (
            np.all(np.diff(xs, axis=1) > 0, axis=1)
            & np.all(np.diff(ys, axis=1) > 0, axis=1)
        )
        n = offsets.size
        grid_x = np.broadcast_to(xs[:, None, :], (k, n, n))
        grid_y = np.broadcast_to(ys[:, :, None], (k, n, n))
        stacked = np.stack([grid_x, grid_y], axis=-1).reshape(k, n * n, 2)
        axes = [
            (xs[row], ys[row])
            if clean[row]
            else self._candidate_axes(centers[row], half_width, step, region)
            for row in range(k)
        ]
        grids = [
            stacked[row] if clean[row] else self._grid_from_axes(*axes[row])
            for row in range(k)
        ]
        counts = np.array([grid.shape[0] for grid in grids], dtype=np.int64)
        return np.vstack(grids), counts, axes

    # -- per-row reference search --------------------------------------------

    def _search(
        self, knowledge: DeploymentKnowledge, observation: np.ndarray
    ) -> tuple[np.ndarray, float, int]:
        """Coarse-to-fine grid search for a single observation.

        This is the reference implementation the batched engine must agree
        with; both evaluate the same candidate sets in the same order.
        """
        region = knowledge.region
        center = self.initial_guess(knowledge, observation)
        xs_full, ys_full = self._coarse_lattice(region)
        candidates = self._grid_from_axes(
            self._axis_window(xs_full, center[0]),
            self._axis_window(ys_full, center[1]),
        )
        step = self.coarse_step
        best = center
        best_ll = -np.inf
        iterations = 0

        while True:
            iterations += 1
            lls = knowledge.log_likelihood(candidates, observation)
            idx = int(np.argmax(lls))
            if lls[idx] > best_ll:
                best_ll = float(lls[idx])
                best = candidates[idx]
            if step <= self.resolution:
                break
            half_width = step  # next level only needs to cover one cell
            step = max(step / self.refine_factor, self.resolution)
            candidates = self._candidate_grid(best, half_width, step, region)

        return np.asarray(best, dtype=np.float64), best_ll, iterations

    # -- batched engine ------------------------------------------------------

    def _search_batch(
        self,
        knowledge: DeploymentKnowledge,
        observations: np.ndarray,
        *,
        prune: bool = True,
    ) -> np.ndarray:
        """Localize every observation row through the vectorised engine.

        Duplicate rows are localized once; all-zero (and non-positive) rows
        are delegated to the per-row reference because their symmetric
        likelihood surface is decided by exact floating-point ties that only
        the reference's evaluation order reproduces.
        """
        unique, inverse = np.unique(observations, axis=0, return_inverse=True)
        estimates = np.empty((unique.shape[0], 2), dtype=np.float64)

        degenerate = unique.sum(axis=1) <= 0
        for row in np.flatnonzero(degenerate):
            estimates[row], _, _ = self._search(knowledge, unique[row])
        regular = np.flatnonzero(~degenerate)
        if regular.size:
            estimates[regular] = self._batch_core(
                knowledge, unique[regular], prune=prune
            )
        return estimates[np.asarray(inverse).ravel()]

    def _batch_core(
        self,
        knowledge: DeploymentKnowledge,
        observations: np.ndarray,
        *,
        prune: bool = True,
    ) -> np.ndarray:
        """Shared-lattice coarse scoring + lock-step refinement for all rows.

        The coarse level stays dense in the group dimension (its lattice is
        shared by all rows, so the matmul kernel amortises it); the
        refinement levels thread each row's active group set — groups within
        the support radius of the row's search window — through the
        segmented kernel, which skips the ``(candidate, group)`` pairs whose
        likelihood terms are exact zeros.
        """
        region = knowledge.region
        k = observations.shape[0]
        backend = knowledge.backend
        prune = prune and np.isfinite(knowledge.support_radius)

        # Vectorised initial guesses: the observation-weighted centroids of
        # the deployment points (every row has a positive weight total here;
        # non-positive rows were routed to the reference search).
        weights = np.clip(observations, 0.0, None)
        centers = weights @ knowledge.deployment_points
        centers /= weights.sum(axis=1)[:, None]

        # Coarse level: one (k, candidates) kernel over the shared lattice,
        # then per-row argmax restricted to each row's search window.  The
        # lattice stays dense in the group dimension, but lattice points
        # inside no row's window are dropped up front: every kernel entry is
        # an independent dot product, so the surviving columns are bitwise
        # unchanged and the per-row argmax (which masks out-of-window
        # candidates to -inf anyway) picks the same winner.  The lattice's
        # likelihood terms are built once per knowledge and sliced by the
        # covered mask (``log_likelihood_lattice``).
        xs_full, ys_full = self._coarse_lattice(region)
        lattice = self._grid_from_axes(xs_full, ys_full)
        margin = self.search_margin
        in_window = (
            (lattice[None, :, 0] >= centers[:, 0, None] - margin)
            & (lattice[None, :, 0] <= centers[:, 0, None] + margin)
            & (lattice[None, :, 1] >= centers[:, 1, None] - margin)
            & (lattice[None, :, 1] <= centers[:, 1, None] + margin)
        )
        covered = in_window.any(axis=0)
        candidates = lattice[covered]
        in_window = in_window[:, covered]
        if self.coarse_tiers == 2:
            coarse_pos, values = self._coarse_hierarchical(
                knowledge, candidates, in_window, observations, prune=prune
            )
        else:
            lls = knowledge.log_likelihood_lattice(lattice, covered, observations)
            lls = np.where(in_window, lls, -np.inf)
            idx, values = backend.rowwise_argmax(lls)
            coarse_pos = candidates[idx]

        best = centers.copy()
        best_ll = np.full(k, -np.inf)
        update = values > best_ll
        best[update] = coarse_pos[update]
        best_ll[update] = values[update]

        # Refinement levels in lock-step: the step schedule is shared, the
        # per-row sub-grids are concatenated into one segmented kernel call
        # followed by one segmented argmax (same first-max winner per row
        # as the historical per-row argmax loop, without the Python pass).
        step = self.coarse_step
        while step > self.resolution:
            half_width = step
            step = max(step / self.refine_factor, self.resolution)
            stacked, counts, axes = self._candidate_grids_batch(
                best, half_width, step, region
            )
            if prune:
                # Candidates lie within the (clipped) square of half-width
                # ``half_width`` around each row's current best, so a ball of
                # ``support + half_width * sqrt(2)`` around the centre covers
                # every group any candidate of the row could interact with.
                reach = knowledge.support_radius + half_width * np.sqrt(2.0)
                active = knowledge.active_groups(best, radius=reach)
                flat = knowledge.log_likelihood_grids(axes, observations, active)
            else:
                flat = knowledge.log_likelihood_segmented(stacked, observations, counts)
            seg_idx, seg_best = backend.segment_argmax(flat, counts)
            update = seg_best > best_ll
            best_ll[update] = seg_best[update]
            best[update] = stacked[seg_idx[update]]

        return best

    def _coarse_hierarchical(
        self,
        knowledge: DeploymentKnowledge,
        lattice: np.ndarray,
        in_window: np.ndarray,
        observations: np.ndarray,
        *,
        prune: bool = True,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Two-tier coarse search over the shared lattice.

        Tier 1 scores a ``tier_stride``-subsampled lattice with the dense
        matmul kernel; tier 2 re-scores only the full-lattice points within
        one tier-1 cell (Chebyshev radius ``tier_stride * coarse_step``) of
        each row's tier-1 winner through the segmented kernel.  Every row's
        tier-1 winner is itself a full-lattice in-window point, so tier-2
        candidate sets are never empty and the returned value never falls
        below the tier-1 score.

        Returns ``(positions, values)``: the per-row coarse winner and its
        log-likelihood.
        """
        backend = knowledge.backend
        k = observations.shape[0]
        stride = int(self.tier_stride)

        # Tier 1: stride-subsample the surviving lattice spatially (unique
        # axis values, every stride-th coordinate in each dimension).
        xs = np.unique(lattice[:, 0])
        ys = np.unique(lattice[:, 1])
        sub_x = np.isin(lattice[:, 0], xs[::stride])
        sub_y = np.isin(lattice[:, 1], ys[::stride])
        sub = sub_x & sub_y
        # Keep each row's window non-empty at tier 1: rows whose window
        # misses every subsampled point fall back to their full window.
        window_sub = in_window[:, sub]
        empty = ~window_sub.any(axis=1)
        if np.any(empty):  # pragma: no cover - needs margin < stride * step
            sub = np.ones(lattice.shape[0], dtype=bool)
            window_sub = in_window
        lls1 = knowledge.log_likelihood_batch(lattice[sub], observations)
        lls1 = np.where(window_sub, lls1, -np.inf)
        idx1, _ = backend.rowwise_argmax(lls1)
        winners = lattice[sub][idx1]

        # Tier 2: full-lattice points inside the row window and within one
        # tier-1 cell of the winner, scored through the segmented kernel.
        reach = stride * self.coarse_step
        near = (
            in_window
            & (np.abs(lattice[None, :, 0] - winners[:, 0, None]) <= reach)
            & (np.abs(lattice[None, :, 1] - winners[:, 1, None]) <= reach)
        )
        grids = [lattice[near[row]] for row in range(k)]
        counts = np.array([grid.shape[0] for grid in grids], dtype=np.int64)
        active = None
        if prune:
            active = knowledge.active_groups(
                winners, radius=knowledge.support_radius + reach * np.sqrt(2.0)
            )
        stacked = np.vstack(grids)
        flat = knowledge.log_likelihood_segmented(
            stacked, observations, counts, active=active
        )
        idx2, values = backend.segment_argmax(flat, counts)
        return stacked[idx2], values
