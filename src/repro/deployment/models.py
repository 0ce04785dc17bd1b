"""Group-based deployment models (paper Section 3.1).

A deployment model is the pair *(deployment points, resident-point
distribution)* plus the deployment region.  The paper arranges the
deployment points on a regular grid (Figure 1); the scheme extends directly
to hexagonal and random layouts, which are provided here too so the
detection pipeline can be exercised on other deployment strategies.
"""

from __future__ import annotations

import abc
from typing import Optional

import numpy as np

from repro.deployment.distributions import (
    GaussianResidentDistribution,
    ResidentPointDistribution,
)
from repro.registry import Registry
from repro.types import PAPER_REGION, Region, as_points
from repro.utils.rng import as_generator
from repro.utils.validation import check_int

__all__ = [
    "DeploymentModel",
    "GridDeploymentModel",
    "HexDeploymentModel",
    "RandomDeploymentModel",
    "PrebuiltDeploymentModel",
    "DEPLOYMENTS",
    "resolve_deployment_model",
    "paper_deployment_model",
]

#: Registry of deployment models; alternative layouts plug in with
#: ``@DEPLOYMENTS.register(...)`` (also exposed as
#: :func:`repro.deployment.register`).
DEPLOYMENTS = Registry("deployment model")


class DeploymentModel(abc.ABC):
    """Base class bundling deployment points, region and landing distribution."""

    def __init__(
        self,
        region: Region,
        distribution: ResidentPointDistribution,
    ):
        self._region = region
        self._distribution = distribution

    # -- abstract ----------------------------------------------------------

    @property
    @abc.abstractmethod
    def deployment_points(self) -> np.ndarray:
        """Array of shape ``(n_groups, 2)`` with the group deployment points."""

    # -- concrete ----------------------------------------------------------

    @property
    def region(self) -> Region:
        """The deployment region."""
        return self._region

    @property
    def distribution(self) -> ResidentPointDistribution:
        """Resident-point distribution shared by all groups."""
        return self._distribution

    @property
    def n_groups(self) -> int:
        """Number of deployment groups (``n`` in the paper)."""
        return int(self.deployment_points.shape[0])

    def sample_group(
        self, rng: np.random.Generator, group: int, size: int
    ) -> np.ndarray:
        """Sample *size* resident points for group *group*."""
        check_int("group", group, minimum=0, maximum=self.n_groups - 1)
        center = self.deployment_points[group]
        return self._distribution.sample(rng, center, size)

    def sample_network_positions(
        self, rng, group_size: int, *, clip_to_region: bool = False
    ) -> tuple[np.ndarray, np.ndarray]:
        """Sample resident points for every group.

        Parameters
        ----------
        rng:
            Seed or generator.
        group_size:
            Number of sensors per group (``m`` in the paper).
        clip_to_region:
            When ``True`` resident points falling outside the deployment
            region are clamped onto its boundary.  The paper does not clip
            (sensors may land slightly outside the field), so the default is
            ``False``.

        Returns
        -------
        positions, group_ids:
            ``positions`` has shape ``(n_groups * group_size, 2)`` and
            ``group_ids`` the matching group index per row.
        """
        rng = as_generator(rng)
        check_int("group_size", group_size, minimum=1)
        n = self.n_groups
        offsets = self._distribution.sample_offsets(rng, n * group_size)
        centers = np.repeat(self.deployment_points, group_size, axis=0)
        positions = centers + offsets
        if clip_to_region:
            positions = self._region.clip(positions)
        group_ids = np.repeat(np.arange(n, dtype=np.int64), group_size)
        return positions, group_ids

    def distances_to_groups(self, locations, groups=None) -> np.ndarray:
        """Distances from each location to every deployment point.

        Returns an array of shape ``(k, n_groups)`` — the ``z`` values fed
        into ``g(z)`` when computing expected observations.  Evaluated with
        :func:`scipy.spatial.distance.cdist`, whose C loop is an order of
        magnitude faster than broadcasting the difference array while
        producing bit-identical distances.

        Parameters
        ----------
        locations:
            Query locations, shape ``(k, 2)``.
        groups:
            Optional group indices restricting the columns; the pruned
            likelihood kernels only pay for the distances they will use.
            ``cdist`` evaluates every pair independently, so the returned
            sub-matrix is bit-identical to the same columns of the full one.
        """
        from scipy.spatial.distance import cdist

        points = self.deployment_points
        if groups is not None:
            points = points[np.asarray(groups, dtype=np.int64)]
        locs = as_points(locations)
        if locs.shape[0] == 0 or points.shape[0] == 0:
            return np.empty((locs.shape[0], points.shape[0]), dtype=np.float64)
        return cdist(locs, points)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(n_groups={self.n_groups}, "
            f"region={self._region!r}, distribution={self._distribution!r})"
        )


@DEPLOYMENTS.register()
class GridDeploymentModel(DeploymentModel):
    """Deployment points at the centres of a ``rows x cols`` grid (Figure 1).

    The paper's evaluation uses a 1000 m x 1000 m region divided into
    10 x 10 cells of 100 m x 100 m, with the deployment point at each cell
    centre and ``σ = 50`` m.
    """

    name = "grid"

    def __init__(
        self,
        region: Region = PAPER_REGION,
        rows: int = 10,
        cols: int = 10,
        distribution: Optional[ResidentPointDistribution] = None,
    ):
        super().__init__(region, distribution or GaussianResidentDistribution(50.0))
        self._rows = check_int("rows", rows, minimum=1)
        self._cols = check_int("cols", cols, minimum=1)
        cell_w = region.width / cols
        cell_h = region.height / rows
        xs = region.x_min + cell_w * (np.arange(cols) + 0.5)
        ys = region.y_min + cell_h * (np.arange(rows) + 0.5)
        gx, gy = np.meshgrid(xs, ys)
        self._points = np.column_stack([gx.ravel(), gy.ravel()])

    @property
    def rows(self) -> int:
        """Number of grid rows."""
        return self._rows

    @property
    def cols(self) -> int:
        """Number of grid columns."""
        return self._cols

    @property
    def deployment_points(self) -> np.ndarray:
        view = self._points.view()
        view.flags.writeable = False
        return view


@DEPLOYMENTS.register("hexagon")
class HexDeploymentModel(DeploymentModel):
    """Deployment points on a hexagonal (offset-row) lattice.

    Mentioned in the paper as an alternative arrangement ("deployment points
    form hexagon shapes").  Rows are spaced ``spacing * sqrt(3)/2`` apart and
    every other row is shifted by half a spacing.
    """

    name = "hex"

    def __init__(
        self,
        region: Region = PAPER_REGION,
        spacing: float = 100.0,
        distribution: Optional[ResidentPointDistribution] = None,
    ):
        super().__init__(region, distribution or GaussianResidentDistribution(50.0))
        if spacing <= 0:
            raise ValueError("spacing must be > 0")
        self._spacing = float(spacing)
        row_height = spacing * np.sqrt(3.0) / 2.0
        points = []
        y = region.y_min + row_height / 2.0
        row = 0
        while y <= region.y_max:
            offset = 0.0 if row % 2 == 0 else spacing / 2.0
            x = region.x_min + spacing / 2.0 + offset
            while x <= region.x_max:
                points.append((x, y))
                x += spacing
            y += row_height
            row += 1
        if not points:
            raise ValueError("spacing too large: no deployment point fits the region")
        self._points = np.asarray(points, dtype=np.float64)

    @property
    def spacing(self) -> float:
        """Horizontal distance between adjacent deployment points."""
        return self._spacing

    @property
    def deployment_points(self) -> np.ndarray:
        view = self._points.view()
        view.flags.writeable = False
        return view


@DEPLOYMENTS.register("uniform")
class RandomDeploymentModel(DeploymentModel):
    """Deployment points drawn uniformly at random from the region.

    The paper notes the scheme works "as long as their locations are given
    to all sensors"; this model covers that case and is used in tests and
    the ablation study on deployment-knowledge accuracy.
    """

    name = "random"

    def __init__(
        self,
        region: Region = PAPER_REGION,
        n_groups: int = 100,
        distribution: Optional[ResidentPointDistribution] = None,
        rng=None,
    ):
        super().__init__(region, distribution or GaussianResidentDistribution(50.0))
        check_int("n_groups", n_groups, minimum=1)
        generator = as_generator(rng)
        self._points = region.sample_uniform(generator, n_groups)

    @property
    def deployment_points(self) -> np.ndarray:
        view = self._points.view()
        view.flags.writeable = False
        return view


class PrebuiltDeploymentModel(DeploymentModel):
    """A deployment model over externally supplied deployment points.

    The counterpart of the layout-generating models above: builds a model
    from an existing points array (say, one loaded from disk) without
    re-deriving any layout.  All concrete :class:`DeploymentModel`
    behaviour works off the points array, so distances — and therefore
    likelihoods — are bit-identical to the model the points came from.
    Deliberately not registered in :data:`DEPLOYMENTS` (it cannot be built
    from a name alone).
    """

    name = "prebuilt"

    def __init__(
        self,
        region: Region,
        deployment_points,
        distribution: Optional[ResidentPointDistribution] = None,
    ):
        super().__init__(region, distribution or GaussianResidentDistribution(50.0))
        points = as_points(deployment_points)
        if points.shape[0] == 0:
            raise ValueError("deployment_points must contain at least one point")
        self._points = points

    @property
    def deployment_points(self) -> np.ndarray:
        view = self._points.view()
        view.flags.writeable = False
        return view


def resolve_deployment_model(model, **kwargs) -> DeploymentModel:
    """Resolve a deployment-model name through :data:`DEPLOYMENTS`.

    Instances pass through unchanged; names are created with *kwargs*
    forwarded to the model constructor.
    """
    return DEPLOYMENTS.resolve(model, **kwargs)


def paper_deployment_model(sigma: float = 50.0) -> GridDeploymentModel:
    """The exact deployment model of the paper's evaluation (Section 7.1).

    1000 m x 1000 m region, 10 x 10 grid of deployment points at the cell
    centres, two-dimensional Gaussian landing distribution with ``σ`` = 50 m.
    """
    return GridDeploymentModel(
        region=PAPER_REGION,
        rows=10,
        cols=10,
        distribution=GaussianResidentDistribution(sigma),
    )
