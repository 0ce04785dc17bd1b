"""The neighbourhood probability ``g(z)`` of Theorem 1 and its lookup table.

``g(z)`` is the probability that a sensor from a deployment group whose
deployment point is ``z`` metres away lands within radio range ``R`` of the
querying sensor, given that landing offsets follow the isotropic Gaussian of
Section 3.2.  Equation (1) of the paper:

.. math::

    g(z) = \\mathbf{1}\\{z < R\\}\\Big[1 - e^{-(R-z)^2 / 2\\sigma^2}\\Big]
          + \\int_{|z-R|}^{z+R} \\frac{1}{2\\pi\\sigma^2} e^{-\\ell^2/2\\sigma^2}
            \\; 2\\ell \\cos^{-1}\\!\\Big(\\frac{\\ell^2 + z^2 - R^2}{2\\ell z}\\Big)
            \\, d\\ell

The first term is the Rayleigh probability of landing inside the disk of
radius ``R − z`` (which lies entirely within the neighbourhood), and the
integral accumulates, ring by ring, the fraction of each ring of radius
``ℓ`` around the deployment point that intersects the neighbourhood disk.

Four implementations are provided:

* :func:`gz_exact` — adaptive quadrature of Eq. (1) (reference accuracy);
* :func:`gz_quadrature` — fixed-order Gauss–Legendre quadrature of Eq. (1),
  vectorised over ``z`` (used to build tables quickly);
* :func:`gz_polar_integration` — independent evaluation via direct polar
  integration of the Gaussian over the neighbourhood disk (cross-check, this
  route never uses the Theorem 1 algebra);
* :func:`gz_monte_carlo` — plain Monte-Carlo estimate (cross-check).

:class:`GzTable` is the table-lookup approximation of Section 3.3: ``g`` is
pre-computed at ``ω + 1`` points and queries are answered by linear
interpolation in constant time.  It is the one ``g`` evaluator: the
localization kernels, threshold training and every metric's ``µ`` read
the same bits for the same distance.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy import integrate

from repro.utils.rng import as_generator
from repro.utils.tables import LookupTable1D
from repro.utils.validation import check_int, check_positive

__all__ = [
    "gz_exact",
    "gz_quadrature",
    "gz_polar_integration",
    "gz_monte_carlo",
    "GzTable",
]

#: Distances below this threshold are treated as "at the deployment point",
#: where Eq. (1) degenerates (division by ``z``) and the exact value is the
#: Rayleigh CDF at ``R``.
_Z_EPSILON = 1e-9


def _rayleigh_cdf(r: np.ndarray, sigma: float) -> np.ndarray:
    """P(landing distance <= r) for the Gaussian landing distribution."""
    r = np.asarray(r, dtype=np.float64)
    return 1.0 - np.exp(-np.clip(r, 0.0, None) ** 2 / (2.0 * sigma**2))


def _integrand(
    ell: np.ndarray,
    z: float,
    radio_range: float,
    sigma: float,
) -> np.ndarray:
    """Integrand of Eq. (1) at ring radius ``ell`` for a scalar ``z``."""
    ell = np.asarray(ell, dtype=np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        cos_arg = (ell**2 + z**2 - radio_range**2) / (2.0 * ell * z)
    cos_arg = np.clip(cos_arg, -1.0, 1.0)
    density = np.exp(-(ell**2) / (2.0 * sigma**2)) / (2.0 * np.pi * sigma**2)
    return density * 2.0 * ell * np.arccos(cos_arg)


def gz_exact(z, radio_range: float, sigma: float) -> np.ndarray:
    """Evaluate Eq. (1) with adaptive quadrature (``scipy.integrate.quad``).

    Accurate to quadrature tolerance but evaluates one adaptive integral per
    distinct ``z`` value, so it is intended for validation and table
    construction rather than hot loops.
    """
    radio_range = check_positive("radio_range", radio_range)
    sigma = check_positive("sigma", sigma)
    z_arr = np.atleast_1d(np.asarray(z, dtype=np.float64))
    if np.any(z_arr < 0):
        raise ValueError("z must be >= 0")
    out = np.empty_like(z_arr)
    for i, zi in enumerate(z_arr):
        if zi < _Z_EPSILON:
            out[i] = _rayleigh_cdf(radio_range, sigma)
            continue
        first = 0.0
        if zi < radio_range:
            first = float(_rayleigh_cdf(radio_range - zi, sigma))
        lo, hi = abs(zi - radio_range), zi + radio_range
        integral, _ = integrate.quad(
            _integrand, lo, hi, args=(float(zi), radio_range, sigma), limit=200
        )
        out[i] = first + integral
    out = np.clip(out, 0.0, 1.0)
    if np.isscalar(z) or np.asarray(z).ndim == 0:
        return float(out[0])
    return out


def gz_quadrature(
    z, radio_range: float, sigma: float, *, order: int = 256
) -> np.ndarray:
    """Evaluate Eq. (1) with fixed-order Gauss–Legendre quadrature.

    Vectorised over ``z``: the quadrature nodes of every ``z`` value are
    evaluated in a single ``(len(z), order)`` array operation, which makes
    building dense tables cheap.
    """
    radio_range = check_positive("radio_range", radio_range)
    sigma = check_positive("sigma", sigma)
    check_int("order", order, minimum=2)
    z_arr = np.atleast_1d(np.asarray(z, dtype=np.float64))
    if np.any(z_arr < 0):
        raise ValueError("z must be >= 0")

    nodes, weights = np.polynomial.legendre.leggauss(int(order))

    lo = np.abs(z_arr - radio_range)
    hi = z_arr + radio_range
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    # ``ell`` has shape (len(z), order).
    ell = mid[:, None] + half[:, None] * nodes[None, :]

    z_col = z_arr[:, None]
    with np.errstate(invalid="ignore", divide="ignore"):
        cos_arg = (ell**2 + z_col**2 - radio_range**2) / (2.0 * ell * z_col)
    cos_arg = np.clip(cos_arg, -1.0, 1.0)
    density = np.exp(-(ell**2) / (2.0 * sigma**2)) / (2.0 * np.pi * sigma**2)
    integrand = density * 2.0 * ell * np.arccos(cos_arg)
    integral = half * np.einsum("ij,j->i", integrand, weights)

    first = np.where(
        z_arr < radio_range, _rayleigh_cdf(radio_range - z_arr, sigma), 0.0
    )
    out = np.clip(first + integral, 0.0, 1.0)
    # The z -> 0 limit is handled exactly.
    out = np.where(z_arr < _Z_EPSILON, _rayleigh_cdf(radio_range, sigma), out)
    if np.isscalar(z) or np.asarray(z).ndim == 0:
        return float(out[0])
    return out


def gz_polar_integration(
    z,
    radio_range: float,
    sigma: float,
    *,
    angular_order: int = 256,
    radial_order: int = 256,
) -> np.ndarray:
    """Independent evaluation of ``g(z)`` without using the Theorem 1 algebra.

    Integrates the two-dimensional Gaussian directly over the neighbourhood
    disk in polar coordinates *centred at the sensor*: for each direction
    ``φ`` and radius ``r ≤ R`` the point ``(z + r cosφ, r sinφ)`` (relative
    to the deployment point) contributes
    ``f(point) · r``.  Used by the test-suite to validate Theorem 1.
    """
    radio_range = check_positive("radio_range", radio_range)
    sigma = check_positive("sigma", sigma)
    z_arr = np.atleast_1d(np.asarray(z, dtype=np.float64))
    if np.any(z_arr < 0):
        raise ValueError("z must be >= 0")

    r_nodes, r_weights = np.polynomial.legendre.leggauss(int(radial_order))
    a_nodes, a_weights = np.polynomial.legendre.leggauss(int(angular_order))
    # Map radial nodes to (0, R), angular nodes to (0, 2*pi).
    r = 0.5 * radio_range * (r_nodes + 1.0)
    rw = 0.5 * radio_range * r_weights
    phi = np.pi * (a_nodes + 1.0)
    pw = np.pi * a_weights

    # Squared distance from the deployment point to the sample point, for
    # every (z, r, phi) combination: shape (nz, nr, nphi).
    cos_phi = np.cos(phi)[None, None, :]
    r_grid = r[None, :, None]
    z_grid = z_arr[:, None, None]
    sq = z_grid**2 + r_grid**2 + 2.0 * z_grid * r_grid * cos_phi
    density = np.exp(-sq / (2.0 * sigma**2)) / (2.0 * np.pi * sigma**2)
    integrand = density * r_grid
    out = np.einsum("ijk,j,k->i", integrand, rw, pw)
    out = np.clip(out, 0.0, 1.0)
    if np.isscalar(z) or np.asarray(z).ndim == 0:
        return float(out[0])
    return out


def gz_monte_carlo(
    z, radio_range: float, sigma: float, *, samples: int = 200_000, rng=None
) -> np.ndarray:
    """Monte-Carlo estimate of ``g(z)`` by sampling landing offsets."""
    radio_range = check_positive("radio_range", radio_range)
    sigma = check_positive("sigma", sigma)
    check_int("samples", samples, minimum=1)
    generator = as_generator(rng)
    z_arr = np.atleast_1d(np.asarray(z, dtype=np.float64))
    offsets = generator.normal(0.0, sigma, size=(int(samples), 2))
    out = np.empty_like(z_arr)
    for i, zi in enumerate(z_arr):
        dx = offsets[:, 0] - zi
        dy = offsets[:, 1]
        out[i] = np.mean(dx * dx + dy * dy <= radio_range * radio_range)
    if np.isscalar(z) or np.asarray(z).ndim == 0:
        return float(out[0])
    return out


class GzTable:
    """Constant-time table-lookup approximation of ``g(z)`` (Section 3.3).

    The range ``[0, z_max]`` is divided into ``ω`` equal sub-ranges; ``g`` is
    pre-computed at the ``ω + 1`` dividing points with
    :func:`gz_quadrature`, and queries interpolate linearly between the two
    surrounding knots, found by index arithmetic (the result is
    ``np.interp``'s, bit for bit).  Distances beyond ``z_max`` clamp to
    ``g(z_max)`` (which is chosen so that the value there is negligible).

    Parameters
    ----------
    radio_range:
        Wireless transmission range ``R`` in metres.
    sigma:
        Standard deviation of the Gaussian landing distribution.
    omega:
        Number of sub-ranges (``ω`` in the paper).  The default of 1000
        keeps the interpolation error far below any statistical noise; the
        ablation benchmark shows a few hundred already suffices.
    z_max:
        Upper end of the tabulated range.  Defaults to
        ``radio_range + 6 σ + 1`` (beyond which ``g`` is effectively zero)
        unless a larger value is requested.
    """

    def __init__(
        self,
        radio_range: float,
        sigma: float,
        *,
        omega: int = 1000,
        z_max: Optional[float] = None,
        quadrature_order: int = 256,
    ):
        self._radio_range = check_positive("radio_range", radio_range)
        self._sigma = check_positive("sigma", sigma)
        self._omega = check_int("omega", omega, minimum=1)
        default_span = radio_range + 6.0 * sigma + 1.0
        self._z_max = float(z_max) if z_max is not None else default_span
        if self._z_max <= 0:
            raise ValueError("z_max must be > 0")
        self._table = LookupTable1D.from_function(
            lambda zs: gz_quadrature(
                zs, self._radio_range, self._sigma, order=quadrature_order
            ),
            0.0,
            self._z_max,
            self._omega,
        )

    # -- properties --------------------------------------------------------

    @property
    def radio_range(self) -> float:
        """Wireless transmission range ``R``."""
        return self._radio_range

    @property
    def sigma(self) -> float:
        """Standard deviation of the landing distribution."""
        return self._sigma

    @property
    def omega(self) -> int:
        """Number of table sub-ranges."""
        return self._omega

    @property
    def z_max(self) -> float:
        """Largest tabulated distance."""
        return self._z_max

    @property
    def table(self) -> LookupTable1D:
        """The underlying interpolation table."""
        return self._table

    # -- evaluation --------------------------------------------------------

    def __call__(self, z) -> np.ndarray:
        """Interpolated ``g(z)`` for scalar or array ``z`` (clipped to [0, 1])."""
        values = self._table(np.abs(np.asarray(z, dtype=np.float64)))
        return np.clip(values, 0.0, 1.0) if not np.isscalar(values) else float(
            min(max(values, 0.0), 1.0)
        )

    def max_abs_error(self, samples: int = 2000) -> float:
        """Maximum absolute error of the table against adaptive quadrature."""
        zs = np.linspace(0.0, self._z_max, int(samples))
        exact = gz_exact(zs, self._radio_range, self._sigma)
        return float(np.max(np.abs(exact - self._table(zs))))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GzTable(R={self._radio_range:g}, sigma={self._sigma:g}, "
            f"omega={self._omega}, z_max={self._z_max:g})"
        )
