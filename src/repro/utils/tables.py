"""One-dimensional lookup tables with linear interpolation.

Section 3.3 of the paper notes that the exact ``g(z)`` formula is too
expensive to evaluate on a sensor node and prescribes a table-lookup
approximation: the range of ``z`` is divided into ``ω`` equal sub-ranges,
``g`` is pre-computed at the ``ω + 1`` dividing points, and queries are
answered by linear interpolation in constant time.  :class:`LookupTable1D`
implements exactly that access pattern (vectorised over query batches):
the bracketing interval comes from index arithmetic, not a search, and
the interpolation is ``np.interp``'s own, so every query returns the bits
``np.interp`` returns on the clamped query.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.utils.validation import check_int, check_positive

__all__ = ["LookupTable1D"]


class LookupTable1D:
    """Piecewise-linear approximation of a scalar function on ``[lo, hi]``.

    Queries outside ``[lo, hi]`` clamp to the boundary values.  A query
    ``z`` reads the interval ``j = floor((z − lo) / Δ)``, with ``Δ`` the
    mean knot spacing, corrected by at most one step each way so that
    ``xs[j] ≤ z < xs[j + 1]``; it then returns
    ``slope[j] · (z − xs[j]) + ys[j]`` with ``np.interp``'s slopes.  The
    result equals ``np.interp(np.clip(z, lo, hi), xs, ys)`` bit for bit,
    NaN and ±inf queries included.

    Parameters
    ----------
    xs:
        Evenly spaced, increasing knot positions (``ω + 1`` points).
        Knots that one correction step cannot bracket raise
        ``ValueError``.
    ys:
        Finite function values at the knots (``-0.0`` is stored as
        ``+0.0``).
    """

    def __init__(self, xs: np.ndarray, ys: np.ndarray):
        xs = np.asarray(xs, dtype=np.float64)
        # ``slope · 0 + y`` at a knot cannot return a stored -0.0, which
        # np.interp's knot branch would; +0.0 compares equal to it.
        ys = np.asarray(ys, dtype=np.float64) + 0.0
        if xs.ndim != 1 or ys.ndim != 1:
            raise ValueError("xs and ys must be one-dimensional")
        if xs.size != ys.size:
            raise ValueError("xs and ys must have the same length")
        if xs.size < 2:
            raise ValueError("a lookup table needs at least two knots")
        if np.any(np.diff(xs) <= 0):
            raise ValueError("xs must be strictly increasing")
        with np.errstate(over="ignore", invalid="ignore"):
            slopes = np.diff(ys) / np.diff(xs)
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(slopes))):
            raise ValueError("knots, values and slopes must be finite")
        self._xs = xs
        self._ys = ys
        self._lo = xs[0]
        self._hi = xs[-1]
        self._top = float(xs.size - 1)
        self._inverse_step = self._top / (self._hi - self._lo)
        # The top knot answers only z == hi: slope 0, no upper neighbour.
        self._slopes = np.append(slopes, 0.0)
        self._upper = np.append(xs[1:], np.inf)
        start = self._start_index(xs)
        knot = np.arange(xs.size)
        if np.any((start > knot) | (start < knot - 1)):
            raise ValueError("knots must be evenly spaced")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_function(
        cls,
        func: Callable[[np.ndarray], np.ndarray],
        lo: float,
        hi: float,
        num_intervals: int,
    ) -> "LookupTable1D":
        """Tabulate *func* on ``num_intervals`` equal sub-ranges of [lo, hi].

        This mirrors the paper's ``ω`` parameter: the table stores
        ``num_intervals + 1`` values.
        """
        check_int("num_intervals", num_intervals, minimum=1)
        lo = float(lo)
        hi = float(hi)
        if hi <= lo:
            raise ValueError("hi must be greater than lo")
        xs = np.linspace(lo, hi, num_intervals + 1)
        ys = np.asarray(func(xs), dtype=np.float64)
        if ys.shape != xs.shape:
            raise ValueError("func must return one value per knot")
        return cls(xs, ys)

    # -- properties --------------------------------------------------------

    @property
    def knots(self) -> np.ndarray:
        """Knot positions (read-only view)."""
        view = self._xs.view()
        view.flags.writeable = False
        return view

    @property
    def values(self) -> np.ndarray:
        """Knot values (read-only view)."""
        view = self._ys.view()
        view.flags.writeable = False
        return view

    @property
    def num_intervals(self) -> int:
        """Number of sub-ranges (``ω`` in the paper)."""
        return self._xs.size - 1

    @property
    def domain(self) -> tuple[float, float]:
        """The tabulated interval ``(lo, hi)``."""
        return float(self._lo), float(self._hi)

    # -- evaluation --------------------------------------------------------

    def _start_index(self, position: np.ndarray) -> np.ndarray:
        """``floor((position − lo) / Δ)`` of clamped positions; NaN reads the top."""
        index = position - self._lo
        index *= self._inverse_step
        np.fmin(index, self._top, out=index)
        return index.astype(np.intp)

    def __call__(self, z: np.ndarray) -> np.ndarray:
        """Interpolate the table at *z* (scalar or array, any shape)."""
        z_arr = np.asarray(z, dtype=np.float64)
        position = np.clip(z_arr.reshape(-1), self._lo, self._hi)
        index = self._start_index(position)
        index -= self._xs[index] > position
        index += self._upper[index] <= position
        out = position - self._xs[index]
        out *= self._slopes[index]
        out += self._ys[index]
        if z_arr.ndim == 0:
            return float(out[0])
        return out.reshape(z_arr.shape)

    def max_abs_error(
        self,
        func: Callable[[np.ndarray], np.ndarray],
        samples: int = 1000,
    ) -> float:
        """Estimate the maximum absolute interpolation error against *func*.

        Used by the ``g(z)`` ablation benchmark to show how small ``ω`` can be
        while keeping the approximation error negligible (Section 3.3).
        """
        check_positive("samples", samples)
        lo, hi = self.domain
        zs = np.linspace(lo, hi, int(samples))
        exact = np.asarray(func(zs), dtype=np.float64)
        approx = self(zs)
        return float(np.max(np.abs(exact - approx)))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        lo, hi = self.domain
        return (
            f"LookupTable1D(domain=[{lo:g}, {hi:g}], "
            f"intervals={self.num_intervals})"
        )
