"""One-dimensional distributions, monotone step functions, and Wasserstein distances.

Everything here is exact or grid-exact arithmetic on sorted samples and
tabulated CDFs; no randomness, no fitting.  These are the primitives the
estimators in :mod:`monofit.deconv` and :mod:`monofit.regress` are built on.
"""

from dataclasses import dataclass

import numpy as np

from .checks import check_array, check_integer, check_points, check_real

__all__ = [
    "EmpiricalMeasure",
    "GridSpec",
    "TabulatedDistribution",
    "MonotoneStepFn",
    "w1_empirical",
    "w1_cdf_area",
    "w1_tabulated",
    "quantile",
]

QUANTILE_BLOCK = 2**13  # levels read per block by quantile()


@dataclass(frozen=True)
class EmpiricalMeasure:
    """A sorted real sample carrying mass ``1/n`` at each atom.

    Parameters
    ----------
    atoms : array_like
        Sample values, already sorted in nondecreasing order.  Use
        :meth:`from_sample` for unsorted data.
    """

    atoms: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "atoms", check_array(self.atoms, "atoms", order="nondecreasing"))

    @classmethod
    def from_sample(cls, y):
        """Build a measure from an unsorted sample, checked once and then stably sorted."""
        measure = object.__new__(cls)
        object.__setattr__(measure, "atoms", np.sort(check_array(y, "y"), kind="stable"))
        return measure

    @property
    def n(self):
        return self.atoms.size


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid: ``points`` values, two or more, spanning [lo, hi] with lo < hi and hi - lo finite."""

    lo: float
    hi: float
    points: int

    def __post_init__(self):
        lo, hi = check_real(self.lo, "lo"), check_real(self.hi, "hi")
        if not lo < hi:
            raise ValueError("grid needs lo < hi")
        if hi - lo == np.inf:
            raise ValueError("grid step must be finite, got inf from lo = %r and hi = %r" % (lo, hi))
        object.__setattr__(self, "points", check_integer(self.points, "points", least=2))

    @property
    def xs(self):
        return np.linspace(self.lo, self.hi, self.points)

    @property
    def step(self):
        return (self.hi - self.lo) / (self.points - 1)


def _check_grid(grid):
    """``grid`` if it is a :class:`GridSpec`; the one check of a grid argument."""
    if not isinstance(grid, GridSpec):
        raise ValueError("grid must be a GridSpec, got %r" % (grid,))
    return grid


@dataclass(frozen=True)
class TabulatedDistribution:
    """CDF values at the points of a uniform :class:`GridSpec`.

    Construction enforces one value per grid point, monotonicity, range
    [0, 1], and a coverage check: the grid must start where at most 1% of
    the mass sits below and end where at least 99% sits at or below, so
    that quantiles and Wasserstein integrals read off the table are
    trustworthy.
    """

    grid: GridSpec
    cdf: np.ndarray

    def __post_init__(self):
        _check_grid(self.grid)
        cdf = check_array(self.cdf, "cdf", order="nondecreasing", within=(0.0, 1.0))
        if cdf.size != self.grid.points:
            raise ValueError("cdf must have one entry per grid point, %d, got %d" % (self.grid.points, cdf.size))
        if cdf[0] > 0.01 or cdf[-1] < 0.99:
            raise ValueError(
                "grid too narrow: cdf spans [%.4g, %.4g], need cdf[0] <= 0.01 and cdf[-1] >= 0.99"
                % (cdf[0], cdf[-1])
            )
        object.__setattr__(self, "cdf", cdf)

    @classmethod
    def from_callable(cls, fn, grid):
        """Tabulate a CDF callable at the points of ``grid``."""
        return cls(grid, fn(_check_grid(grid).xs))


@dataclass(frozen=True)
class MonotoneStepFn:
    """Left-continuous nondecreasing step function on [0, 1].

    ``values[i]`` holds on ``(knots[i-1], knots[i]]`` with an implicit
    leading knot at 0, so ``values[0]`` holds on ``[0, knots[0]]``; beyond
    the last knot the last value extends up to 1.
    """

    knots: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        knots = check_array(self.knots, "knots", order="increasing", within=(0.0, 1.0))
        values = check_array(self.values, "values", order="nondecreasing")
        if knots.shape != values.shape:
            raise ValueError("values must have the length of knots, %d, got %d" % (knots.size, values.size))
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "values", values)

    def __call__(self, x):
        x_arr = check_points(x, "x", (0.0, 1.0))
        # side="left": first knot >= x, which indexes the half-open cell
        # (knots[i-1], knots[i]] containing x; this is what makes the
        # evaluation left-continuous.
        idx = np.searchsorted(self.knots, x_arr, side="left")
        out = self.values[np.minimum(idx, self.knots.size - 1)]
        return out if x_arr.ndim else float(out)


def w1_empirical(a, b):
    """Wasserstein-1 distance between empirical measures.

    Equal sizes use the sorted-matching form ``(1/n) sum |a_(i) - b_(i)|``,
    which is the optimal coupling in one dimension; unequal sizes fall back
    to the CDF-area form (:func:`w1_cdf_area`).
    """
    if a.n == b.n:
        return float(np.mean(np.abs(a.atoms - b.atoms)))
    return w1_cdf_area(a, b)


def w1_cdf_area(a, b):
    """Wasserstein-1 distance as the area between the two empirical CDFs.

    Both CDFs are constant between consecutive atoms of the pooled support,
    so the integral of |F_a - F_b| is a finite sum with no quadrature error.
    Works for any pair of sample sizes.
    """
    zs = np.union1d(a.atoms, b.atoms)
    if zs.size == 1:
        return 0.0
    fa = np.searchsorted(a.atoms, zs, side="right") / a.n
    fb = np.searchsorted(b.atoms, zs, side="right") / b.n
    return float(np.sum(np.abs(fa[:-1] - fb[:-1]) * np.diff(zs)))


def w1_tabulated(a, b):
    """Wasserstein-1 between two distributions tabulated on one grid.

    Trapezoid rule applied to |F_a - F_b| at the grid points; a ``b`` on
    another grid than ``a`` is refused.
    """
    if b.grid != a.grid:
        raise ValueError("b must be tabulated on the grid of a, %r, got %r" % (a.grid, b.grid))
    return float(np.trapezoid(np.abs(a.cdf - b.cdf), a.grid.xs))


def quantile(d, u):
    """Smallest point with cdf >= u, linearly interpolated between grid points.

    Parameters
    ----------
    d : TabulatedDistribution
    u : float or array_like in (0, 1)

    The levels are read ``QUANTILE_BLOCK`` at a time, so the temporaries
    stay that size whatever the number of levels.
    """
    u_arr = check_points(u, "u", (0.0, 1.0), open=True)
    xs = d.grid.xs
    cdf = d.cdf
    out = np.empty(u_arr.shape)
    flat_u, flat_out = u_arr.reshape(-1), out.reshape(-1)
    for start in range(0, flat_u.size, QUANTILE_BLOCK):
        v = flat_u[start : start + QUANTILE_BLOCK]
        j = np.searchsorted(cdf, v, side="left")
        jm = np.clip(j, 1, cdf.size - 1)
        c0 = cdf[jm - 1]
        c1 = cdf[jm]
        denom = np.where(c1 > c0, c1 - c0, 1.0)
        interp = xs[jm - 1] + (v - c0) / denom * (xs[jm] - xs[jm - 1])
        # outside the tabulated cdf range, clamp to the grid ends
        flat_out[start : start + QUANTILE_BLOCK] = np.where(j == 0, xs[0], np.where(j == cdf.size, xs[-1], interp))
    return out if u_arr.ndim else float(out)
