"""One-dimensional distributions, monotone step functions, and Wasserstein distances.

Everything here is exact or grid-exact arithmetic on sorted samples and
tabulated CDFs; no randomness, no fitting.  These are the primitives the
estimators in :mod:`monofit.deconv` and :mod:`monofit.regress` are built on.
"""

from dataclasses import dataclass

import numpy as np

from .synth import check_real

__all__ = [
    "EmpiricalMeasure",
    "TabulatedDistribution",
    "MonotoneStepFn",
    "w1_empirical",
    "w1_cdf_area",
    "w2_empirical",
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
        atoms = np.asarray(self.atoms, dtype=float)
        if atoms.ndim != 1 or atoms.size < 1:
            raise ValueError("atoms must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(atoms)):
            raise ValueError("atoms must be finite")
        if np.any(atoms[1:] < atoms[:-1]):
            raise ValueError("atoms must be sorted in nondecreasing order")
        object.__setattr__(self, "atoms", atoms)

    @classmethod
    def from_sample(cls, values):
        """Build a measure from an unsorted sample (stable sort)."""
        return cls(np.sort(np.asarray(values, dtype=float), kind="stable"))

    @property
    def n(self):
        return self.atoms.size

    def quantile(self, u):
        """Atom at level u: ``atoms[i-1]`` for u in ((i-1)/n, i/n], 1-based i."""
        u_arr = np.asarray(u, dtype=float)
        if not np.all((u_arr > 0.0) & (u_arr <= 1.0)):
            raise ValueError("quantile level must lie in (0, 1]")
        idx = np.ceil(u_arr * self.n).astype(int) - 1
        out = self.atoms[np.clip(idx, 0, self.n - 1)]
        return out if np.ndim(u) else float(out)


@dataclass(frozen=True)
class TabulatedDistribution:
    """CDF values on a uniform grid over ``[grid_lo, grid_hi]``.

    Construction enforces monotonicity, range [0, 1], and a coverage check:
    the grid must start where at most 1% of the mass sits below and end
    where at least 99% sits at or below, so that quantiles and Wasserstein
    integrals read off the table are trustworthy.
    """

    grid_lo: float
    grid_hi: float
    cdf: np.ndarray

    def __post_init__(self):
        lo = check_real(self.grid_lo, "grid_lo")
        hi = check_real(self.grid_hi, "grid_hi")
        cdf = np.asarray(self.cdf, dtype=float)
        if not lo < hi:
            raise ValueError("degenerate grid: grid_lo must be < grid_hi")
        if cdf.ndim != 1 or cdf.size < 2:
            raise ValueError("cdf must hold at least two grid values")
        if np.any(np.isnan(cdf)):
            raise ValueError("cdf must not hold NaN")
        if np.any(np.diff(cdf) < 0):
            raise ValueError("cdf must be nondecreasing")
        if cdf[0] < 0.0 or cdf[-1] > 1.0:
            raise ValueError("cdf values must lie in [0, 1]")
        if cdf[0] > 0.01 or cdf[-1] < 0.99:
            raise ValueError(
                "grid too narrow: cdf spans [%.4g, %.4g], need cdf[0] <= 0.01 and cdf[-1] >= 0.99"
                % (cdf[0], cdf[-1])
            )
        object.__setattr__(self, "grid_lo", lo)
        object.__setattr__(self, "grid_hi", hi)
        object.__setattr__(self, "cdf", cdf)

    @property
    def grid(self):
        return np.linspace(self.grid_lo, self.grid_hi, self.cdf.size)

    @classmethod
    def from_callable(cls, fn, lo, hi, points):
        """Tabulate a CDF callable on a uniform grid of ``points`` values."""
        xs = np.linspace(lo, hi, points)
        return cls(lo, hi, np.asarray(fn(xs), dtype=float))


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
        knots = np.asarray(self.knots, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if knots.ndim != 1 or knots.size < 1 or knots.shape != values.shape:
            raise ValueError("knots and values must be 1-d of equal nonzero length")
        if not (np.all(np.isfinite(knots)) and np.all(np.isfinite(values))):
            raise ValueError("knots and values must be finite")
        if np.any(knots[1:] <= knots[:-1]):
            raise ValueError("knots must be strictly increasing")
        if knots[0] < 0.0 or knots[-1] > 1.0:
            raise ValueError("knots must lie in [0, 1]")
        if np.any(values[1:] < values[:-1]):
            raise ValueError("values must be nondecreasing")
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "values", values)

    def __call__(self, x):
        x_arr = np.asarray(x, dtype=float)
        if not np.all((x_arr >= 0.0) & (x_arr <= 1.0)):
            raise ValueError("step function domain is [0, 1]")
        # side="left": first knot >= x, which indexes the half-open cell
        # (knots[i-1], knots[i]] containing x; this is what makes the
        # evaluation left-continuous.
        idx = np.searchsorted(self.knots, x_arr, side="left")
        out = self.values[np.minimum(idx, self.knots.size - 1)]
        return out if np.ndim(x) else float(out)


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


def w2_empirical(a, b):
    """Wasserstein-2 distance ``sqrt((1/n) sum (a_(i) - b_(i))^2)``.

    Requires equal sample sizes; the sorted matching is again optimal.
    Always >= :func:`w1_empirical` on the same pair (Jensen).
    """
    if a.n != b.n:
        raise ValueError("w2_empirical needs equal sample sizes, got %d and %d" % (a.n, b.n))
    d = a.atoms - b.atoms
    return float(np.sqrt(np.mean(d * d)))


def w1_tabulated(a, b):
    """Wasserstein-1 between tabulated distributions.

    Trapezoid rule applied to |F_a - F_b| on the union of the two grids;
    each CDF is linearly interpolated inside its own grid and extended by
    its end values outside.
    """
    xs = np.union1d(a.grid, b.grid)
    fa = np.interp(xs, a.grid, a.cdf)
    fb = np.interp(xs, b.grid, b.cdf)
    return float(np.trapezoid(np.abs(fa - fb), xs))


def quantile(d, u):
    """Smallest point with cdf >= u, linearly interpolated between grid points.

    Parameters
    ----------
    d : TabulatedDistribution
    u : float or array_like in (0, 1)

    The levels are read ``QUANTILE_BLOCK`` at a time, so the temporaries
    stay that size whatever the number of levels.
    """
    u_arr = np.asarray(u, dtype=float)
    if not np.all((u_arr > 0.0) & (u_arr < 1.0)):
        raise ValueError("quantile level must lie strictly inside (0, 1)")
    xs = d.grid
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
    return out if np.ndim(u) else float(out)
