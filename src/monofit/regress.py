"""Minimum-contrast monotone link estimators for shuffled and unlinked data.

Both estimators fit a nondecreasing step function to the covariate order
statistics and differ only in where the fitted values come from:

- shuffled (:func:`fit_shuffled`): the pairing between x and y is lost but
  both sides come from the same units.  Sorting y and assigning it to
  sorted x is the monotone rearrangement — the exact minimizer of the
  squared-Wasserstein contrast between the fitted-value measure and the
  observed y-measure.

- unlinked (:func:`fit_unlinked`): x and y are disjoint samples and y is
  observed through additive noise.  The latent y-distribution is first
  recovered by :func:`monofit.deconv.estimate_cdf`; the fitted value on
  the i-th mass cell is its mid-cell quantile, the L1-optimal single atom
  for that cell.

Fitted values are then projected onto the moment ball
(1/n) sum |v_i|^{a+2} <= M / c_X (:func:`project_moment`, with
``MOMENT_ORDER`` = a + 2 and ``MOMENT_BOUND`` = M / c_X) and extended to a
left-continuous step function on [0, 1] with knots at the covariate
order statistics (:class:`monofit.dist1d.MonotoneStepFn`).
"""

import math
from dataclasses import dataclass

import numpy as np

from .csvio import read_columns, write_table
from .deconv import estimate_cdf
from .dist1d import MonotoneStepFn, quantile
from .checks import check_array, check_integer, check_real, check_sigma

__all__ = [
    "MOMENT_BOUND",
    "MOMENT_ORDER",
    "FitResult",
    "fit_shuffled",
    "fit_unlinked",
    "project_moment",
    "stepfn_to_csv",
    "stepfn_from_csv",
]

# The moment ball (1/n) sum |v_i|^{a+2} <= M / c_X of both fits: M = 10
# bounds the (a+2)-th moment of the link under the design measure, c_X = 1
# the design density from below, and a = 1.
MOMENT_BOUND = 10.0
MOMENT_ORDER = 3.0


@dataclass(frozen=True)
class FitResult:
    """A fitted link with its contrast slack and projection flag.

    ``fit`` is the step function, ``eta`` the slack of the minimum-contrast
    problem (sigma^2 for shuffled fits, n^{-1/2} for unlinked ones), and
    ``projected`` says whether the moment projection changed the values.
    """

    fit: MonotoneStepFn
    eta: float
    projected: bool


def project_moment(values):
    """Project nondecreasing values onto the moment ball {(1/n) sum |v_i|^p <= bound}.

    The ball is the fits' own: p = ``MOMENT_ORDER`` and bound =
    ``MOMENT_BOUND``.  Values already inside it are returned unchanged.
    Otherwise the values are winsorized symmetrically: clipped to
    [-tau, tau] with the largest threshold tau whose clipped moment meets
    the bound.  Clipping both tails equally keeps the sequence nondecreasing.
    """
    values = check_array(values, "values", order="nondecreasing")
    p, bound = MOMENT_ORDER, MOMENT_BOUND
    powers = np.abs(values) ** p
    if float(np.mean(powers)) <= bound:
        return values.copy()
    # With |v|^p sorted and S_j the sum of the j smallest, clipping at
    # tau in [|v|_(j), |v|_(j+1)] gives n * moment = S_j + (n - j) tau^p,
    # nondecreasing in tau.  The segment is the number j of sorted values
    # whose own threshold already fits (Duchi et al., ICML 2008).
    powers.sort()
    n = values.size
    fits = np.arange(n - 1, -1, -1, dtype=float)
    fits *= powers
    sums = np.cumsum(powers, out=powers)
    fits += sums
    j = min(int(np.searchsorted(fits, n * bound, side="right")), n - 1)
    tau = ((n * bound - (sums[j - 1] if j else 0.0)) / (n - j)) ** (1.0 / p)
    return np.clip(values, -tau, tau, out=fits)  # two n-length arrays in all


def _project_and_extend(x_ordered, raw, eta):
    """FitResult of the raw fitted values projected onto the moment ball."""
    vals = project_moment(raw)
    return FitResult(MonotoneStepFn(x_ordered, vals), eta, not np.array_equal(vals, raw))


def fit_shuffled(x_ordered, y, sigma):
    """Monotone fit when the x-y pairing is hidden by an unknown permutation.

    The fitted values are sorted(y) assigned to the covariate order
    statistics — the exact minimizer of the W2 contrast over monotone
    assignments — projected onto the moment ball.  Returns a
    :class:`FitResult` with slack eta = sigma^2.
    """
    x = check_array(x_ordered, "x_ordered")  # its order and range are the knots' check
    y = check_array(y, "y")
    if x.shape != y.shape:
        raise ValueError("y must have the length of x_ordered, %d, got %d" % (x.size, y.size))
    sigma = check_sigma(sigma)
    return _project_and_extend(x, np.sort(y, kind="stable"), sigma**2)


def fit_unlinked(x_ordered, y, sigma):
    """Monotone fit when x and y are disjoint samples and y is noisy.

    Pipeline: deconvolve the y-sample into a latent CDF estimate
    (:func:`monofit.deconv.estimate_cdf`), read off its mid-cell quantiles
    v_i = quantile((2i - 1) / (2n)) as fitted values on the sorted
    covariates ``x_ordered``, project onto the moment ball, extend.
    Returns a :class:`FitResult` with slack eta = n^{-1/2}.
    """
    x = check_array(x_ordered, "x_ordered", order="nondecreasing", within=(0.0, 1.0))
    if np.size(y) != x.size:  # y itself is checked by estimate_cdf, once
        raise ValueError("y must have the length of x_ordered, %d, got %d" % (x.size, np.size(y)))
    n = x.size
    mu, _ = estimate_cdf(y, sigma)
    raw = quantile(mu, (2.0 * np.arange(1, n + 1) - 1.0) / (2.0 * n))
    np.maximum.accumulate(raw, out=raw)
    return _project_and_extend(x, raw, 1.0 / math.sqrt(n))


def _fit_meta(n, sigma, eta, projected):
    """A fit CSV's preamble, checked as written and read: an integer n >= 1, sigma and eta >= 0, a bool projected."""
    if not isinstance(projected, (bool, np.bool_)):
        raise ValueError("projected must be a bool, got %r" % (projected,))
    sigma, eta = check_real(sigma, "sigma", least=0.0), check_real(eta, "eta", least=0.0)
    return {"n": check_integer(n, "n", least=1), "sigma": sigma, "eta": eta, "projected": projected}


def stepfn_to_csv(m, path, n, sigma, eta, projected):
    """Write a fitted step function as CSV with a metadata preamble.

    Four preamble lines, checked before the file is opened, record the fit
    context (sample size, noise scale, contrast slack, whether the moment
    projection activated), then a (knot, value) table.
    """
    write_table(path, ("knot", "value"), (m.knots, m.values), _fit_meta(n, sigma, eta, projected))


def stepfn_from_csv(path):
    """Read a step function written by :func:`stepfn_to_csv`.

    Returns (MonotoneStepFn, metadata dict with keys n, sigma, eta,
    projected).  Refused with a ValueError naming ``path``: a preamble that
    :func:`stepfn_to_csv` refuses or a projected other than 0 or 1, and
    knots or values that :class:`MonotoneStepFn` refuses (a NaN among them).
    """
    meta, cols = read_columns(path, {"knot": float, "value": float})
    for key in ("n", "sigma", "eta", "projected"):
        if key not in meta:
            raise ValueError("%s: missing metadata line %r" % (path, key))
    try:
        if meta["projected"] not in ("0", "1"):
            raise ValueError("projected must be 0 or 1, got %r" % (meta["projected"],))
        out = _fit_meta(*(float(meta[key]) for key in ("n", "sigma", "eta")), meta["projected"] == "1")
        return MonotoneStepFn(cols["knot"], cols["value"]), out
    except ValueError as exc:
        raise ValueError("%s: %s" % (path, exc)) from None
