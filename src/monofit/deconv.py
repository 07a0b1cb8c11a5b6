"""CDF estimation for a signal observed through additive supersmooth noise.

The estimator inverts the empirical characteristic function of the
observations: with ``phi_Y`` the empirical charfn, ``K*`` a smooth kernel
transform supported on [-1, 1], and ``mu_eps`` the (known) noise charfn at
scale sigma, the density estimate is

    f(x) = (1/2pi) Int e^{-itx} K*(h t) phi_Y(t) / mu_eps(t) dt .

Because ``K*`` vanishes outside [-1, 1], truncating the integral to
|t| <= 1/h is exact.  The CDF is the running integral of f, projected onto
valid CDFs by :func:`isotonize_cdf`.

The bandwidth ``h`` follows a two-regime rule in (n, sigma): below the
root-n noise floor smoothing at scale n^{-1/2} suffices; above it the
bandwidth balances the noise amplification exp(sigma^2 t^2 / 2) against the
sample size.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dist1d import EmpiricalMeasure, TabulatedDistribution
from .synth import check_integer, check_real, check_sigma, noise_charfn

__all__ = [
    "GridSpec",
    "select_bandwidth",
    "deconvolve_cdf",
    "isotonize_cdf",
    "auto_grid",
    "estimate_cdf",
]

DEFAULT_FREQ_POINTS = 2**12
MAX_GRID_POINTS = 2**20
ECF_BLOCK_CELLS = 2**15  # 512 KB of complex128: a block of ECF rows stays in cache
BANDWIDTH_C = 0.1  # the rule's constant C, which must lie in (0, 1/2)


@dataclass(frozen=True)
class GridSpec:
    """Uniform evaluation grid: ``points`` values spanning [lo, hi]."""

    lo: float
    hi: float
    points: int

    def __post_init__(self):
        if not check_real(self.lo, "lo") < check_real(self.hi, "hi"):
            raise ValueError("grid needs lo < hi")
        p = check_integer(self.points, "points", least=2)
        if p & (p - 1) != 0:
            raise ValueError("points must be a power of two, got %d" % p)
        object.__setattr__(self, "points", p)

    @property
    def xs(self):
        return np.linspace(self.lo, self.hi, self.points)

    @property
    def step(self):
        return (self.hi - self.lo) / (self.points - 1)


def select_bandwidth(n, sigma):
    """Regime-dependent bandwidth in (0, 1].

    sigma >= n^{-1/2}:  h = sigma * (C gamma2 log(n sigma^2 log n))^{-1/beta}
    sigma <  n^{-1/2}:  h = n^{-1/2}

    with C = ``BANDWIDTH_C`` and gamma2 = beta = 2, the decay of the
    Gaussian charfn exp(-|t|^beta / gamma2).  The boundary sigma = n^{-1/2}
    belongs to the first branch.  If the inner logarithm comes out
    nonpositive (tiny n), the rule falls back to n^{-1/2} and warns.
    """
    n = check_integer(n, "n", least=2)
    sigma = check_sigma(sigma)
    root = 1.0 / math.sqrt(n)
    if sigma < root:
        return root
    inner = n * sigma * sigma * math.log(n)
    scale = BANDWIDTH_C * 2.0 * math.log(inner)
    if scale <= 0.0:
        warnings.warn(
            "bandwidth log term nonpositive at n=%d sigma=%g; falling back to n^(-1/2)"
            % (n, sigma),
            RuntimeWarning,
        )
        return root
    h = sigma * scale**-0.5
    return float(min(h, 1.0))


def _ecf(ys, ts):
    """Empirical characteristic function (1/n) sum exp(i t y_k) on a uniform t-grid.

    Uses the geometric recurrence exp(i t_j y) = exp(i t_0 y) * exp(i dt y)^j,
    which costs one complex multiply per (j, k) instead of one exp.

    The values equal the loop ``out[j] = acc.mean(); acc *= base`` over
    ``acc = exp(1j * t_0 * ys)`` and ``base = exp(1j * dt * ys)`` bit for
    bit.  numpy's ``mean`` of a contiguous complex row is its pairwise sum
    divided by n, and that sum splits a row of more than 64 values into
    ``sum(a[:h]) + sum(a[h:])`` with ``h = (n - n % 8) // 2``.
    :func:`_ecf_sum` follows the same tree down to leaves of at most
    ``ECF_BLOCK_CELLS // 4`` samples, small enough to stay in cache, and
    adds the leaves' sums in tree order; the total is divided by n once, as
    ``mean`` does.  Each leaf builds its own part of ``acc`` and ``base``,
    element by element as the loop does, so no n-length complex array is
    held.  Every row comes from the same element-wise SIMD multiply as the
    loop's in-place ``acc *= base``.  A single observation runs the loop
    itself: numpy multiplies a one-element array in place by its scalar
    loop, whose rounding differs from the SIMD loop's.
    """
    t0, dt = ts[0], ts[1] - ts[0]
    if ys.size == 1:
        acc = np.exp(1j * t0 * ys)
        base = np.exp(1j * dt * ys)
        out = np.empty(ts.size, dtype=complex)
        for j in range(ts.size):
            out[j] = acc.mean()
            acc *= base
        return out
    return _ecf_sum(ys, t0, dt, ts.size) / ys.size


def _ecf_sum(ys, t0, dt, freqs):
    """Row sums sum_k exp(i t0 y_k) exp(i dt y_k)^j for j < freqs, split as numpy's pairwise sum.

    A leaf writes exp(i t0 y) and then consecutive rows of the recurrence
    into one C-contiguous block of at most ``ECF_BLOCK_CELLS`` cells, four
    rows or more, and sums the block by one ``np.add.reduce(axis=1)``,
    which sums each row exactly as a 1-d ``sum()`` does.
    """
    n = ys.size
    if n > ECF_BLOCK_CELLS // 4:
        h = (n - n % 8) // 2
        return _ecf_sum(ys[:h], t0, dt, freqs) + _ecf_sum(ys[h:], t0, dt, freqs)
    rows = min(freqs, ECF_BLOCK_CELLS // n)
    out = np.empty(freqs, dtype=complex)
    block = np.empty((rows, n), dtype=complex)
    row = list(block)  # views made once, not once a multiply
    np.exp(1j * t0 * ys, out=row[0])
    base = np.exp(1j * dt * ys)
    for j in range(0, freqs, rows):
        r = min(rows, freqs - j)
        for i in range(1, r):
            np.multiply(row[i - 1], base, out=row[i])
        np.add.reduce(block[:r], axis=1, out=out[j : j + r])
        np.multiply(row[r - 1], base, out=row[0])
    return out


def _next_fast_len(target):
    """Smallest 2-3-5-7-11-smooth integer >= target, as scipy.fft.next_fast_len."""
    n = target
    while True:
        m = n
        for p in (2, 3, 5, 7, 11):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def _fourier_at(g, ts, xs):
    """S(x_m) = sum_j g_j exp(-i t_j x_m) for uniform ts and xs, via Bluestein.

    The chirp-z transform follows scipy.signal.czt step for step, so the
    two agree bit for bit without importing scipy.
    """
    dt = ts[1] - ts[0]
    dx = xs[1] - xs[0]
    w, a = np.exp(-1j * dt * dx), np.exp(1j * dt * xs[0])
    n, m = g.size, xs.size
    k = np.arange(max(m, n), dtype=np.int64)
    wk2 = w ** (k**2 / 2.0)
    nfft = _next_fast_len(n + m - 1)
    chirp = np.fft.fft(1 / np.hstack((wk2[n - 1 : 0 : -1], wk2[:m])), nfft)
    out = np.fft.ifft(chirp * np.fft.fft(g * (a ** -k[:n] * wk2[:n]), nfft))[n - 1 : n + m - 1] * wk2[:m]
    out *= np.exp(-1j * ts[0] * xs)
    return out


def _running_trapezoid(f, dx):
    """Trapezoid integrals of ``f`` from its first grid point to each one."""
    return np.concatenate(([0.0], np.cumsum(dx * (f[1:] + f[:-1]) / 2.0)))


def isotonize_cdf(raw):
    """Project a raw CDF table onto valid CDFs: running max, then clip to [0, 1].

    Idempotent; leaves any already-valid CDF unchanged.  A NaN or infinite
    entry, the mark of a broken inversion, is refused rather than spread
    by the running max or clipped to 1.
    """
    raw = np.asarray(raw, dtype=float)
    if raw.ndim != 1 or raw.size == 0:
        raise ValueError("need a nonempty 1-d sequence")
    if not np.all(np.isfinite(raw)):
        raise ValueError("raw must be finite")
    return np.clip(np.maximum.accumulate(raw), 0.0, 1.0)


def auto_grid(ys, sigma, points=2**14):
    """Grid covering the sample with the required coverage pad plus slack.

    The deconvolution estimator demands the observed range padded by at
    least 6 (1 + sigma) on each side; two extra units absorb kernel tails.
    """
    pad = 6.0 * (1.0 + check_sigma(sigma)) + 2.0
    return GridSpec(float(ys.atoms[0]) - pad, float(ys.atoms[-1]) + pad, points)


def deconvolve_cdf(ys, sigma, h, grid, freq_points=DEFAULT_FREQ_POINTS):
    """Estimate the CDF of the latent signal behind ``ys``.

    Parameters
    ----------
    ys : EmpiricalMeasure
        Observed sample of Y = Z + sigma * delta, delta standard Gaussian.
    sigma : float
        Known noise scale; sigma = 0 reduces the estimator to a
        kernel-smoothed empirical CDF.
    h : float
        Bandwidth in (0, 1]; see :func:`select_bandwidth`.
    grid : GridSpec
        Output grid.  Must cover the observed y-range padded by
        6 (1 + sigma) on both sides, otherwise the tabulated CDF would
        truncate real mass, and its step must not exceed h / 4, otherwise
        the grid cannot resolve the smoothing scale.
    freq_points : int
        Trapezoid points for the frequency integral over [-1/h, 1/h], at
        least 2.  The trapezoid sum repeats the sample's density with
        period pi (freq_points - 1) h, so no shifted copy may land on the
        grid.

    Returns
    -------
    TabulatedDistribution
    """
    h = check_real(h, "h", above=0.0)
    if h > 1.0:
        raise ValueError("h must lie in (0, 1], got %r" % (h,))
    freq_points = check_integer(freq_points, "freq_points", least=2)
    sigma = check_sigma(sigma)
    pad = 6.0 * (1.0 + sigma)
    if grid.lo > ys.atoms[0] - pad or grid.hi < ys.atoms[-1] + pad:
        raise ValueError(
            "grid too narrow: need [%g, %g] to cover the y-range padded by %g"
            % (ys.atoms[0] - pad, ys.atoms[-1] + pad, pad)
        )
    if grid.step > h / 4.0:
        raise ValueError("grid too coarse: step %g exceeds h/4 = %g" % (grid.step, h / 4.0))
    period = math.pi * (freq_points - 1) * h
    reach = max(grid.hi - ys.atoms[0], ys.atoms[-1] - grid.lo)
    if reach >= period:
        raise ValueError(
            "grid too wide: it reaches %g from the sample, the density's period is %g" % (reach, period)
        )
    ts = np.linspace(-1.0 / h, 1.0 / h, freq_points)
    u = h * ts
    kstar = (1.0 - u * u) ** 3  # vanishes at the truncation edges
    phi = _ecf(ys.atoms, ts)
    g = kstar * phi / noise_charfn(sigma * ts)
    weights = np.full(ts.size, ts[1] - ts[0])
    weights[0] *= 0.5
    weights[-1] *= 0.5
    xs = grid.xs
    dens = _fourier_at(g * weights, ts, xs).real / (2.0 * math.pi)
    cdf = isotonize_cdf(_running_trapezoid(dens, grid.step))
    return TabulatedDistribution(grid.lo, grid.hi, cdf)


def estimate_cdf(y, sigma):
    """Latent CDF behind the noisy sample ``y``: the one estimation policy.

    Chooses the bandwidth by :func:`select_bandwidth` at n = len(y), the
    :func:`auto_grid` grid with the fewest points, a power of two from 2^14
    to ``MAX_GRID_POINTS``, whose step is at most h/4, and inverts with
    :func:`deconvolve_cdf`, which refuses too spread a sample.
    Returns ``(TabulatedDistribution, h)``.
    """
    ys = EmpiricalMeasure.from_sample(y)
    h = select_bandwidth(ys.n, sigma)
    grid = auto_grid(ys, sigma)
    while grid.step > h / 4.0 and grid.points < MAX_GRID_POINTS:
        grid = auto_grid(ys, sigma, points=2 * grid.points)
    return deconvolve_cdf(ys, sigma, h, grid), h
