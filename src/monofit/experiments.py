"""Monte-Carlo experiment harness: occupancy-product study, risks, rate sweeps.

Three layers:

- :func:`conjecture_sweep` estimates E prod_{j : n_j > 0} (1 - C e^{-c log n / n_j})^2
  over multinomial occupancy vectors (n balls in n equiprobable cells) on a
  log-spaced n-grid, averaging many replications and sharing each drawn
  occupancy vector across all C values;
- :func:`risk_empirical` / :func:`risk_population` measure how far a fitted
  step function sits from the generating link, in sample or in law;
- :func:`rate_sweep` runs generate-fit-measure replications across an
  n-grid with a noise scale tied to n by a :class:`SigmaRule`, emitting one
  :class:`RiskRecord` per measurement so empirical rates can be read off by
  :func:`fit_loglog_slope`.

Everything is deterministic given the seed: replication r of size n draws
from the stream keyed by (seed, purpose, n, r), so parallel and serial
sweeps return identical tables.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .checks import check_array, check_integer, check_real
from .deconv import estimate_cdf
from .dist1d import TabulatedDistribution, w1_tabulated
from .regress import fit_shuffled, fit_unlinked
from .synth import LinkSpec, NoiseSpec, derive_seed, link_cdf, parse_spec, rng_stream, sample_dataset
from .synth import _checked_params, _link_values

__all__ = [
    "DEFAULT_SEED",
    "ConjectureConfig",
    "ConjectureRow",
    "RiskRecord",
    "SigmaRule",
    "conjecture_product",
    "conjecture_sweep",
    "risk_empirical",
    "risk_population",
    "rate_sweep",
    "fit_loglog_slope",
]

DEFAULT_SEED = 1729

# exponents pinning the noise-regime presets of SigmaRule
REGIME_ETA = 0.2
REGIME_BETA = 2.0

DEFAULT_C_LIST = (1.0, 2.0, 5.0, 10.0, 100.0, 200.0, 500.0, 1000.0)
OCCUPANCY_CHUNK = 2**16  # 512 KB of float64 or intp: the uniforms a draw bins, or the counts a product bins, per step


@functools.cache
def _gauss_legendre():
    """(nodes, weights) of the 64-point Gauss-Legendre rule on [-1, 1].

    Built on the first population risk, so a process that never takes one
    never loads ``numpy.polynomial``.
    """
    return np.polynomial.legendre.leggauss(64)


@dataclass(frozen=True)
class ConjectureConfig:
    """Protocol of the occupancy-product study.

    ``grid_points`` sample sizes equally spaced in log10 between ``n_min``
    and ``n_max`` (rounded to integers, deduplicated), ``reps`` occupancy
    draws per size, every C in ``C_list`` evaluated on each draw.
    """

    n_min: int = 100
    n_max: int = 1_000_000
    grid_points: int = 30
    reps: int = 500
    c: float = 20.0
    C_list: tuple = DEFAULT_C_LIST
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        for name, least in (("n_min", 1), ("grid_points", 1), ("reps", 1), ("seed", None)):
            object.__setattr__(self, name, check_integer(getattr(self, name), name, least))
        object.__setattr__(self, "n_max", check_integer(self.n_max, "n_max", self.n_min))
        object.__setattr__(self, "c", check_real(self.c, "c", above=0.0))
        C_list = tuple(check_real(C, "C", above=0.0) for C in self.C_list)
        if not C_list:
            raise ValueError("C_list must hold one or more values")
        if len(set(C_list)) != len(C_list):
            raise ValueError("C_list must not repeat a value, got %r" % (C_list,))
        object.__setattr__(self, "C_list", C_list)

    @property
    def n_grid(self):
        exps = np.linspace(math.log10(self.n_min), math.log10(self.n_max), self.grid_points)
        return np.unique(np.round(10.0**exps).astype(np.int64))


@dataclass(frozen=True)
class ConjectureRow:
    """Per-(n, C) summary of the occupancy-product study."""

    n: int
    C: float
    mean: float
    stderr: float


_COMPATIBLE = {
    "shuffled": ("empirical_L1", "population_L1"),
    "unlinked": ("empirical_L1", "population_L1"),
    "deconv": ("W1_measure",),
}


@dataclass(frozen=True)
class RiskRecord:
    """One measurement: which problem, at what size and noise, which loss."""

    problem: str
    n: int
    sigma: float
    seed: int
    risk_kind: str
    value: float

    def __post_init__(self):
        # rate_sweep, the only maker, checks problem and kind before any fit
        if not self.value >= 0:
            raise ValueError("risk value must be nonnegative")


def conjecture_product(counts, n, C, c):
    """prod over occupied cells j of (1 - C exp(-c log(n) / n_j))^2 for each C in the 1-d sequence ``C``.

    The result holds one product per entry.  One occupancy histogram serves
    every C: cells with equal n_j contribute identical factors, so each
    product is a multiplicity-weighted sum of logs over the distinct
    occupancies, with an exact zero short-circuit per C so no log(0) is
    ever taken.  Empty cells contribute no factor.  Natural log throughout.
    """
    n = check_integer(n, "n", least=1)
    c = check_real(c, "c", above=0.0)
    counts = np.asarray(counts)
    if counts.ndim != 1:
        raise ValueError("counts must be a 1-d sequence, got %d dimensions" % counts.ndim)
    if counts.dtype.kind not in "iu":
        raise ValueError("counts must be integers, got dtype %s" % counts.dtype)
    top = int(counts.max(initial=0))
    if counts.size and (counts.min() < 0 or top > n):
        raise ValueError("counts must be nonnegative and sum to n")
    # binned a chunk at a time, as np.bincount widens its whole input to intp
    hist = np.zeros(top + 1, np.int64)
    for lo in range(0, counts.size, OCCUPANCY_CHUNK):
        hist += np.bincount(counts[lo : lo + OCCUPANCY_CHUNK].astype(np.intp), minlength=hist.size)
    if counts.size and int(np.dot(hist, np.arange(hist.size))) != n:
        raise ValueError("counts must be nonnegative and sum to n")
    try:
        one_d = np.ndim(C) == 1
    except ValueError:  # a ragged nesting
        one_d = False
    if not one_d:
        raise ValueError("C must be a 1-d sequence, got %r" % (C,))
    Cs = np.array([check_real(v, "C") for v in C])
    occ = np.flatnonzero(hist[1:]) + 1
    mult = hist[occ]
    factors = 1.0 - Cs.reshape(-1, 1) * np.exp(-c * math.log(n) / occ)
    zero = factors == 0.0
    sums = np.sum(mult * np.log(np.abs(np.where(zero, 1.0, factors))), axis=1)
    return np.array([0.0 if z else math.exp(2.0 * float(s)) for z, s in zip(zero.any(axis=1), sums)])


def _occupancy_counts(rng, n):
    """Multinomial(n; 1/n, ..., 1/n) by binning n uniforms into n cells.

    Cell floor(n u) of each uniform u, clipped at n - 1, gains one ball.
    A count is at most n, so it is held in ``np.min_scalar_type(n)``, the
    narrowest unsigned type that holds n (uint32 at n = 10^6).  The
    uniforms are drawn and binned ``OCCUPANCY_CHUNK`` at a time, so a draw
    holds one n-length count array plus two 512 KB buffers: about 5 MB at
    n = 10^6, where int64 counts of all n uniforms binned at once held
    16 MB.  The generator yields the same n doubles in the same order, so
    the counts equal that one-shot binning's.
    """
    counts = np.zeros(n, np.min_scalar_type(n))
    uniforms = np.empty(min(n, OCCUPANCY_CHUNK))
    cells = np.empty(uniforms.size, np.int64)
    for lo in range(0, n, OCCUPANCY_CHUNK):
        u, idx = uniforms[: n - lo], cells[: n - lo]
        rng.random(out=u)
        u *= n
        idx[...] = u  # truncates, as astype(np.int64) does
        np.minimum(idx, n - 1, out=idx)
        np.add.at(counts, idx, counts.dtype.type(1))  # a Python 1 leaves add.at's fast path
    return counts


def _sweep_chunk(args):
    """Products for replications [lo, hi) at one n; one row per rep."""
    seed, n, lo, hi, C_list, c = args
    out = np.empty((hi - lo, len(C_list)))
    for r in range(lo, hi):
        # no name holds the counts, so each draw is freed before the next one
        rng = rng_stream(seed, "conjecture", n, r)
        out[r - lo] = conjecture_product(_occupancy_counts(rng, n), n, C_list, c)
    return out


def conjecture_sweep(cfg, workers=1):
    """Mean and standard error of the occupancy product per (n, C).

    ``workers`` processes compute: the caller and, above 1, a process pool
    of ``workers - 1``.  Every chunk is submitted to the pool; the caller
    then takes chunks back from the end, cancelling each one the pool has
    not started and computing it itself, until it meets one the pool holds.
    Chunks are ordered by n, so the caller takes the large draws, the pool
    the small ones, and the two meet wherever their speeds put them.
    Replications are independent streams keyed by (seed, n, rep), so the
    result is identical whoever computes a chunk: each n's
    ``min(reps, 2 workers)`` chunks are reassembled in replication order
    before the means are taken.
    """
    workers = check_integer(workers, "workers", least=1)
    n_grid = cfg.n_grid.tolist()
    chunks = min(cfg.reps, 2 * workers)
    bounds = np.linspace(0, cfg.reps, chunks + 1).astype(int).tolist()
    tasks = [(cfg.seed, n, lo, hi, cfg.C_list, cfg.c) for n in n_grid for lo, hi in zip(bounds, bounds[1:])]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # loaded only by a parallel sweep

        with ProcessPoolExecutor(max_workers=workers - 1) as pool:
            futures = [pool.submit(_sweep_chunk, t) for t in tasks]
            mine = []  # the caller's chunks, last first
            try:
                # the pool starts chunks in submission order, so every chunk
                # before the first one that cannot be cancelled is the pool's
                while futures and futures[-1].cancel():
                    futures.pop()
                    mine.append(_sweep_chunk(tasks[len(futures)]))
            except BaseException:
                pool.shutdown(cancel_futures=True)
                raise
            results = [f.result() for f in futures] + mine[::-1]
    else:
        results = [_sweep_chunk(t) for t in tasks]
    rows = []
    for i, n in enumerate(n_grid):
        values = np.vstack(results[i * chunks : (i + 1) * chunks])  # reps x |C_list|
        means = values.mean(axis=0)
        if cfg.reps > 1:
            stderrs = values.std(axis=0, ddof=1) / math.sqrt(cfg.reps)
        else:
            stderrs = np.zeros(len(cfg.C_list))
        for k, C in enumerate(cfg.C_list):
            rows.append(ConjectureRow(n=n, C=float(C), mean=float(means[k]), stderr=float(stderrs[k])))
    return rows


def risk_empirical(mhat, m0, xs):
    """(1/n) sum |mhat(x_i) - m0(x_i)| over the design points; mhat and m0 refuse one outside [0, 1]."""
    xs = check_array(xs, "xs")
    return float(np.mean(np.abs(mhat(xs) - m0(xs))))


def risk_population(mhat, m0):
    """integral of |mhat - m0| over the Uniform[0, 1] design.

    ``m0`` is a :class:`LinkSpec`.  The integral is split at the knots
    of ``mhat`` and at ``m0.edges``.  On a piece (a, b] where mhat = v,
    m0 - v changes sign at clip(link_cdf(m0, v), a, b), as link_cdf is
    Leb{m0 <= v}; each side gets 64-point Gauss-Legendre, evaluated one
    node at a time across all panels into two reused panel-length buffers.
    The panel sums are added by numpy's pairwise sum, not by a BLAS dot
    product, so the result does not depend on the BLAS thread count.
    """
    if not isinstance(m0, LinkSpec):
        raise TypeError("m0 must be a LinkSpec")
    # the runs are sorted, so a stable sort (timsort) only merges them; a
    # repeated edge makes zero-width panels, which are dropped below
    edges = np.sort(np.concatenate((np.array([0.0, 1.0]), mhat.knots, m0.edges)), kind="stable")
    a, b = edges[:-1], edges[1:]
    v = mhat(b)  # constant on (a, b]
    cross = np.clip(link_cdf(m0, v), a, b)
    lo = np.concatenate((a, cross))
    hi = np.concatenate((cross, b))
    half = 0.5 * (hi - lo)
    mid = 0.5 * (lo + hi)
    nodes, weights = _gauss_legendre()
    # a zero-width panel adds nothing; at the origin its nodes would land
    # where the tail link is -inf, so it is dropped before evaluation
    keep = (half > 0.0) & (half * nodes[0] + mid > 0.0)
    half, mid, v = half[keep], mid[keep], np.concatenate((v, v))[keep]
    acc = np.zeros_like(half)
    xs = np.empty_like(half)
    vals = np.empty_like(half)
    for node, weight in zip(nodes, weights):
        np.multiply(half, node, out=xs)
        xs += mid  # in (0, 1]: the panels tile [0, 1] and the first node is kept above 0
        _link_values(m0, xs, vals)
        np.subtract(v, vals, out=vals)
        np.abs(vals, out=vals)
        vals *= weight
        acc += vals
    acc *= half
    return float(acc.sum())


def _regime_edges(n):
    """Cut points of the five noise regimes at n; regime k is (edges[k], edges[k + 1]]."""
    log_n = math.log(n)
    root = n**-0.5
    return (0.0, root, root * log_n**REGIME_ETA, root * log_n**(1.0 / REGIME_BETA), n**(-0.5 + REGIME_ETA), 1.0)


# sigma_n(n, *params) of each rule: constant:s and power:k, then the five
# presets in regime order, each the geometric mean of its range's ends or a
# fixed representative in the outer two
_RULES = {
    "constant": lambda n, s: s,
    "power": lambda n, k: float(n) ** -k,
    "below-root": lambda n: 0.1 * n**-0.6,
    "root-log-small": lambda n: n**-0.5 * math.log(n) ** (REGIME_ETA / 2.0),
    "root-log-large": lambda n: n**-0.5 * math.log(n) ** ((REGIME_ETA + 1.0 / REGIME_BETA) / 2.0),
    "intermediate": lambda n: math.sqrt(n**-0.5 * math.log(n) ** (1.0 / REGIME_BETA) * n**(-0.5 + REGIME_ETA)),
    "fixed": lambda n: 0.5,
}
_PRESETS = tuple(_RULES)[2:]
# each rule's parameters as synth._checked_params reads them
_RULE_PARAMS = {kind: () if kind in _PRESETS else (("%s rule parameter" % kind, {"above": 0.0}),) for kind in _RULES}


@dataclass(frozen=True)
class SigmaRule:
    """Noise scale as a function of n: a constant, a power, or a regime preset.

    ``constant`` (s) gives s and ``power`` (k) gives n^{-k}, for finite s, k > 0.
    A preset takes no parameter; its formula puts sigma_n in its own range
    of ``_regime_edges``, which :meth:`check` verifies at n.
    """

    kind: str
    params: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "params", _checked_params(self, _RULE_PARAMS, "sigma rule"))

    def sigma(self, n):
        return _RULES[self.kind](check_integer(n, "n", least=1), *self.params)

    def check(self, n):
        """Raise if n < 1, or if a preset's sigma falls outside its own regime at n."""
        n = check_integer(n, "n", least=1)
        if self.kind in _PRESETS:
            k = _PRESETS.index(self.kind)
            lo, hi = _regime_edges(n)[k : k + 2]
            s = self.sigma(n)
            if not lo < s <= hi:
                msg = "preset %r out of regime at n=%d: sigma=%g not in (%g, %g]"
                raise ValueError(msg % (self.kind, n, s, lo, hi))


def _measure_risks(problem, ds, sigma, link, kinds):
    out = {}
    if problem == "deconv":
        est, _ = estimate_cdf(ds.y, sigma)
        truth = TabulatedDistribution.from_callable(lambda z: link_cdf(link, z), est.grid)
        out["W1_measure"] = w1_tabulated(est, truth)
        return out
    if problem == "shuffled":
        mhat = fit_shuffled(ds.x_ordered, ds.y, sigma).fit
    else:
        mhat = fit_unlinked(ds.x_ordered, ds.y, sigma).fit
    for kind in kinds:
        if kind == "empirical_L1":
            out[kind] = risk_empirical(mhat, link, ds.x_ordered)
        else:
            out[kind] = risk_population(mhat, link)
    return out


def rate_sweep(problem, n_grid, sigma_rule, reps, seed, link=None, risk_kinds=None):
    """Generate-fit-measure replications across an n-grid.

    One :class:`RiskRecord` per (n, replication, risk kind), each rerunning
    exactly from its recorded seed.  ``sigma_rule`` is a :class:`SigmaRule`
    or its text (``below-root``, ``power:0.5``) for ``synth.parse_spec``.
    An empty ``n_grid``, ``reps`` < 1 and a size < 1 (< 2 for ``unlinked``
    and ``deconv``, whose bandwidth takes log n) or outside a preset's
    regime are refused before any fit.
    """
    if problem not in _COMPATIBLE:
        raise ValueError("unknown problem: %r" % (problem,))
    if isinstance(sigma_rule, str):
        sigma_rule = parse_spec(SigmaRule, sigma_rule)
    link = LinkSpec("identity") if link is None else link
    kinds = tuple(risk_kinds) if risk_kinds else _COMPATIBLE[problem][:1]
    for kind in kinds:
        if kind not in _COMPATIBLE[problem]:
            raise ValueError("risk kind %r incompatible with problem %r" % (kind, problem))
    n_grid = [check_integer(n, "n", least=1 if problem == "shuffled" else 2) for n in n_grid]
    reps = check_integer(reps, "reps", least=1)
    if not n_grid:
        raise ValueError("n_grid must hold one or more sizes, got []")
    for n in n_grid:
        sigma_rule.check(n)
    records = []
    for n in n_grid:
        sig = sigma_rule.sigma(n)
        for rep in range(reps):
            child = derive_seed(seed, problem, n, rep)
            ds = sample_dataset(problem, n, link, NoiseSpec(), sig, seed=child)
            risks = _measure_risks(problem, ds, sig, link, kinds)
            for kind in kinds:
                records.append(
                    RiskRecord(problem=problem, n=n, sigma=sig, seed=child, risk_kind=kind, value=risks[kind])
                )
    return records


def fit_loglog_slope(points):
    """Least-squares slope of log(value) against log(n).

    Returns (slope, intercept, r_squared).  Needs at least two distinct n;
    each n and value must be above 0 for the logs to exist.
    """
    pts = [(check_real(n, "n", above=0.0), check_real(v, "value", above=0.0)) for n, v in points]
    ns = np.array([n for n, _ in pts])
    if np.unique(ns).size < 2:
        raise ValueError("need at least two distinct n")
    lx = np.log(ns)
    ly = np.log(np.array([v for _, v in pts]))
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return float(slope), float(intercept), float(r2)
