"""End-to-end acceptance gate.

Each test below exercises one primary claim of the package at full
protocol scale and prints a single ``[PRIMARY k] PASS/FAIL`` verdict line
(run with ``-s`` or ``-rA`` to see the lines for passing checks).  The
checks are ordered; the conjecture sweep (5) dominates the runtime at a
few minutes with eight workers.
"""

import math
import time

import numpy as np
from scipy import stats

from monofit.dist1d import (
    EmpiricalMeasure,
    GridSpec,
    TabulatedDistribution,
    w1_cdf_area,
    w1_empirical,
    w1_tabulated,
)
from monofit.experiments import (
    ConjectureConfig,
    SigmaRule,
    _occupancy_counts,
    conjecture_sweep,
    fit_loglog_slope,
    rate_sweep,
    risk_empirical,
)
from monofit.regress import fit_shuffled
from monofit.synth import LinkSpec, NoiseSpec, derive_seed, rng_stream, sample_dataset

from links import link_catalog

SEED = 1729


def _verdict(num, ok, detail):
    line = "[PRIMARY %d] %s %s" % (num, "PASS" if ok else "FAIL", detail)
    print(line, flush=True)
    assert ok, line


def test_01_noiseless_shuffled_exact_recovery():
    """With zero noise the sorted responses recover the link exactly."""
    noise = NoiseSpec()
    t0 = time.perf_counter()
    worst = 0.0
    for name, link in link_catalog(1000).items():
        ds = sample_dataset(
            "shuffled", 1000, link, noise, 0.0, seed=derive_seed(SEED, "acc1", name)
        )
        mhat = fit_shuffled(ds.x_ordered, ds.y, 0.0).fit
        worst = max(worst, risk_empirical(mhat, link, ds.x_ordered))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-12 and elapsed < 1.0
    _verdict(
        1,
        ok,
        "noiseless recovery: max empirical risk %.1e over catalog links in %.2fs"
        % (worst, elapsed),
    )


def test_02_shuffled_risk_slope_in_sigma():
    """Mean empirical risk against the noise scale, step link, n = 4096.

    Checks the linear-in-sigma shuffled rate: the log-log slope must lie in
    [0.85, 1.15].  That rate is the worst case over monotone links with no
    smoothness, and the sorting estimator attains it on links with flat
    pieces.  On a flat piece every unit has the same m, so with the level
    gaps far above sigma, sorting gives Y_(i) - m(X_(i)) = sigma*delta_(i)
    and the risk is sigma*E|delta| = sigma*sqrt(2/pi), exactly linear.

    A smooth strictly increasing link is easier: on the identity link,
    sorting cancels swaps between neighbours whose m-values nearly match,
    leaving a bulk term near 0.71*sqrt(sigma/n) plus a sigma^2 boundary
    term, and the same protocol measures a slope near 0.75.
    """
    link = link_catalog(4096)["step"]
    noise = NoiseSpec()
    sigmas = (1e-3, 3e-3, 1e-2, 3e-2, 1e-1)
    t0 = time.perf_counter()
    pts = []
    for si, sigma in enumerate(sigmas):
        risks = []
        for rep in range(50):
            ds = sample_dataset(
                "shuffled", 4096, link, noise, sigma,
                seed=derive_seed(SEED, "acc2", si, rep),
            )
            mhat = fit_shuffled(ds.x_ordered, ds.y, sigma).fit
            risks.append(risk_empirical(mhat, link, ds.x_ordered))
        pts.append((sigma, float(np.mean(risks))))
    elapsed = time.perf_counter() - t0
    slope, intercept, r2 = fit_loglog_slope(pts)
    ok = 0.85 <= slope <= 1.15 and elapsed < 60.0
    _verdict(
        2,
        ok,
        "risk-vs-sigma slope %.4f (r^2 %.3f) vs window [0.85, 1.15] in %.1fs; "
        "risk/sigma constant %.4f vs sqrt(2/pi) %.4f"
        % (slope, r2, elapsed, math.exp(intercept), math.sqrt(2.0 / math.pi)),
    )


def test_03_oracle_inequality_every_instance():
    """Squared design-point error vs the recorded-noise oracle bound."""
    noise = NoiseSpec()
    cat = link_catalog(300)
    margin = math.inf
    checked = 0
    for name in ("identity", "affine", "cube", "step"):
        for sigma in (0.1, 0.5):
            for rep in range(25):
                seed = derive_seed(SEED, "acc3", name, rep)
                ds = sample_dataset("shuffled", 300, cat[name], noise, sigma, seed=seed)
                mhat = fit_shuffled(ds.x_ordered, ds.y, sigma).fit
                # same stream the sampler used, so these are the realized noises
                delta = rng_stream(seed, "noise").standard_normal(300)
                lhs = float(np.mean((mhat(ds.x_ordered) - cat[name](ds.x_ordered)) ** 2))
                rhs = 4.0 * sigma**2 * float(np.mean(delta**2)) + 2.0 * sigma**2
                margin = min(margin, rhs - lhs)
                checked += 1
    ok = checked == 200 and margin >= 0.0
    _verdict(
        3,
        ok,
        "oracle inequality on %d instances: min slack %.4f" % (checked, margin),
    )


def test_04_vanishing_noise_root_n_rate():
    """W1 risk of the deconvolution estimate decays near n^{-1/2}.

    Noise scale 0.1*n^{-0.6} stays below the root-n threshold, so
    smoothing adds no amplification and sampling error dominates.  The
    affine link with support length 4 keeps the kernel's boundary bias an
    order of magnitude below the sampling term across this n range.
    """
    n_grid = (100, 316, 1000, 3162, 10000)
    t0 = time.perf_counter()
    records = rate_sweep(
        "deconv", n_grid, SigmaRule("below-root"), 30, SEED,
        link=LinkSpec("affine", (4.0, -2.0)),
    )
    elapsed = time.perf_counter() - t0
    pts = []
    for n in n_grid:
        vals = [r.value for r in records if r.n == n]
        pts.append((n, float(np.mean(vals))))
    slope, _, r2 = fit_loglog_slope(pts)
    ok = -0.65 <= slope <= -0.35 and elapsed < 300.0
    _verdict(
        4,
        ok,
        "W1-vs-n slope %.4f (r^2 %.3f) vs window [-0.65, -0.35] in %.1fs"
        % (slope, r2, elapsed),
    )


def test_05_occupancy_product_sweep_stays_positive():
    """Full default product sweep: every grid mean strictly positive."""
    cfg = ConjectureConfig()
    t0 = time.perf_counter()
    rows = conjecture_sweep(cfg, workers=8)
    elapsed = time.perf_counter() - t0
    means = np.array([row.mean for row in rows])
    expected_rows = cfg.n_grid.size * len(cfg.C_list)
    ok = (
        len(rows) == expected_rows
        and np.all(means > 0.0)
        and float(means.min()) >= 0.01
        and elapsed < 900.0
    )
    _verdict(
        5,
        ok,
        "%d grid cells, min mean %.6f (floor 0.01) in %.0fs with 8 workers"
        % (len(rows), float(means.min()), elapsed),
    )


def test_06_w1_dual_formulas_agree():
    """Quantile-coupling and CDF-area evaluations match on random pairs."""
    rng = rng_stream(SEED, "acc6")
    worst = 0.0
    for _ in range(1000):
        na, nb = int(rng.integers(1, 64)), int(rng.integers(1, 64))
        a = rng.normal(rng.uniform(-2, 2), rng.uniform(0.2, 3), na)
        b = rng.normal(rng.uniform(-2, 2), rng.uniform(0.2, 3), nb)
        if rng.random() < 0.3:
            # lattice values force ties and flat CDF runs
            a = np.round(a, 1)
            b = np.round(b, 1)
        ea, eb = EmpiricalMeasure.from_sample(a), EmpiricalMeasure.from_sample(b)
        worst = max(worst, abs(w1_empirical(ea, eb) - w1_cdf_area(ea, eb)))
    ok = worst < 1e-9
    _verdict(6, ok, "max |quantile - cdf-area| = %.2e over 1000 pairs" % worst)


def test_07_mean_shift_identity():
    """Distance between a Gaussian and its shift equals the shift."""
    grid = GridSpec(-8.0, 8.3, 2**14)
    base = TabulatedDistribution.from_callable(stats.norm.cdf, grid)
    worst = 0.0
    for shift in (0.01, 0.1, 0.3):
        other = TabulatedDistribution.from_callable(lambda x, s=shift: stats.norm.cdf(x - s), grid)
        worst = max(worst, abs(w1_tabulated(base, other) - shift))
    ok = worst <= 1e-3
    _verdict(7, ok, "max |W1 - shift| = %.2e over shifts {0.01, 0.1, 0.3}" % worst)


def test_08_convolution_contracts():
    """Common additive noise cannot increase the distance (up to MC error)."""
    rng = rng_stream(SEED, "acc8")
    n, reps = 80, 40
    worst = -math.inf
    for _ in range(100):
        a = np.sort(rng.normal(size=n) * rng.uniform(0.5, 3))
        b = np.sort(rng.normal(rng.uniform(-2, 2), 1.0, n))
        base = w1_empirical(EmpiricalMeasure(a), EmpiricalMeasure(b))
        vals = np.empty(reps)
        for r in range(reps):
            eps = rng.normal(size=n)
            vals[r] = w1_empirical(
                EmpiricalMeasure.from_sample(a + eps),
                EmpiricalMeasure.from_sample(b + eps),
            )
        stderr = float(np.std(vals, ddof=1)) / math.sqrt(reps)
        # 1e-12 absorbs float summation noise when every replicate ties base
        worst = max(worst, float(np.mean(vals)) - (base + 3.0 * stderr) - 1e-12)
    ok = worst <= 0.0
    _verdict(8, ok, "max excess over base + 3*stderr = %.2e on 100 pairs" % worst)


def test_09_order_statistics_laws():
    """Spacings behave exponentially; occupancy maxima obey the log tail."""
    rng = rng_stream(SEED, "acc9", 0)
    n = 4000
    u = np.sort(rng.random(n))
    spacings = np.diff(np.concatenate(([0.0], u, [1.0]))) * (n + 1)
    pvalue = stats.kstest(spacings, "expon").pvalue

    rng = rng_stream(SEED, "acc9tail")
    m = 10**5
    thresh = 2.0 * math.log(m) / math.log(math.log(m))
    hits = sum(int(_occupancy_counts(rng, m).max() > thresh) for _ in range(500))
    freq = hits / 500.0
    ok = pvalue >= 1e-3 and freq <= 0.05
    _verdict(
        9,
        ok,
        "spacings KS p = %.3f (level 1e-3); occupancy-tail frequency %.3f "
        "(cap 0.05 at n = 1e5)" % (pvalue, freq),
    )
