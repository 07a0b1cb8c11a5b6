"""Fast self-contained invariant checks runnable without a test harness.

Each check is a plain function that raises AssertionError on violation;
:func:`run_selftest` runs them all, prints one line per check, and reports
the failure count.  The suite touches every module but stays small enough
for an interactive shell (a few seconds).
"""

import math
import os
import tempfile

import numpy as np

from . import deconv, dist1d, experiments, regress, synth

__all__ = ["run_selftest", "CHECKS"]


def _check_w1_metric_axioms():
    rng = synth.rng_stream(1, "selftest", "w1")
    for _ in range(20):
        a = dist1d.EmpiricalMeasure.from_sample(rng.normal(size=8))
        b = dist1d.EmpiricalMeasure.from_sample(rng.normal(size=8))
        c = dist1d.EmpiricalMeasure.from_sample(rng.normal(size=8))
        dab = dist1d.w1_empirical(a, b)
        assert dab >= 0.0
        assert abs(dab - dist1d.w1_empirical(b, a)) < 1e-12
        assert dab <= dist1d.w1_empirical(a, c) + dist1d.w1_empirical(c, b) + 1e-12
    assert dist1d.w1_empirical(a, a) == 0.0


def _check_w1_dual_formulas_agree():
    rng = synth.rng_stream(1, "selftest", "dual")
    for _ in range(50):
        a = dist1d.EmpiricalMeasure.from_sample(rng.normal(size=12))
        b = dist1d.EmpiricalMeasure.from_sample(rng.normal(size=12))
        assert abs(dist1d.w1_empirical(a, b) - dist1d.w1_cdf_area(a, b)) < 1e-9


def _check_generalized_inverse_level_sets():
    rng = synth.rng_stream(1, "selftest", "inv")
    knots = np.sort(rng.random(9)) * 0.9 + 0.05
    values = np.sort(rng.normal(size=9))
    m = dist1d.MonotoneStepFn(knots, values)
    for x in rng.normal(size=30):
        t_star = dist1d.generalized_inverse(m, x)
        for t in rng.random(10):
            assert (m(t) <= x) == (t <= t_star) or t == 0.0


def _check_empirical_quantile_cells():
    atoms = np.array([-1.0, 0.0, 0.0, 2.5])
    em = dist1d.EmpiricalMeasure(atoms)
    assert em.quantile(0.25) == -1.0
    assert em.quantile(0.26) == 0.0
    assert em.quantile(1.0) == 2.5


def _check_noiseless_recovery():
    for link in synth.link_catalog(200).values():
        ds = synth.sample_dataset("shuffled", 200, link, synth.NoiseSpec(), 0.0, seed=3)
        m = regress.fit_shuffled(ds.x_ordered, ds.y, 0.0).fit
        assert np.max(np.abs(m(ds.x_ordered) - synth.eval_link(link, ds.x_ordered))) == 0.0


def _check_moment_projection():
    out = regress.project_moment(np.full(5, 10.0), 1.0, 2.0)
    assert np.allclose(out, 1.0, rtol=1e-9)
    v = np.array([-2.0, 0.0, 1.0])
    assert np.array_equal(regress.project_moment(v, 50.0, 3.0), v)


def _check_bandwidth_branches():
    assert deconv.select_bandwidth(10**4, 0.001) == 0.01
    h = deconv.select_bandwidth(10**4, 0.5)
    assert abs(h - 0.3527715834582116) < 1e-12
    for n in (100, 10**4):
        for sig in (0.0, 0.01, 0.3, 1.0):
            h = deconv.select_bandwidth(n, sig)
            assert 0.0 < h <= 1.0


def _check_isotonize():
    raw = np.array([0.2, 0.1, 0.6, 1.4])
    out = deconv.isotonize_cdf(raw)
    assert np.array_equal(out, [0.2, 0.2, 0.6, 1.0])
    assert np.array_equal(deconv.isotonize_cdf(out), out)


def _j3_over_cube(u):
    """j_3(u) / u^3, with (2/u)^3.5 J_3.5(u) = 16/sqrt(pi) j_3(u) / u^3.

    The sin/cos form cancels near 0, so below u = 0.5 it takes seven terms
    of the series sum_k (-u^2/2)^k / (k! (2k+7)!!), good to 1e-18 there.
    """
    small = u < 0.5
    w = np.where(small, 1.0, u)
    closed = ((15.0 - 6.0 * w * w) * np.sin(w) - (15.0 - w * w) * w * np.cos(w)) / w**7
    series = sum((-0.5 * u * u) ** k / (math.factorial(k) * math.prod(range(1, 2 * k + 8, 2))) for k in range(7))
    return np.where(small, series, closed)


def _check_deconv_kernel_oracle():
    rng = synth.rng_stream(1, "selftest", "deconv")
    ys = dist1d.EmpiricalMeasure.from_sample(rng.normal(size=20))
    h = 0.3
    grid = deconv.auto_grid(ys, 0.0, points=2**11)
    est = deconv.deconvolve_cdf(ys, 0.0, h, grid)
    u = np.abs((grid.xs[:, None] - ys.atoms[None, :]) / h)
    dens = (48.0 / math.pi) * _j3_over_cube(u).mean(axis=1) / h
    cdf = deconv.isotonize_cdf(deconv._running_trapezoid(dens, grid.step))
    assert np.max(np.abs(est.cdf - cdf)) < 1e-5


def _check_conjecture_product_closed_forms():
    assert experiments.conjecture_product([1], 1, 1.0, 20.0) == 0.0
    val = experiments.conjecture_product(np.ones(100, dtype=int), 100, 1.0, 20.0)
    assert abs(val - (1.0 - 100.0**-20.0) ** 200) < 1e-12


def _check_conjecture_product_array_form():
    counts = experiments._occupancy_counts(synth.rng_stream(1, "selftest", "occupancy"), 1000)
    cases = [(counts, 1000, experiments.DEFAULT_C_LIST), ([1], 1, (1.0, 2.0)), ([], 5, (1.0,))]
    for occ, n, C_list in cases:
        values = experiments.conjecture_product(occ, n, C_list, 20.0)
        assert [float(v) for v in values] == [experiments.conjecture_product(occ, n, C, 20.0) for C in C_list]


def _check_sweep_determinism():
    cfg = experiments.ConjectureConfig(n_min=50, n_max=200, grid_points=2, reps=10, C_list=(1.0,), seed=4)
    assert experiments.conjecture_sweep(cfg) == experiments.conjecture_sweep(cfg)


def _check_sigma_presets_in_regime():
    grid = experiments.ConjectureConfig().n_grid
    for name in ("below-root", "root-log-small", "root-log-large", "intermediate", "fixed"):
        rule = experiments.parse_sigma_rule(name)
        for n in grid:
            rule.check(int(n))


def _check_dataset_csv_round_trip():
    ds = synth.sample_dataset("shuffled", 5, synth.identity_link(), synth.NoiseSpec(), 0.1, seed=9)
    fd, path = tempfile.mkstemp(suffix=".csv")
    os.close(fd)
    try:
        synth.dataset_to_csv(ds, path)
        back = synth.dataset_from_csv(path, sigma=0.1)
        assert back.mode == "shuffled"
        assert np.array_equal(back.x_ordered, ds.x_ordered)
        assert np.array_equal(back.y, ds.y)
    finally:
        os.unlink(path)


CHECKS = [
    ("w1 metric axioms", _check_w1_metric_axioms),
    ("w1 matching vs cdf-area", _check_w1_dual_formulas_agree),
    ("generalized inverse level sets", _check_generalized_inverse_level_sets),
    ("empirical quantile cells", _check_empirical_quantile_cells),
    ("noiseless shuffled recovery", _check_noiseless_recovery),
    ("moment projection", _check_moment_projection),
    ("bandwidth rule branches", _check_bandwidth_branches),
    ("cdf isotonization", _check_isotonize),
    ("deconvolution kernel oracle", _check_deconv_kernel_oracle),
    ("occupancy product closed forms", _check_conjecture_product_closed_forms),
    ("occupancy product array form", _check_conjecture_product_array_form),
    ("sweep determinism", _check_sweep_determinism),
    ("noise presets in regime", _check_sigma_presets_in_regime),
    ("dataset csv round trip", _check_dataset_csv_round_trip),
]


def run_selftest():
    """Run every check, reporting on stdout; return the number of failures (0 means all good)."""
    failures = 0
    for name, fn in CHECKS:
        try:
            fn()
        except Exception as exc:  # noqa: BLE001 - report and continue
            failures += 1
            print("FAIL  %-32s %s" % (name, exc))
        else:
            print("ok    %s" % name)
    print("%d/%d checks passed" % (len(CHECKS) - failures, len(CHECKS)))
    return failures
