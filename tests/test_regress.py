"""Tests for the shuffled and unlinked monotone link estimators.

Oracles:

- an exhaustive n!-assignment search certifies that sorting realizes the
  squared-contrast minimum over pairings (n <= 6);
- closed-form winsorization thresholds certify the moment projection, and
  on catalog data its threshold is checked to be the largest feasible one;
- the mid-cell quantiles of the smoothed empirical CDF certify the fitted
  values of the unlinked estimator when noise is degenerate.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from monofit.deconv import deconvolve_cdf, estimate_cdf
from monofit.dist1d import (
    EmpiricalMeasure,
    MonotoneStepFn,
    TabulatedDistribution,
    quantile,
    w1_tabulated,
    w2_empirical,
)
from monofit.regress import (
    MOMENT_BOUND,
    MOMENT_ORDER,
    FitResult,
    fit_shuffled,
    fit_unlinked,
    project_moment,
    stepfn_from_csv,
    stepfn_to_csv,
)
from monofit.synth import LinkSpec, NoiseSpec, derive_seed, rng_stream, sample_dataset

from links import link_catalog
from memory import traced_peak

NOISE = NoiseSpec()


def min_assignment_sq(v, y):
    """Brute-force min over all pairings of sum (v_i - y_pi(i))^2."""
    best = math.inf
    for perm in itertools.permutations(range(len(y))):
        best = min(best, sum((v[i] - y[j]) ** 2 for i, j in enumerate(perm)))
    return best


class TestFitResult:
    def test_eta_schedule(self):
        rng = rng_stream(20, "eta")
        assert fit_shuffled(np.sort(rng.random(100)), rng.normal(size=100), 0.5).eta == 0.25
        assert fit_unlinked(np.sort(rng.random(400)), rng.normal(size=400), 0.5).eta == 0.05

    def test_frozen(self):
        res = fit_shuffled(np.array([0.2, 0.7]), np.array([1.0, 0.0]), 0.1)
        assert isinstance(res, FitResult)
        with pytest.raises(AttributeError):
            res.eta = 0.0

    @staticmethod
    def assert_valid(res, raw, eta):
        values = np.asarray(res.fit.values)
        assert np.all(np.isfinite(values)) and np.all(np.diff(values) >= 0)
        assert np.mean(np.abs(values) ** MOMENT_ORDER) <= MOMENT_BOUND * (1 + 1e-12)
        assert res.projected == bool(np.mean(np.abs(raw) ** MOMENT_ORDER) > MOMENT_BOUND)
        assert res.eta == eta

    @given(
        st.sampled_from(sorted(link_catalog(3))),
        st.integers(3, 300),
        st.sampled_from([0.0, 0.1, 1.0, 3.0]),
        st.integers(0, 2**32),
    )
    @settings(max_examples=100, deadline=None)
    def test_shuffled_property_on_catalog(self, name, n, sigma, seed):
        ds = sample_dataset("shuffled", n, link_catalog(n)[name], NOISE, sigma, seed=seed)
        res = fit_shuffled(ds.x_ordered, ds.y, sigma)
        self.assert_valid(res, np.sort(ds.y), sigma**2)
        assert np.array_equal(res.fit.knots, ds.x_ordered)

    @given(
        st.sampled_from(sorted(link_catalog(3))),
        st.integers(3, 200),
        st.sampled_from([0.0, 0.1, 1.0, 3.0]),
        st.integers(0, 2**32),
    )
    @settings(max_examples=30, deadline=None)
    def test_unlinked_property_on_catalog(self, name, n, sigma, seed):
        ds = sample_dataset("unlinked", n, link_catalog(n)[name], NOISE, sigma, seed=seed)
        res = fit_unlinked(ds.x_ordered, ds.y, sigma)
        est, _ = estimate_cdf(ds.y, sigma)
        raw = np.maximum.accumulate(quantile(est, (2.0 * np.arange(1, n + 1) - 1.0) / (2.0 * n)))
        self.assert_valid(res, raw, 1.0 / math.sqrt(n))
        assert np.array_equal(res.fit.knots, ds.x_ordered)

    @pytest.mark.parametrize("slope, offset, projected", [(1.0, 0.0, False), (8.0, -4.0, True)])
    def test_unlinked_values_are_projected_midcell_quantiles(self, slope, offset, projected):
        # the fit is exactly the moment projection of the running max of the
        # mid-cell quantiles of estimate_cdf's table, bit for bit
        n, sigma = 2000, 0.1
        ds = sample_dataset("unlinked", n, LinkSpec("affine", (slope, offset)), NOISE, sigma, seed=36)
        res = fit_unlinked(ds.x_ordered, ds.y, sigma)
        est, _ = estimate_cdf(ds.y, sigma)
        levels = (2.0 * np.arange(1, n + 1) - 1.0) / (2.0 * n)
        want = project_moment(np.maximum.accumulate(quantile(est, levels)))
        assert np.array_equal(res.fit.values, want)
        assert res.projected is projected


class TestProjectMoment:
    # the ball is the fits' own: (1/n) sum |v_i|^3 <= 10
    def test_within_bound_unchanged(self):
        v = np.array([-1.0, 0.0, 2.0])
        assert np.array_equal(project_moment(v), v)

    def test_closed_form_threshold(self):
        # all values 10: the clipped moment tau^3 meets 10 at tau = 10^(1/3)
        out = project_moment(np.full(7, 10.0))
        assert np.allclose(out, 10.0 ** (1.0 / 3.0), rtol=1e-12)

    def test_zeros_unchanged(self):
        z = np.zeros(5)
        assert np.array_equal(project_moment(z), z)

    def test_active_projection_meets_bound(self):
        rng = rng_stream(21, "proj")
        for _ in range(20):
            v = np.sort(rng.normal(0.0, 0.5 + 4.0 * rng.random(), 50))
            out = project_moment(v)
            mom = np.mean(np.abs(out) ** 3)
            assert mom <= MOMENT_BOUND * (1 + 1e-12)
            if np.mean(np.abs(v) ** 3) > MOMENT_BOUND:
                assert mom == pytest.approx(MOMENT_BOUND, rel=1e-9)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=30), st.floats(1e-6, 1.0))
    @settings(max_examples=150)
    def test_projection_properties(self, vals, scale):
        v = np.sort(np.asarray(vals)) * scale
        out = project_moment(v)
        assert np.all(np.diff(out) >= 0)
        assert np.mean(np.abs(out) ** MOMENT_ORDER) <= MOMENT_BOUND * (1 + 1e-9)
        if np.mean(np.abs(v) ** MOMENT_ORDER) <= MOMENT_BOUND:
            assert np.array_equal(out, v)

    @staticmethod
    def assert_largest_feasible(raw):
        out = project_moment(raw)
        tau = float(np.max(np.abs(out)))
        assert np.array_equal(out, np.clip(raw, -tau, tau))
        assert np.mean(np.abs(out) ** MOMENT_ORDER) <= MOMENT_BOUND * (1 + 1e-12)
        assert np.mean(np.minimum(np.abs(raw), tau * (1 + 1e-12)) ** MOMENT_ORDER) > MOMENT_BOUND

    @given(
        st.sampled_from(sorted(link_catalog(3))),
        st.integers(1, 100),
        st.sampled_from([0.0, 0.1, 1.0]),
        st.integers(0, 2**32),
        st.floats(0.01, 0.99),
    )
    @settings(max_examples=150, deadline=None)
    def test_threshold_is_largest_feasible_on_catalog_data(self, name, n, sigma, seed, frac):
        # the sample scaled so that the ball binds at the fraction frac of its moment
        ds = sample_dataset("shuffled", n, link_catalog(max(n, 3))[name], NOISE, sigma, seed=seed)
        raw = np.sort(ds.y)
        full = np.mean(np.abs(raw) ** MOMENT_ORDER)
        assume(full > 0.0)
        self.assert_largest_feasible(raw * (MOMENT_BOUND / (frac * full)) ** (1.0 / MOMENT_ORDER))

    @pytest.mark.parametrize("mode", ["shuffled", "unlinked"])
    def test_threshold_is_largest_feasible_at_1e5(self, mode):
        # n = 1e5 responses like those of the benchmark's estimate
        # workload, where the bound M / c_X = 10 at p = 3 binds
        ds = sample_dataset(mode, 10**5, LinkSpec("affine", (8.0, -4.0)), NOISE, 0.1, seed=derive_seed(5, mode))
        self.assert_largest_feasible(np.sort(ds.y))


class TestExtendPiecewise:
    # the fits extend their values over [0, 1] as a MonotoneStepFn
    def test_cell_semantics(self):
        m = MonotoneStepFn(np.array([0.2, 0.5, 0.9]), np.array([1.0, 2.0, 3.0]))
        # value_i on (X_(i-1), X_(i)]
        assert m(0.3) == 2.0 and m(0.5) == 2.0
        assert m(0.51) == 3.0 and m(0.9) == 3.0
        # below the first order statistic
        assert m(0.0) == 1.0 and m(0.2) == 1.0
        # beyond the last one
        assert m(0.95) == 3.0 and m(1.0) == 3.0

    def test_errors(self):
        with pytest.raises(ValueError, match="^values must have the length of knots, 2, got 1$"):
            MonotoneStepFn(np.array([0.2, 0.5]), np.array([1.0]))


class TestFitShuffled:
    def test_noiseless_recovery_all_links(self):
        for n in (10, 100, 1000):
            for link in link_catalog(n).values():
                ds = sample_dataset("shuffled", n, link, NOISE, 0.0, seed=42)
                m = fit_shuffled(ds.x_ordered, ds.y, 0.0).fit
                truth = link(ds.x_ordered)
                assert np.max(np.abs(m(ds.x_ordered) - truth)) == 0.0

    def test_sorted_assignment_is_optimal(self):
        # the fitted values minimize the assignment cost over all n! pairings
        rng = rng_stream(22, "brute")
        for n in range(2, 7):
            for _ in range(5):
                y = rng.normal(size=n)
                x = np.sort(rng.random(n))
                v = fit_shuffled(x, y, 0.0).fit(x)
                assert min_assignment_sq(v, y) == pytest.approx(0.0, abs=1e-20)
                # and for an arbitrary monotone candidate the sorted pairing
                # is still the best assignment
                v2 = np.sort(rng.normal(size=n))
                assert min_assignment_sq(v2, y) == pytest.approx(
                    np.sum((v2 - np.sort(y)) ** 2), rel=1e-12
                )

    def test_oracle_inequality(self):
        # (1/n) sum (mhat(X_(i)) - m0(X_(i)))^2 <= (4 sigma^2/n) sum delta_i^2
        # + 2 sigma^2, deterministically, whenever the projection is inactive
        n = 300
        for name in ("identity", "affine", "cube", "step"):
            link = link_catalog(n)[name]
            for sig in (0.1, 0.5):
                for seed in range(5):
                    ds = sample_dataset("shuffled", n, link, NOISE, sig, seed=seed)
                    res = fit_shuffled(ds.x_ordered, ds.y, sig)
                    assert not res.projected
                    delta = rng_stream(seed, "noise").standard_normal(n)
                    lhs = np.mean((res.fit(ds.x_ordered) - link(ds.x_ordered)) ** 2)
                    rhs = 4.0 * sig**2 * np.mean(delta**2) + 2.0 * sig**2
                    assert lhs <= rhs

    @pytest.mark.parametrize("x", [[0.5, 0.1, 0.9], [-5e-324, 0.5, 0.9], [0.1, 0.5, 1.0000000000000002]])
    def test_unsorted_or_outside_covariates_refused_as_the_knots(self, x):
        with pytest.raises(ValueError, match="^knots must be a 1-d array .*, increasing, in \\[0, 1\\], got "):
            fit_shuffled(x, [1.0, 3.0, 2.0], 0.1)

    def test_permutation_invariance(self):
        rng = rng_stream(23, "perm")
        x = np.sort(rng.random(50))
        y = rng.normal(size=50)
        m1 = fit_shuffled(x, y, 0.1).fit
        m2 = fit_shuffled(x, y[rng.permutation(50)], 0.1).fit
        assert np.array_equal(m1.knots, m2.knots)
        assert np.array_equal(m1.values, m2.values)

    def test_near_minimality_with_projection(self):
        # heavy-tailed draw forces the projection; the projected point stays
        # within eta = sigma^2 of the best of 10^3 random ball members
        rng = rng_stream(31, "proj")
        n = 200
        y = rng.normal(0.0, 6.0, n)
        x = np.sort(rng.random(n))
        res = fit_shuffled(x, y, 1.0)
        assert res.projected
        a = EmpiricalMeasure.from_sample(y)
        achieved = w2_empirical(a, EmpiricalMeasure.from_sample(res.fit(x)))
        best = math.inf
        for k in range(1000):
            crng = rng_stream(32, "cand", k)
            v = np.sort(crng.normal(0.0, 2.0 + 4.0 * crng.random(), n))
            v = project_moment(v)
            best = min(best, w2_empirical(a, EmpiricalMeasure(v)))
        assert achieved <= best + res.eta

    def test_membership_in_moment_ball(self):
        rng = rng_stream(24, "ball")
        x = np.sort(rng.random(80))
        y = rng.normal(0.0, 20.0, 80)  # way outside the ball
        m = fit_shuffled(x, y, 0.3).fit
        assert np.all(np.diff(m.values) >= 0)
        assert np.mean(np.abs(m.values) ** MOMENT_ORDER) <= MOMENT_BOUND * (1 + 1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            fit_shuffled(np.array([0.1, 0.2]), np.array([1.0]), 0.0)


class TestFitUnlinked:
    def test_tracks_midcell_quantiles_degenerate_noise(self):
        # sigma = 0: the deconvolved measure is the empirical y-measure
        # smoothed at scale h, so the fitted values track the mid-cell
        # quantiles of the independently computed smoothed CDF (closed-form
        # kernel, see test_deconv) within the smoothing width
        from scipy.integrate import cumulative_trapezoid
        from scipy.special import jv

        from monofit.deconv import isotonize_cdf
        from monofit.dist1d import quantile as tab_quantile

        n = 200
        rng = rng_stream(25, "track")
        y = rng.random(n)
        x = np.sort(rng.random(n))
        ys = EmpiricalMeasure.from_sample(y)
        m = fit_unlinked(x, y, 0.0).fit
        est, h = estimate_cdf(y, 0.0)
        assert h == 1.0 / math.sqrt(n)

        def kernel(u):
            u = np.where(np.abs(u) < 1e-8, 1e-8, np.abs(u))
            return (3.0 / math.sqrt(math.pi)) * (2.0 / u) ** 3.5 * jv(3.5, u)

        xs = est.grid.xs
        dens = kernel((xs[:, None] - ys.atoms[None, :]) / h).mean(axis=1) / h
        cdf = isotonize_cdf(cumulative_trapezoid(dens, dx=est.grid.step, initial=0.0))
        oracle = TabulatedDistribution(est.grid, cdf)
        levels = (2.0 * np.arange(1, n + 1) - 1.0) / (2.0 * n)
        ref = tab_quantile(oracle, levels)
        assert np.max(np.abs(np.asarray(m.values) - ref)) <= 2.0 * h

    def test_large_n_without_noise(self):
        # n = 1e5, sigma = 0: h = n^(-1/2) is finer than 2^14 grid points
        # resolve, so the grid is refined; away from the kernel tails at the
        # edges the fit tracks the uniform quantiles (2i - 1) / (2n) within
        # the smoothing width
        n = 100_000
        rng = rng_stream(25, "large-n")
        y = rng.random(n)
        m = fit_unlinked(np.sort(rng.random(n)), y, 0.0).fit
        est, h = estimate_cdf(y, 0.0)
        assert h == 1.0 / math.sqrt(n) and est.cdf.size == 2**15
        levels = (2.0 * np.arange(1, n + 1) - 1.0) / (2.0 * n)
        bulk = (levels >= 0.01) & (levels <= 0.99)
        assert np.max(np.abs(np.asarray(m.values) - levels)[bulk]) <= 2.0 * h

    def test_values_nondecreasing(self):
        rng = rng_stream(26, "mono")
        y = rng.normal(0.5, 0.7, 150)
        x = np.sort(rng.random(150))
        m = fit_unlinked(x, y, 0.2).fit
        assert np.all(np.diff(m.values) >= 0)
        assert np.mean(np.abs(m.values) ** 3) <= 10.0 * (1 + 1e-12)

    def test_identity_fixed_seed_risk(self):
        # independent x/y draws of the identity link, no noise: empirical L1
        # risk at n = 10^4 comes out two orders below the 0.05 budget
        n = 10**4
        ds = sample_dataset("unlinked", n, link_catalog(n)["identity"], NOISE, 0.0, seed=7)
        m = fit_unlinked(ds.x_ordered, ds.y, 0.0).fit
        risk = np.mean(np.abs(m(ds.x_ordered) - ds.x_ordered))
        assert risk <= 0.05

    def test_near_minimality(self):
        n = 100
        rng = rng_stream(33, "unl")
        y = rng.random(n)
        x = np.sort(rng.random(n))
        res = fit_unlinked(x, y, 0.0)
        est, h = estimate_cdf(y, 0.0)
        grid = est.grid
        ys = EmpiricalMeasure.from_sample(y)
        muZ = deconvolve_cdf(ys, 0.0, h, grid)
        assert np.array_equal(muZ.cdf, est.cdf)

        def contrast(vals):
            emp = EmpiricalMeasure.from_sample(vals)
            tab = TabulatedDistribution.from_callable(
                lambda xs: np.searchsorted(emp.atoms, xs, side="right") / emp.n, grid
            )
            return w1_tabulated(tab, muZ)

        achieved = contrast(np.asarray(res.fit.values))
        best = math.inf
        for k in range(1000):
            crng = rng_stream(34, "cand", k)
            v = np.sort(crng.normal(0.5, 0.1 + 0.6 * crng.random(), n))
            v = project_moment(v)
            best = min(best, contrast(v))
        assert achieved <= best + res.eta

    def test_fit_within_a_memory_budget(self):
        # the fit keeps the caller's sorted x_ordered as its knots, with no
        # n-length copy of it; fit_shuffled traces 3.0 x 8n bytes here
        n = 100_000
        ds = sample_dataset("unlinked", n, LinkSpec("affine", (8.0, -4.0)), NOISE, 0.1, seed=601)
        res, peak = traced_peak(fit_unlinked, ds.x_ordered, ds.y, 0.1)
        assert res.fit.knots is ds.x_ordered
        assert peak < 4 * 8 * n, "peak %.2f x 8n bytes" % (peak / (8 * n))

    def test_input_validation(self):
        with pytest.raises(ValueError, match="^y must have the length of x_ordered, 2, got 1$"):
            fit_unlinked(np.array([0.1, 0.2]), np.array([1.0]), 0.0)
        # one far outlier stretches the padded grid past what 2^20 points
        # resolve at a quarter bandwidth
        rng = rng_stream(35, "outlier")
        y = rng.random(500)
        y[17] = 1e9
        with pytest.raises(ValueError, match="grid too coarse"):
            fit_unlinked(np.sort(rng.random(500)), y, 0.05)


class TestStepfnCsv:
    def test_round_trip(self, tmp_path):
        m = MonotoneStepFn(np.array([0.25, 0.5, 1.0]), np.array([-1.5, 0.125, 2.0 / 3.0]))
        path = tmp_path / "fit.csv"
        stepfn_to_csv(m, path, n=3, sigma=0.25, eta=0.0625, projected=True)
        m2, meta = stepfn_from_csv(path)
        assert np.array_equal(m2.knots, m.knots)
        assert np.array_equal(m2.values, m.values)
        assert meta == {"n": 3, "sigma": 0.25, "eta": 0.0625, "projected": True}

    def test_missing_metadata(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# n=3\nknot,value\n0.5,1\n")
        with pytest.raises(ValueError, match="missing metadata"):
            stepfn_from_csv(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad2.csv"
        path.write_text("# n=1\n# sigma=0\n# eta=0\n# projected=0\nk,v\n0.5,1\n")
        with pytest.raises(ValueError, match="expected header"):
            stepfn_from_csv(path)

    def test_bad_row_names_the_file_and_the_line(self, tmp_path):
        path = tmp_path / "bad3.csv"
        path.write_text("# n=2\n# sigma=0\n# eta=0\n# projected=0\nknot,value\n0.5,1\n1.0\n")
        with pytest.raises(ValueError) as refused:
            stepfn_from_csv(path)
        assert str(refused.value) == "%s: line 7: expected 2 cells, found 1: '1.0'" % path

    @pytest.mark.parametrize(
        "key, text, why",
        [
            ("n", "100.5", "n must be an integer >= 1, got 100.5"),
            ("n", "0", "n must be an integer >= 1, got 0"),
            ("n", "ten", "could not convert"),
            ("projected", "2", "projected must be 0 or 1, got '2'"),
            ("projected", "yes", "projected must be 0 or 1, got 'yes'"),
            ("sigma", "nan", "sigma must be a finite real number >= 0, got nan"),
            ("sigma", "-0.25", "sigma must be a finite real number >= 0, got -0.25"),
            ("eta", "inf", "eta must be a finite real number >= 0, got inf"),
        ],
    )
    def test_bad_preamble_value_refused_with_the_file_name(self, tmp_path, key, text, why):
        meta = {"n": "3", "sigma": "0.25", "eta": "0.0625", "projected": "1", key: text}
        path = tmp_path / "fit.csv"
        path.write_text("".join("# %s=%s\n" % kv for kv in meta.items()) + "knot,value\n0.5,1\n")
        with pytest.raises(ValueError) as refused:
            stepfn_from_csv(path)
        assert str(refused.value).startswith("%s: " % path) and why in str(refused.value)

    def test_nan_row_refused_with_the_file_name(self, tmp_path):
        path = tmp_path / "fit.csv"
        path.write_text("# n=1\n# sigma=0\n# eta=0\n# projected=0\nknot,value\nnan,0\n")
        with pytest.raises(ValueError) as refused:
            stepfn_from_csv(path)
        why = "knots must be a 1-d array of 1 or more finite real numbers, increasing, in [0, 1], got nan at index 0"
        assert str(refused.value) == "%s: %s" % (path, why)
