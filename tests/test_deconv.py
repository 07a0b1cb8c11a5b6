"""Tests for the charfn-inversion CDF estimator and its bandwidth rule.

The key oracle: at sigma = 0 the estimator collapses to kernel smoothing of
the empirical measure, and the kernel whose Fourier transform is
(1 - t^2)^3 on [-1, 1] has the closed form

    K(x) = (3 / sqrt(pi)) (2 / x)^{7/2} J_{7/2}(x),      K(0) = 16 / (35 pi),

with J the Bessel function of the first kind.  That gives an independent
check of the entire frequency-domain pipeline (ECF, kernel weights,
quadrature, Fourier inversion) to quadrature accuracy.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import jv

from monofit.deconv import (
    DEFAULT_FREQ_POINTS,
    GridSpec,
    auto_grid,
    deconvolve_cdf,
    estimate_cdf,
    isotonize_cdf,
    select_bandwidth,
)
import monofit.deconv as deconv_mod
from monofit.deconv import _ecf, _fourier_at, _next_fast_len
from monofit.dist1d import EmpiricalMeasure, TabulatedDistribution, quantile, w1_tabulated
from monofit.synth import NoiseSpec, rng_stream, sample_dataset

from links import link_catalog
from memory import traced_peak

ECF_LEAF = deconv_mod.ECF_BLOCK_CELLS // 4  # largest leaf of _ecf's summation tree


def kernel_oracle(x):
    """Closed-form smoothing kernel; vectorized, stable through x = 0."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = np.abs(x) < 1e-8
    out[small] = 16.0 / (35.0 * math.pi)
    xs = x[~small]
    out[~small] = (3.0 / math.sqrt(math.pi)) * (2.0 / np.abs(xs)) ** 3.5 * jv(3.5, np.abs(xs))
    return out


def ecf_loop(ys, ts):
    """The ECF recurrence one frequency at a time: the reference for ``_ecf``."""
    dt = ts[1] - ts[0]
    acc = np.exp(1j * ts[0] * ys)
    base = np.exp(1j * dt * ys)
    out = np.empty(ts.size, dtype=complex)
    for j in range(ts.size):
        out[j] = acc.mean()
        acc *= base
    return out


def smoothed_empirical_oracle(ys, h, grid):
    """Kernel-smoothed empirical CDF computed straight from the closed form."""
    xs = grid.xs
    dens = kernel_oracle((xs[:, None] - ys.atoms[None, :]) / h).mean(axis=1) / h
    from scipy.integrate import cumulative_trapezoid

    return TabulatedDistribution(grid.lo, grid.hi, isotonize_cdf(cumulative_trapezoid(dens, dx=grid.step, initial=0.0)))


def long_double_cdf(ys, sigma, h, grid, freq_points):
    """``deconvolve_cdf``'s trapezoid estimator evaluated directly in long double.

    ECF by cos and sin of t y, kernel, noise division and the trapezoid sum
    over frequencies at every grid point, then the running trapezoid and
    isotonization: no recurrence and no chirp-z transform.  The phase at
    x = lo + (64 a + b) dx is the product of the phases at lo + 64 a dx and
    at b dx, which keeps the grid-by-frequency sum to (M/64 + 64) T cos and
    sin values and two matrix products.
    """
    ld = np.longdouble
    assert grid.points % 64 == 0
    y = ys.atoms.astype(ld)
    ts = np.linspace(-1 / ld(h), 1 / ld(h), freq_points, dtype=ld)
    u = ld(h) * ts
    w = (1 - u * u) ** 3 / np.exp(-((ld(sigma) * ts) ** 2) / 2) * (ts[1] - ts[0])
    w[[0, -1]] /= 2
    g_re = w * np.array([np.cos(t * y).mean() for t in ts])
    g_im = w * np.array([np.sin(t * y).mean() for t in ts])
    dx = (ld(grid.hi) - ld(grid.lo)) / (grid.points - 1)
    coarse = np.outer(ld(grid.lo) + 64 * dx * np.arange(grid.points // 64), ts)
    fine = np.outer(ts, dx * np.arange(64))
    cc, sc, cf, sf = np.cos(coarse), np.sin(coarse), np.cos(fine), np.sin(fine)
    # Re of g e^{-itx} = g_re cos(tx) + g_im sin(tx), with x split as above
    dens = ((cc * g_re + sc * g_im) @ cf + (cc * g_im - sc * g_re) @ sf).ravel() / (2 * ld(math.pi))
    raw = np.concatenate(([ld(0)], np.cumsum(dx * (dens[1:] + dens[:-1]) / 2)))
    return np.clip(np.maximum.accumulate(raw), 0, 1)


class TestBandwidthRule:
    def test_default_constants_valid(self):
        # the rule's theory needs its constant C inside (0, 1/2)
        assert 0.0 < deconv_mod.BANDWIDTH_C < 0.5


class TestSelectBandwidth:
    def test_below_root_branch(self):
        for n in (100, 10**4, 10**6):
            sig = 0.5 / math.sqrt(n)
            assert select_bandwidth(n, sig) == 1.0 / math.sqrt(n)
        assert select_bandwidth(10**4, 0.0) == 0.01

    def test_boundary_goes_to_noise_branch(self):
        n = 10**4
        sig = 1.0 / math.sqrt(n)
        h = select_bandwidth(n, sig)
        inner = n * sig * sig * math.log(n)
        expected = sig * (0.1 * 2.0 * math.log(inner)) ** -0.5
        assert h == pytest.approx(expected, rel=1e-12)
        assert h != 1.0 / math.sqrt(n)

    def test_frozen_anchor(self):
        # both branches at the rule's constant C = 0.1, to the last bit
        assert select_bandwidth(10**6, 0.01) == 0.008315473033895458
        assert select_bandwidth(10**4, 0.001) == 0.01
        h = select_bandwidth(10**4, 0.5)
        assert h == 0.3527715834582116
        closed = 0.5 * (0.2 * math.log(2500.0 * math.log(10**4))) ** -0.5
        assert h == pytest.approx(closed, rel=1e-12)

    def test_fallback_warns(self):
        # n = 2, sigma = n^{-1/2}: inner log is negative
        with pytest.warns(RuntimeWarning):
            h = select_bandwidth(2, 2**-0.5)
        assert h == 1.0 / math.sqrt(2)

    def test_clamped_to_one(self):
        assert select_bandwidth(100, 2.0) == 1.0

    def test_fractional_n_refused(self):
        with pytest.raises(ValueError, match="n must be an integer >= 2, got 100.9"):
            select_bandwidth(100.9, 0.0)
        assert select_bandwidth(100.0, 0.0) == select_bandwidth(np.int64(100), 0.0) == 0.1

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            select_bandwidth(1, 0.1)
        with pytest.raises(ValueError):
            select_bandwidth(100, -0.1)
        for sigma in (math.nan, math.inf):
            with pytest.raises(ValueError, match="sigma"):
                select_bandwidth(100, sigma)

    def test_noise_amplification_bounded(self):
        # the integrand divides by the noise charfn at |t| <= 1/h; the rule
        # keeps the worst-case amplification exp(sigma^2 / (2 h^2)) tame:
        # exactly (n sigma^2 log n)^{C gamma2 / 2} in the noise branch
        # (unless clamped), at most e^{1/2} below the root-n floor.
        for n in (100, 1000, 10**4, 10**5, 10**6):
            root = 1.0 / math.sqrt(n)
            for sig in (1e-4, 0.3 * root, 0.999 * root, root, 3.0 * root, 0.05, 0.2, 0.5, 1.0):
                h = select_bandwidth(n, sig)
                assert 0.0 < h <= 1.0
                amp = math.exp(sig * sig / (2.0 * h * h))
                if sig < root:
                    assert amp <= math.exp(0.5) * (1 + 1e-12)
                elif h < 1.0:
                    inner = n * sig * sig * math.log(n)
                    assert amp == pytest.approx(inner**0.1, rel=1e-9)


class TestGridSpec:
    def test_fields_and_grid(self):
        g = GridSpec(-2.0, 6.0, 16)
        xs = g.xs
        assert xs[0] == -2.0 and xs[-1] == 6.0 and xs.size == 16
        assert g.step == pytest.approx(8.0 / 15.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(1.0, 1.0, 16)
        with pytest.raises(ValueError):
            GridSpec(0.0, 1.0, 12)  # not a power of two
        with pytest.raises(ValueError):
            GridSpec(0.0, 1.0, 1)

    def test_fractional_points_refused(self):
        with pytest.raises(ValueError, match="points must be an integer >= 2, got 16.9"):
            GridSpec(0.0, 1.0, 16.9)
        assert GridSpec(0.0, 1.0, 16.0).points == 16

    @pytest.mark.parametrize("lo, hi", [(0.0, math.inf), (-math.inf, 0.0), (-math.inf, math.inf)])
    def test_non_finite_ends_refused(self, lo, hi):
        # lo < hi holds, but the grid would be [nan, inf, ...]
        with pytest.raises(ValueError, match="finite"):
            GridSpec(lo, hi, 4)

    def test_auto_grid_pad(self):
        ys = EmpiricalMeasure(np.array([-1.0, 0.0, 3.0]))
        g = auto_grid(ys, 0.5)
        pad = 6.0 * 1.5 + 2.0
        assert g.lo == -1.0 - pad and g.hi == 3.0 + pad
        assert g.points == 2**14

    @pytest.mark.parametrize("sigma", [-5.0, np.nan, np.inf])
    def test_auto_grid_refuses_a_bad_sigma(self, sigma):
        # sigma -5 would pad by -22 and leave the sample's ends off the grid
        ys = EmpiricalMeasure(np.linspace(-100.0, 100.0, 50))
        with pytest.raises(ValueError, match="sigma must be a finite real number >= 0"):
            auto_grid(ys, sigma)


class TestIsotonize:
    def test_hand_case(self):
        out = isotonize_cdf([0.1, 0.05, 0.5, 1.2])
        assert np.allclose(out, [0.1, 0.1, 0.5, 1.0])

    def test_invalid(self):
        with pytest.raises(ValueError):
            isotonize_cdf([])
        with pytest.raises(ValueError):
            isotonize_cdf([[0.0, 1.0]])

    @pytest.mark.parametrize("raw", [[math.nan, 0.5], [0.2, math.inf], [-math.inf, 0.5, 1.0], [0.0, math.nan, 1.0]])
    def test_non_finite_refused(self, raw):
        # neither spread by the running max nor clipped into [0, 1]
        with pytest.raises(ValueError, match="^raw must be finite$"):
            isotonize_cdf(raw)

    @given(st.lists(st.floats(-0.5, 1.5), min_size=1, max_size=40))
    def test_output_is_cdf_table(self, raw):
        out = isotonize_cdf(raw)
        assert np.all(np.diff(out) >= 0)
        assert out[0] >= 0.0 and out[-1] <= 1.0

    @given(st.lists(st.floats(-0.5, 1.5), min_size=1, max_size=40))
    def test_idempotent(self, raw):
        once = isotonize_cdf(raw)
        assert np.array_equal(isotonize_cdf(once), once)

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40))
    def test_valid_cdf_fixed(self, vals):
        cdf = np.sort(np.asarray(vals))
        assert np.array_equal(isotonize_cdf(cdf), cdf)


class TestFrequencyHelpers:
    def test_ecf_matches_direct(self):
        rng = rng_stream(5, "ecf")
        ts = np.linspace(-8.0, 8.0, 129)
        for n in (37, 1000):  # one block of rows; several
            ys = rng.normal(size=n)
            direct = np.exp(1j * ts[:, None] * ys[None, :]).mean(axis=1)
            assert np.max(np.abs(_ecf(ys, ts) - direct)) < 1e-10

    @pytest.mark.parametrize("T", [2, 17, 4096])
    @pytest.mark.parametrize("n", [1, 2, 37, 100, 8193, 16384, 16385, 40000])
    def test_ecf_is_the_loop_bit_for_bit(self, n, T):
        ys = 3.0 * rng_stream(5, "ecf-bits", n, T).normal(size=n)
        ts = np.linspace(-math.sqrt(n), math.sqrt(n), T)
        assert np.array_equal(_ecf(ys, ts).view(float), ecf_loop(ys, ts).view(float))

    @pytest.mark.parametrize(
        "n, blocks",
        [
            (1000, 1.0),
            (1000, 2.0),
            (1000, 3.5),
            (1000, 4 + 1 / 32),
            (deconv_mod.ECF_BLOCK_CELLS // 2, 3.5),
            (deconv_mod.ECF_BLOCK_CELLS // 2 + 1, 3.0),
            # larger samples split into leaves of at most ECF_LEAF, so the
            # two cases above now run leaves of four rows a block; these run
            # four-row blocks in one leaf, a ragged last block and one of one row
            (ECF_LEAF, 3.5),
            (ECF_LEAF, 4 + 1 / 4),
        ],
    )
    def test_ecf_block_edges_bit_for_bit(self, n, blocks):
        # one full block, whole blocks, a ragged last block, a last block of
        # one row, blocks of two rows, and one row a block
        rows = deconv_mod.ECF_BLOCK_CELLS // n
        T = int(blocks * rows)
        ys = rng_stream(5, "ecf-edges", n, T).normal(size=n)
        ts = np.linspace(-30.0, 30.0, T)
        assert np.array_equal(_ecf(ys, ts).view(float), ecf_loop(ys, ts).view(float))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5 * ECF_LEAF), st.integers(2, 64), st.integers(0, 2**32))
    def test_ecf_tree_is_the_loop_bit_for_bit(self, n, T, seed):
        ys = 3.0 * rng_stream(seed, "ecf-tree").normal(size=n)
        ts = np.linspace(-math.sqrt(n), math.sqrt(n), T)
        assert np.array_equal(_ecf(ys, ts).view(float), ecf_loop(ys, ts).view(float))

    @pytest.mark.parametrize(
        "n, T",
        [(ECF_LEAF, 64), (ECF_LEAF + 1, 64), (2 * ECF_LEAF + 1, 64)]
        + [(2 * ECF_LEAF + r, 9) for r in range(1, 8)]
        + [(100_000, 4096)],
    )
    def test_ecf_tree_edges_bit_for_bit(self, n, T):
        # the largest leaf, the first split, a split into a leaf and two,
        # every residue of n % 8 at the split, and the estimate-size sample
        ys = rng_stream(5, "ecf-tree-edges", n, T).normal(size=n)
        ts = np.linspace(-30.0, 30.0, T)
        assert np.array_equal(_ecf(ys, ts).view(float), ecf_loop(ys, ts).view(float))

    def test_ecf_holds_no_sample_length_complex_array(self):
        n = 100_000
        ys = np.sort(rng_stream(5, "ecf-memory").normal(size=n))
        _, peak = traced_peak(_ecf, ys, np.linspace(-30.0, 30.0, 16))
        # one leaf's block and start rows; one n-length complex array is 16 n bytes
        assert peak < 16 * n, "peak %.2f MB" % (peak / 1e6)

    @pytest.mark.parametrize("n", [65, 100, 129, 1000, ECF_LEAF + 1, 2 * ECF_LEAF + 7, 100_003])
    def test_numpy_sums_a_complex_row_pairwise(self, n):
        # _ecf's tree of leaves stands on how numpy sums a contiguous row
        a = rng_stream(5, "pairwise", n).normal(size=2 * n).view(complex)
        h = (n - n % 8) // 2
        halves = a[:h].sum() + a[h:].sum()
        assert np.array_equal(np.array([a.sum()]).view(float), np.array([halves]).view(float)), (
            "numpy's pairwise summation no longer splits a complex row of %d values at %d" % (n, h)
        )
        assert np.array_equal(np.array([a.mean()]).view(float), np.array([a.sum() / n]).view(float)), (
            "numpy's mean is no longer its pairwise summation divided by n"
        )
        block = np.stack([a, a[::-1]])
        rows = np.array([a.sum(), a[::-1].sum()])
        assert np.array_equal(np.add.reduce(block, axis=1).view(float), rows.view(float)), (
            "numpy's pairwise summation sums the rows of a block differently from a 1-d row"
        )

    def test_fourier_matches_direct(self):
        rng = rng_stream(6, "czt")
        g = rng.normal(size=64) + 1j * rng.normal(size=64)
        ts = np.linspace(-3.0, 3.0, 64)
        xs = np.linspace(-1.5, 2.5, 33)
        direct = (g[None, :] * np.exp(-1j * ts[None, :] * xs[:, None])).sum(axis=1)
        assert np.max(np.abs(_fourier_at(g, ts, xs) - direct)) < 1e-9

    def test_chirp_z_is_scipy_czt(self):
        # the numpy chirp-z transform replaced scipy.signal.czt and must
        # agree with it bit for bit, so every deconvolved table keeps its bytes
        from scipy.fft import next_fast_len
        from scipy.signal import czt

        assert all(_next_fast_len(t) == next_fast_len(t, real=False) for t in range(1, 5000))
        rng = rng_stream(6, "czt-scipy")
        for n, m in ((4096, 2**14), (4096, 2**15), (4096, 2**11), (60, 2**12), (1000, 777), (17, 3)):
            g = rng.normal(size=n) + 1j * rng.normal(size=n)
            ts = np.linspace(-rng.uniform(1.0, 300.0), rng.uniform(1.0, 300.0), n)
            xs = np.linspace(-rng.uniform(1.0, 20.0), rng.uniform(1.0, 20.0), m)
            dt, dx = ts[1] - ts[0], xs[1] - xs[0]
            ref = czt(g, m=xs.size, w=np.exp(-1j * dt * dx), a=np.exp(1j * dt * xs[0]))
            ref *= np.exp(-1j * ts[0] * xs)
            assert np.array_equal(_fourier_at(g, ts, xs), ref)


class TestDeconvolveCdf:
    def test_sigma_zero_matches_kernel_oracle(self):
        rng = rng_stream(11, "oracle")
        ys = EmpiricalMeasure.from_sample(rng.normal(0.0, 1.0, 40))
        h = 0.25
        grid = auto_grid(ys, 0.0, points=2**13)
        est = deconvolve_cdf(ys, 0.0, h, grid)
        oracle = smoothed_empirical_oracle(ys, h, grid)
        assert w1_tabulated(est, oracle) < 1e-6
        assert np.max(np.abs(est.cdf - oracle.cdf)) < 1e-6

    def test_point_mass_recenters(self):
        # all observations equal: the estimate is one kernel bump at that point
        ys = EmpiricalMeasure(np.full(5, 0.7))
        grid = auto_grid(ys, 0.0, points=2**13)
        est = deconvolve_cdf(ys, 0.0, 0.2, grid)
        assert abs(quantile(est, 0.5) - 0.7) < 2.0 * 0.2

    def test_smoothing_displacement_order_h(self):
        # sigma = 0: the estimate is the empirical measure smoothed at scale
        # h, so W1(est, empirical) stays a small multiple of h.
        for rep in range(50):
            rng = rng_stream(77, "ratio", rep)
            ys = EmpiricalMeasure.from_sample(rng.normal(0.0, 1.0, 60))
            h = 0.05 + 0.3 * rng.random()
            grid = auto_grid(ys, 0.0, points=2**13)
            est = deconvolve_cdf(ys, 0.0, h, grid)
            emp = TabulatedDistribution.from_callable(
                lambda xs: np.searchsorted(ys.atoms, xs, side="right") / ys.n, grid.lo, grid.hi, grid.points
            )
            assert w1_tabulated(est, emp) < 1.5 * h

    def test_quadrature_resolution_converged(self):
        rng = rng_stream(12, "freq")
        ys = EmpiricalMeasure.from_sample(rng.normal(0.0, 1.0, 200) + 0.3 * rng.random(200))
        grid = auto_grid(ys, 0.3, points=2**13)
        h = select_bandwidth(200, 0.3)
        coarse = deconvolve_cdf(ys, 0.3, h, grid, freq_points=DEFAULT_FREQ_POINTS)
        fine = deconvolve_cdf(ys, 0.3, h, grid, freq_points=2 * DEFAULT_FREQ_POINTS)
        assert w1_tabulated(coarse, fine) < 1e-3

    def test_risk_shrinks_with_n(self):
        # identity signal (Uniform[0,1]) under sigma = 0.5 noise: mean W1 to
        # the truth drops as n grows by an order of magnitude.
        truth = None
        sig = 0.5
        means = []
        for n in (300, 3000):
            h = select_bandwidth(n, sig)
            vals = []
            for rep in range(8):
                rng = rng_stream(13, "risk", n, rep)
                ys = EmpiricalMeasure.from_sample(rng.random(n) + sig * rng.standard_normal(n))
                grid = auto_grid(ys, sig, points=2**13)
                est = deconvolve_cdf(ys, sig, h, grid)
                truth = TabulatedDistribution.from_callable(
                    lambda x: np.clip(x, 0.0, 1.0), grid.lo, grid.hi, grid.points
                )
                vals.append(w1_tabulated(est, truth))
            means.append(np.mean(vals))
        assert means[1] < means[0]

    def test_output_is_valid_table(self):
        rng = rng_stream(14, "valid")
        ys = EmpiricalMeasure.from_sample(rng.random(100))
        grid = auto_grid(ys, 0.1)
        est = deconvolve_cdf(ys, 0.1, 0.3, grid)
        assert isinstance(est, TabulatedDistribution)
        assert np.all(np.diff(est.cdf) >= 0)
        assert est.cdf[0] == 0.0 and est.cdf[-1] >= 0.99

    def test_rejects_narrow_grid(self):
        ys = EmpiricalMeasure(np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match="grid too narrow"):
            deconvolve_cdf(ys, 0.0, 0.3, GridSpec(-3.0, 4.0, 2**10))

    def test_rejects_grid_coarser_than_quarter_bandwidth(self):
        ys = EmpiricalMeasure(np.array([0.0, 1.0]))
        grid = GridSpec(-6.0, 7.0, 2**10)
        h = 4.0 * grid.step
        assert isinstance(deconvolve_cdf(ys, 0.0, h, grid), TabulatedDistribution)
        with pytest.raises(ValueError, match="grid too coarse"):
            deconvolve_cdf(ys, 0.0, 0.99 * h, grid)

    def test_rejects_grid_reached_by_aliases(self):
        # with 64 frequency points at h = 0.5 the density repeats every
        # 63 pi / 2 = 98.96; the copy of the atom at b lands on the grid
        # [-8, b + 8] once b + 8 reaches that period
        for b, refused in ((80.0, False), (95.0, True)):
            ys = EmpiricalMeasure(np.array([0.0, b]))
            grid = auto_grid(ys, 0.0, points=2**10)
            if refused:
                with pytest.raises(ValueError, match="grid too wide"):
                    deconvolve_cdf(ys, 0.0, 0.5, grid, freq_points=64)
            else:
                est = deconvolve_cdf(ys, 0.0, 0.5, grid, freq_points=64)
                assert abs(est.cdf[np.searchsorted(est.grid, b / 2.0)] - 0.5) < 0.01

    def test_running_integral_is_scipy_trapezoid(self, monkeypatch):
        # the running trapezoid is written out in numpy; scipy's
        # cumulative_trapezoid is its reference and must agree bit for bit
        from scipy.integrate import cumulative_trapezoid

        seen = {}
        fourier, isotonize = deconv_mod._fourier_at, deconv_mod.isotonize_cdf
        monkeypatch.setattr(deconv_mod, "_fourier_at", lambda *a: seen.setdefault("S", fourier(*a)))
        monkeypatch.setattr(deconv_mod, "isotonize_cdf", lambda raw: isotonize(seen.setdefault("raw", raw)))
        for k, sigma in enumerate((0.0, 0.05, 0.4)):
            seen.clear()
            ys = EmpiricalMeasure.from_sample(rng_stream(16, "trapz", k).normal(size=60))
            grid = auto_grid(ys, sigma, points=2**12)
            deconvolve_cdf(ys, sigma, 0.3, grid)
            dens = seen["S"].real / (2.0 * math.pi)
            assert np.array_equal(seen["raw"], cumulative_trapezoid(dens, dx=grid.step, initial=0.0))

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= 1e-18, reason="long double is plain double here")
    @pytest.mark.parametrize(
        "n, sigma, freq_points, points, link",
        [
            (30, 0.0, 64, 2**10, "identity"),
            (200, 0.0, 256, 2**11, "step"),
            (100, 0.1, 256, 2**11, "cube"),
            (50, 0.5, 1024, 2**10, "affine"),
            (500, 1.0, DEFAULT_FREQ_POINTS, 2**12, "identity"),
        ],
    )
    def test_matches_long_double_oracle(self, n, sigma, freq_points, points, link):
        # the whole table against the same estimator in long double; the
        # gap is almost all the chirp w ** (k**2 / 2) of _fourier_at and
        # grows with its length max(points, freq_points)
        ds = sample_dataset("deconv", n, link_catalog(n)[link], NoiseSpec(), sigma, seed=7)
        ys = EmpiricalMeasure.from_sample(ds.y)
        h = select_bandwidth(n, sigma)
        grid = auto_grid(ys, sigma, points=points)
        est = deconvolve_cdf(ys, sigma, h, grid, freq_points=freq_points)
        assert np.max(np.abs(est.cdf - long_double_cdf(ys, sigma, h, grid, freq_points))) <= 1e-9

    @pytest.mark.parametrize("freq_points", [1, 0, -5])
    def test_rejects_fewer_than_two_freq_points(self, freq_points):
        ys = EmpiricalMeasure(np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match="freq_points must be an integer >= 2"):
            deconvolve_cdf(ys, 0.0, 0.5, auto_grid(ys, 0.0), freq_points=freq_points)

    def test_rejects_fractional_freq_points(self):
        ys = EmpiricalMeasure(np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match="freq_points must be an integer >= 2, got 4096.5"):
            deconvolve_cdf(ys, 0.0, 0.5, auto_grid(ys, 0.0), freq_points=4096.5)

    def test_rejects_bad_bandwidth_and_sigma(self):
        ys = EmpiricalMeasure(np.array([0.0, 1.0]))
        grid = auto_grid(ys, 0.0)
        with pytest.raises(ValueError):
            deconvolve_cdf(ys, 0.0, 0.0, grid)
        with pytest.raises(ValueError):
            deconvolve_cdf(ys, 0.0, 1.5, grid)
        with pytest.raises(ValueError):
            deconvolve_cdf(ys, -0.2, 0.5, grid)
        for sigma in (math.nan, math.inf):
            with pytest.raises(ValueError, match="sigma"):
                deconvolve_cdf(ys, sigma, 0.5, grid)


class TestEstimateCdf:
    def test_is_the_default_chain(self):
        y = rng_stream(17, "chain").normal(size=300)
        est, h = estimate_cdf(y, 0.2)
        ys = EmpiricalMeasure.from_sample(y)
        assert h == select_bandwidth(300, 0.2)
        ref = deconvolve_cdf(ys, 0.2, h, auto_grid(ys, 0.2))
        assert (est.grid_lo, est.grid_hi) == (ref.grid_lo, ref.grid_hi)
        assert np.array_equal(est.cdf, ref.cdf)

    def test_grid_refined_to_quarter_bandwidth(self):
        # at n = 1e5 and sigma = 0, h = n^(-1/2) needs more than 2^14 points
        # over [0, 1] padded by 8: the grid doubles once, it is not refused
        y = rng_stream(18, "fine").random(100_000)
        est, h = estimate_cdf(y, 0.0)
        assert h == 1.0 / math.sqrt(100_000)
        assert est.cdf.size == 2**15
        assert (est.grid_hi - est.grid_lo) / (est.cdf.size - 1) <= h / 4.0
        assert est.cdf[0] <= 1e-3 and est.cdf[-1] >= 1.0 - 1e-3

    def test_outlier_refused(self):
        y = rng_stream(18, "outlier").random(500)
        y[17] = 1e9
        with pytest.raises(ValueError, match="grid too coarse"):
            estimate_cdf(y, 0.05)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=120),
        st.floats(0.0, 6.0),
        st.floats(0.0, 2.0),
    )
    def test_coarse_grid_refused_or_valid_table(self, unit, log_scale, sigma):
        # samples spread over up to 10^6 land on both sides of the limits:
        # either 2^20 points cannot resolve the bandwidth, or the grid lies
        # beyond the frequency quadrature's period, and the call says so;
        # or the table is a valid CDF on the smallest grid resolving h
        y = np.array(unit) * 10.0**log_scale
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # small-n bandwidth fallback
            try:
                est, h = estimate_cdf(y, sigma)
            except ValueError as exc:
                assert "grid too coarse" in str(exc) or "grid too wide" in str(exc)
                return
        step = (est.grid_hi - est.grid_lo) / (est.cdf.size - 1)
        assert 0.0 < h <= 1.0 and step <= h / 4.0
        coarser = (est.grid_hi - est.grid_lo) / (est.cdf.size // 2 - 1)
        assert est.cdf.size == 2**14 or coarser > h / 4.0
        pad = 6.0 * (1.0 + sigma)
        assert est.grid_lo <= y.min() - pad and est.grid_hi >= y.max() + pad
        assert np.all(np.isfinite(est.cdf)) and np.all(np.diff(est.cdf) >= 0)
        assert 0.0 <= est.cdf[0] <= 0.01 and 0.99 <= est.cdf[-1] <= 1.0

    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from(sorted(link_catalog(3))),
        st.integers(3, 3 * ECF_LEAF),
        st.sampled_from([0.0, 0.1, 1.0, 3.0]),
        st.integers(0, 2**32),
    )
    def test_catalog_sample_refused_or_valid_table(self, name, n, sigma, seed):
        # a deconv sample from each catalog link, the unbounded-tail one
        # included, is either refused for its spread or yields a valid CDF
        ds = sample_dataset("deconv", n, link_catalog(n)[name], NoiseSpec(), sigma, seed=seed)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # small-n bandwidth fallback
            try:
                est, _ = estimate_cdf(ds.y, sigma)
            except ValueError as exc:
                assert "grid too coarse" in str(exc) or "grid too wide" in str(exc)
                return
        assert np.all(np.isfinite(est.cdf)) and np.all(np.diff(est.cdf) >= 0)
        assert 0.0 <= est.cdf[0] <= 0.01 and 0.99 <= est.cdf[-1] <= 1.0
