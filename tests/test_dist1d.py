"""Tests for monofit.dist1d.

Oracles used here are deliberately independent of the implementation:
brute-force enumeration over all assignment couplings for W1/W2 and
closed-form CDF areas for tabulated distances.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from monofit.dist1d import (
    QUANTILE_BLOCK,
    EmpiricalMeasure,
    MonotoneStepFn,
    TabulatedDistribution,
    quantile,
    w1_cdf_area,
    w1_empirical,
    w1_tabulated,
    w2_empirical,
)

from memory import traced_peak


def quantile_oracle(d, u):
    """``quantile`` with every level in one pass: the reference for its blocks."""
    u_arr = np.asarray(u, dtype=float)
    xs, cdf = d.grid, d.cdf
    j = np.searchsorted(cdf, u_arr, side="left")
    jm = np.clip(j, 1, cdf.size - 1)
    c0, c1 = cdf[jm - 1], cdf[jm]
    denom = np.where(c1 > c0, c1 - c0, 1.0)
    interp = xs[jm - 1] + (u_arr - c0) / denom * (xs[jm] - xs[jm - 1])
    out = np.where(j == 0, xs[0], np.where(j == cdf.size, xs[-1], interp))
    return out if np.ndim(u) else float(out)


def coupling_oracle(a, b, power):
    """Min over all n! assignment couplings of the mean p-th power cost."""
    n = len(a)
    best = math.inf
    for perm in itertools.permutations(range(n)):
        cost = sum(abs(a[i] - b[perm[i]]) ** power for i in range(n)) / n
        best = min(best, cost)
    return best


samples = st.lists(
    st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=64,
)


class TestEmpiricalMeasure:
    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            EmpiricalMeasure([1.0, 0.0])

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValueError):
            EmpiricalMeasure([])
        with pytest.raises(ValueError):
            EmpiricalMeasure([0.0, np.inf])

    def test_from_sample_sorts(self):
        m = EmpiricalMeasure.from_sample([3.0, 1.0, 2.0])
        assert m.atoms.tolist() == [1.0, 2.0, 3.0]

    def test_quantile_levels_pick_atoms(self):
        # level u in ((i-1)/n, i/n] must return atoms[i], 1-based
        m = EmpiricalMeasure([10.0, 20.0, 30.0, 40.0])
        assert m.quantile(0.25) == 10.0
        assert m.quantile(0.2500001) == 20.0
        assert m.quantile(1.0) == 40.0
        for u in (0.0, np.nan, [0.5, np.nan]):
            with pytest.raises(ValueError):
                m.quantile(u)


class TestMonotoneStepFn:
    def test_validation(self):
        with pytest.raises(ValueError):
            MonotoneStepFn([0.5, 0.5], [0.0, 1.0])
        with pytest.raises(ValueError):
            MonotoneStepFn([0.2, 0.8], [1.0, 0.0])
        with pytest.raises(ValueError):
            MonotoneStepFn([0.2, 1.5], [0.0, 1.0])
        for knots, values in (([np.nan], [0.0]), ([0.5], [np.nan]), ([0.5, 1.0], [-np.inf, 0.0])):
            with pytest.raises(ValueError, match="finite"):
                MonotoneStepFn(knots, values)

    def test_left_continuous_evaluation(self):
        m = MonotoneStepFn([0.5, 1.0], [0.0, 1.0])
        assert m(0.0) == 0.0
        assert m(0.5) == 0.0  # value holds on (0, 0.5] inclusive at the knot
        assert m(0.5000001) == 1.0
        assert m(1.0) == 1.0

    def test_extends_past_last_knot(self):
        m = MonotoneStepFn([0.2, 0.4], [1.0, 2.0])
        assert m(0.9) == 2.0

    def test_domain_error(self):
        m = MonotoneStepFn([0.5], [0.0])
        with pytest.raises(ValueError):
            m(1.5)
        with pytest.raises(ValueError, match="domain"):
            m(np.nan)


class TestW1Empirical:
    def test_two_point_example(self):
        a = EmpiricalMeasure([0.0, 1.0])
        b = EmpiricalMeasure([0.0, 2.0])
        assert w1_empirical(a, b) == 0.5
        assert w1_empirical(a, b) == pytest.approx(coupling_oracle([0, 1], [0, 2], 1))

    def test_identity_of_indiscernibles(self):
        a = EmpiricalMeasure([0.1, 0.4, 2.0])
        assert w1_empirical(a, a) == 0.0

    def test_translation(self):
        rng = np.random.default_rng(0)
        a = EmpiricalMeasure.from_sample(rng.normal(size=17))
        b = EmpiricalMeasure(a.atoms + 3.25)
        assert w1_empirical(a, b) == pytest.approx(3.25, abs=1e-12)

    def test_coupling_oracle_small_n(self):
        rng = np.random.default_rng(3)
        for n in (2, 3, 4, 5, 6):
            for _ in range(5):
                x = rng.normal(size=n)
                y = rng.normal(size=n)
                a = EmpiricalMeasure.from_sample(x)
                b = EmpiricalMeasure.from_sample(y)
                assert w1_empirical(a, b) == pytest.approx(
                    coupling_oracle(list(x), list(y), 1), abs=1e-12
                )

    @given(samples, samples)
    @settings(max_examples=60, deadline=None)
    def test_symmetry_and_nonnegativity(self, xs, ys):
        a = EmpiricalMeasure.from_sample(xs)
        b = EmpiricalMeasure.from_sample(ys)
        assert w1_empirical(a, b) >= 0.0
        assert w1_empirical(a, b) == w1_empirical(b, a)

    @given(samples, samples, samples)
    @settings(max_examples=60, deadline=None)
    def test_triangle_inequality(self, xs, ys, zs):
        n = min(len(xs), len(ys), len(zs))
        a = EmpiricalMeasure.from_sample(xs[:n])
        b = EmpiricalMeasure.from_sample(ys[:n])
        c = EmpiricalMeasure.from_sample(zs[:n])
        assert w1_empirical(a, c) <= w1_empirical(a, b) + w1_empirical(b, c) + 1e-12
        assert w2_empirical(a, c) <= w2_empirical(a, b) + w2_empirical(b, c) + 1e-12


class TestW1CdfArea:
    def test_matches_sorted_form_on_equal_sizes(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(1, 65))
            a = EmpiricalMeasure.from_sample(rng.normal(size=n) * 10)
            b = EmpiricalMeasure.from_sample(rng.normal(size=n) * 10)
            assert abs(w1_empirical(a, b) - w1_cdf_area(a, b)) < 1e-9

    def test_unequal_sizes_closed_form(self):
        # {0} vs {0, 1}: area of |F_a - F_b| is 1/2 over [0, 1]
        a = EmpiricalMeasure([0.0])
        b = EmpiricalMeasure([0.0, 1.0])
        assert w1_empirical(a, b) == pytest.approx(0.5)

    def test_dispatches_on_unequal_sizes(self):
        a = EmpiricalMeasure([0.0, 0.0, 3.0])
        b = EmpiricalMeasure([1.0])
        # mass 2/3 moves from 0 to 1, mass 1/3 from 3 to 1
        assert w1_empirical(a, b) == pytest.approx(2.0 / 3.0 + 2.0 / 3.0)


class TestW2Empirical:
    def test_two_point_example(self):
        a = EmpiricalMeasure([0.0, 1.0])
        b = EmpiricalMeasure([0.0, 2.0])
        assert w2_empirical(a, b) == pytest.approx(math.sqrt(0.5))
        oracle = math.sqrt(coupling_oracle([0, 1], [0, 2], 2))
        assert w2_empirical(a, b) == pytest.approx(oracle)

    def test_zero_and_singletons(self):
        a = EmpiricalMeasure([1.0, 2.0])
        assert w2_empirical(a, a) == 0.0
        assert w2_empirical(EmpiricalMeasure([3.0]), EmpiricalMeasure([-1.0])) == 4.0

    def test_size_mismatch_raises(self):
        with pytest.raises(ValueError):
            w2_empirical(EmpiricalMeasure([0.0]), EmpiricalMeasure([0.0, 1.0]))

    def test_coupling_oracle_small_n(self):
        rng = np.random.default_rng(9)
        for n in (2, 3, 4, 5, 6):
            x = rng.normal(size=n)
            y = rng.normal(size=n)
            a = EmpiricalMeasure.from_sample(x)
            b = EmpiricalMeasure.from_sample(y)
            oracle = math.sqrt(coupling_oracle(list(x), list(y), 2))
            assert w2_empirical(a, b) == pytest.approx(oracle, abs=1e-12)

    @given(samples, samples)
    @settings(max_examples=60, deadline=None)
    def test_dominates_w1(self, xs, ys):
        n = min(len(xs), len(ys))
        a = EmpiricalMeasure.from_sample(xs[:n])
        b = EmpiricalMeasure.from_sample(ys[:n])
        assert w2_empirical(a, b) >= w1_empirical(a, b) - 1e-12


class TestTabulatedDistribution:
    def test_degenerate_grid_rejected(self):
        with pytest.raises(ValueError):
            TabulatedDistribution(1.0, 1.0, [0.0, 1.0])

    def test_coverage_check(self):
        with pytest.raises(ValueError):
            TabulatedDistribution(0.0, 1.0, [0.3, 0.9, 1.0])
        with pytest.raises(ValueError):
            TabulatedDistribution(0.0, 1.0, [0.0, 0.5, 0.95])

    def test_monotone_check(self):
        with pytest.raises(ValueError):
            TabulatedDistribution(0.0, 1.0, [0.0, 0.6, 0.5, 1.0])

    @pytest.mark.parametrize(
        "lo, hi, cdf",
        [
            (0.0, 1.0, [0.0, math.nan, 1.0]),  # NaN passes the order and range checks
            (0.0, 1.0, [math.nan, 0.5, 1.0]),
            (0.0, math.inf, [0.0, 1.0]),
            (-math.inf, 0.0, [0.0, 1.0]),
        ],
    )
    def test_non_finite_refused(self, lo, hi, cdf):
        with pytest.raises(ValueError, match="NaN|finite"):
            TabulatedDistribution(lo, hi, cdf)


class TestW1Tabulated:
    def test_identical(self):
        d = TabulatedDistribution.from_callable(lambda x: np.clip(x, 0, 1), -1.0, 2.0, 1024)
        assert w1_tabulated(d, d) == 0.0

    def test_mean_shift_gaussians(self):
        lo, hi, pts = -8.0, 8.3, 2**14
        base = TabulatedDistribution.from_callable(norm.cdf, lo, hi, pts)
        for shift in (0.01, 0.1, 0.3):
            other = TabulatedDistribution.from_callable(
                lambda x, s=shift: norm.cdf(x - s), lo, hi, pts
            )
            assert w1_tabulated(base, other) == pytest.approx(shift, abs=1e-3)

    def test_uniforms_closed_form(self):
        # area between the U[0,1] and U[0,2] CDFs is exactly 1/2
        u1 = TabulatedDistribution.from_callable(lambda x: np.clip(x, 0, 1), -1.0, 3.0, 4097)
        u2 = TabulatedDistribution.from_callable(lambda x: np.clip(x / 2, 0, 1), -1.0, 3.0, 4097)
        assert w1_tabulated(u1, u2) == pytest.approx(0.5, abs=1e-6)

    def test_disjoint_grids(self):
        # point mass near 0 vs point mass near 5, tabulated on disjoint grids
        steep = lambda c: (lambda x: np.clip((x - c) * 1e4, 0.0, 1.0))
        a = TabulatedDistribution.from_callable(steep(0.0), -1.0, 1.0, 4097)
        b = TabulatedDistribution.from_callable(steep(5.0), 4.0, 6.0, 4097)
        assert w1_tabulated(a, b) == pytest.approx(5.0, abs=1e-3)


class TestQuantile:
    def test_uniform(self):
        d = TabulatedDistribution.from_callable(lambda x: np.clip(x, 0, 1), -0.5, 1.5, 2049)
        assert quantile(d, 0.25) == pytest.approx(0.25, abs=1e-3)

    def test_normal_median(self):
        d = TabulatedDistribution.from_callable(norm.cdf, -8.0, 8.0, 2**13)
        assert quantile(d, 0.5) == pytest.approx(0.0, abs=1e-2)

    def test_jump_cdf(self):
        def cdf(x):
            return np.where(x < 1.0, 0.2 * np.clip(x, 0, None), 0.8 + 0.2 * np.clip(x - 1, 0, 1))

        d = TabulatedDistribution(-0.5, 2.0, cdf(np.linspace(-0.5, 2.0, 2001)))
        step = 2.5 / 2000
        assert abs(quantile(d, 0.5) - 1.0) <= step + 1e-12

    def test_rejects_out_of_range(self):
        d = TabulatedDistribution.from_callable(lambda x: np.clip(x, 0, 1), -0.5, 1.5, 64)
        for u in (0.0, 1.0, -0.2, 1.3, np.nan, [0.5, np.nan]):
            with pytest.raises(ValueError):
                quantile(d, u)

    def test_monotone_in_level(self):
        d = TabulatedDistribution.from_callable(norm.cdf, -8.0, 8.0, 4097)
        us = np.linspace(0.01, 0.99, 200)
        qs = quantile(d, us)
        assert np.all(np.diff(qs) >= 0)

    @pytest.mark.parametrize("size", [1, QUANTILE_BLOCK - 1, QUANTILE_BLOCK, QUANTILE_BLOCK + 1, 2 * QUANTILE_BLOCK + 3])
    def test_blocks_are_the_whole_read_bit_for_bit(self, size):
        # levels on a flat stretch (equal cdf values) and past both table ends
        cdf = np.linspace(0.005, 0.995, 4097)
        cdf[1000:1200] = cdf[1000]
        d = TabulatedDistribution(-3.0, 5.0, cdf)
        us = np.random.default_rng(size).uniform(5e-324, 1.0, size)
        us[:: max(1, size // 7)] = cdf[1000]
        us[[0, -1]] = 0.001, 0.999
        for levels in (us, us[::-1], us[: size - size % 3].reshape(3, -1)):
            got, want = quantile(d, levels), quantile_oracle(d, levels)
            assert got.shape == want.shape and np.array_equal(got.view(np.int64), want.view(np.int64))
        got, want = quantile(d, float(us[-1])), quantile_oracle(d, float(us[-1]))
        assert type(got) is float and np.array_equal(np.array(got).view(np.int64), np.array(want).view(np.int64))

    def test_levels_read_within_a_memory_budget(self):
        n = 100_000
        d = TabulatedDistribution.from_callable(norm.cdf, -8.0, 8.0, 2**14)
        levels = (2.0 * np.arange(1, n + 1) - 1.0) / (2.0 * n)
        _, peak = traced_peak(quantile, d, levels)
        # the result, the level check's masks and one block's temporaries
        assert peak < 2 * 8 * n + 2**20, "peak %.2f MB" % (peak / 1e6)


class TestConvolutionContraction:
    def test_common_noise_contracts(self):
        # adding one common noise draw to the i-th sorted atoms of both
        # measures is a coupling of the convolved pair, so the distance
        # cannot grow beyond Monte-Carlo slack
        rng = np.random.default_rng(21)
        n = 80
        for _ in range(100):
            a = np.sort(rng.normal(size=n) * rng.uniform(0.5, 3))
            b = np.sort(rng.normal(loc=rng.uniform(-2, 2), size=n))
            eps = rng.normal(size=n)
            base = w1_empirical(EmpiricalMeasure(a), EmpiricalMeasure(b))
            noisy = w1_empirical(
                EmpiricalMeasure.from_sample(a + eps), EmpiricalMeasure.from_sample(b + eps)
            )
            assert noisy <= base + 3.0 / math.sqrt(n)
