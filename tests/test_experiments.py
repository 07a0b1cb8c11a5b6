"""Tests for the Monte-Carlo harness: occupancy products, risks, rate sweeps.

Oracles: direct-product evaluation of the occupancy expression (safe from
underflow up to n = 10^3), closed-form population risks for simple
step-vs-link pairs, and an independent scipy quadrature (adaptive, split at
root-bracketed crossings, log-substituted at the singular origin) for every
catalog link.
"""

import concurrent.futures
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from monofit.dist1d import MonotoneStepFn
from monofit.experiments import (
    DEFAULT_C_LIST,
    ConjectureConfig,
    ConjectureRow,
    RiskRecord,
    SigmaRule,
    conjecture_product,
    conjecture_sweep,
    fit_loglog_slope,
    rate_sweep,
    risk_empirical,
    risk_population,
)
import monofit
from monofit import experiments
from monofit.experiments import OCCUPANCY_CHUNK, _gauss_legendre, _occupancy_counts, _regime_edges, _sweep_chunk
from monofit.synth import LinkSpec, link_cdf, parse_spec, rng_stream

from links import link_catalog
from memory import traced_peak

CATALOG_NAMES = sorted(link_catalog(3))


def risk_quad(mhat, m0):
    """Population L1 risk by scipy quad, independent of the library's solver.

    Pieces end at the knots of mhat and the jumps of m0; brentq locates the
    sign change of m0 - v inside a piece, and a panel starting at the
    origin is integrated in s = log(b / x), where the tail link's
    singularity becomes an exponential decay.
    """
    from scipy.integrate import quad
    from scipy.optimize import brentq

    def f(x):
        return abs(float(mhat(x)) - float(m0(x)))

    def panel(lo, hi):
        if not hi > lo:
            return 0.0
        if lo > 0.0:
            return quad(f, lo, hi, epsabs=0.0, epsrel=1e-13, limit=500)[0]
        # x = hi e^{-s}: the integrand decays like e^{-2s/3}, so past
        # s = 600 lies under e^{-400} of the panel
        g = lambda s: f(hi * math.exp(-s)) * hi * math.exp(-s)  # noqa: E731
        return quad(g, 0.0, 600.0, epsabs=0.0, epsrel=1e-13, limit=500)[0]

    edges = {0.0, 1.0, *map(float, mhat.knots)}
    if m0.kind == "step":
        edges.update(np.arange(1, len(m0.params)) / len(m0.params))
    elif m0.kind == "unbounded-tail":
        edges.add(m0.cut)
    edges = sorted(edges)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        v = float(mhat(b))
        # inside (a, b], past a jump at a; at the origin, stay where the
        # tail link's 1/x is finite
        xa = float(np.nextafter(a, b)) if a > 0.0 else b * 1e-300
        fa, fb = float(m0(xa)) - v, float(m0(b)) - v
        if fa < 0.0 < fb:
            xc = brentq(lambda x: float(m0(x)) - v, xa, b, xtol=1e-300, rtol=4 * np.finfo(float).eps, maxiter=2000)
            total += panel(a, xc) + panel(xc, b)
        else:
            total += panel(a, b)
    return total


def risk_population_loop(mhat, m0):
    """The quadrature of risk_population as one link call per node.

    Edges by np.unique, then the library's panels, node order and per-node
    arithmetic with a fresh array for every intermediate, and the same
    pairwise sum at the end.
    """
    edges = [np.array([0.0, 1.0]), mhat.knots]
    if m0.kind == "step":
        edges.append(np.arange(1, len(m0.params)) / len(m0.params))
    elif m0.kind == "unbounded-tail":
        edges.append(m0.cut * 0.5 ** np.arange(0, 51))
    edges = np.unique(np.concatenate(edges))
    a, b = edges[:-1], edges[1:]
    v = mhat(b)
    cross = np.clip(link_cdf(m0, v), a, b)
    lo = np.concatenate((a, cross))
    hi = np.concatenate((cross, b))
    half = 0.5 * (hi - lo)
    mid = 0.5 * (lo + hi)
    nodes, weights = _gauss_legendre()
    keep = (half > 0.0) & (half * nodes[0] + mid > 0.0)
    half, mid, v = half[keep], mid[keep], np.concatenate((v, v))[keep]
    acc = np.zeros_like(half)
    for node, weight in zip(nodes, weights):
        xs = half * node + mid
        vals = np.abs(v - m0(xs))
        acc += weight * vals
    return float((acc * half).sum())


PRESET_NAMES = ("below-root", "root-log-small", "root-log-large", "intermediate", "fixed")


def sigma_chain(kind, n, params=()):
    """A rule's sigma_n, as one if-chain over the kinds (eta = 0.2, beta = 2)."""
    log_n = math.log(n)
    root = n**-0.5
    if kind == "constant":
        return params[0]
    if kind == "power":
        return float(n) ** -params[0]
    if kind == "below-root":
        return 0.1 * n**-0.6
    if kind == "root-log-small":
        return root * log_n**(0.2 / 2.0)
    if kind == "root-log-large":
        return root * log_n**((0.2 + 1.0 / 2.0) / 2.0)
    if kind == "intermediate":
        return math.sqrt(root * log_n**(1.0 / 2.0) * n**(-0.5 + 0.2))
    return 0.5


def range_chain(kind, n):
    """The (lo, hi] bounds of a preset's regime, as a second if-chain."""
    log_n = math.log(n)
    root = n**-0.5
    if kind == "below-root":
        return (0.0, root)
    if kind == "root-log-small":
        return (root, root * log_n**0.2)
    if kind == "root-log-large":
        return (root * log_n**0.2, root * log_n**(1.0 / 2.0))
    if kind == "intermediate":
        return (root * log_n**(1.0 / 2.0), n**(-0.5 + 0.2))
    return (n**(-0.5 + 0.2), 1.0)


@st.composite
def step_fits(draw):
    """A monotone step function with 1 to 8 knots in (0, 1] and values in [-4, 4]."""
    knots = sorted(draw(st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=8, unique=True)))
    values = sorted(draw(st.lists(st.floats(-4.0, 4.0), min_size=len(knots), max_size=len(knots))))
    return MonotoneStepFn(np.array(knots), np.array(values))


def product_direct(counts, n, C, c):
    """Straight product over occupied cells; underflows for large n."""
    out = 1.0
    for k in counts:
        if k > 0:
            out *= (1.0 - C * math.exp(-c * math.log(n) / k)) ** 2
    return out


def product_per_C(counts, n, C, c):
    """One C at a time over np.unique occupancies, as the sweep once did."""
    occ, mult = np.unique([k for k in counts if k > 0], return_counts=True)
    if occ.size == 0:
        return 1.0
    factors = 1.0 - C * np.exp(-c * math.log(n) / occ)
    if np.any(factors == 0.0):
        return 0.0
    return math.exp(2.0 * float(np.sum(mult * np.log(np.abs(factors)))))


class TestConjectureProduct:
    def test_single_cell_zero(self):
        # n = 1: log 1 = 0, factor (1 - C)^2 with C = 1
        assert np.array_equal(conjecture_product([1], 1, [1.0], 20.0), [0.0])

    def test_all_singletons_closed_form(self):
        counts = np.ones(100, dtype=int)
        (val,) = conjecture_product(counts, 100, [1.0], 20.0)
        assert val == pytest.approx((1.0 - 100.0**-20.0) ** 200, rel=1e-12)
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_zero_cells_contribute_nothing(self):
        with_zeros = conjecture_product([50, 0, 50, 0], 100, DEFAULT_C_LIST, 20.0)
        without = conjecture_product([50, 50], 100, DEFAULT_C_LIST, 20.0)
        assert np.array_equal(with_zeros, without)

    def test_matches_direct_product(self):
        rng = rng_stream(41, "direct")
        for n in (10, 100, 1000):
            for _ in range(10):
                counts = _occupancy_counts(rng, n)
                Cs = (1.0, 10.0, 1000.0)
                direct = [product_direct(counts, n, C, 20.0) for C in Cs]
                assert conjecture_product(counts, n, Cs, 20.0) == pytest.approx(direct, rel=1e-10)

    def test_negative_factor_squares_cleanly(self):
        # one crowded cell with large C: factor < 0, square still positive
        (val,) = conjecture_product([60, 40], 100, [1000.0], 20.0)
        assert val == pytest.approx(product_direct([60, 40], 100, 1000.0, 20.0), rel=1e-10)
        assert val > 0.0

    def test_finite_nonnegative(self):
        rng = rng_stream(42, "fin")
        for _ in range(20):
            counts = _occupancy_counts(rng, 1000)
            v = conjecture_product(counts, 1000, DEFAULT_C_LIST, 20.0)
            assert np.all(np.isfinite(v)) and np.all(v >= 0.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="^counts must be nonnegative and sum to n$"):
            conjecture_product([2], 1, [1.0], 20.0)
        with pytest.raises(ValueError, match="^counts must be nonnegative and sum to n$"):
            conjecture_product([-1, 2], 1, [1.0], 20.0)
        with pytest.raises(ValueError, match="^counts must be nonnegative and sum to n$"):
            conjecture_product([10**12], 1, [1.0], 20.0)  # refused before a histogram of 10^12 + 1 bins
        with pytest.raises(ValueError, match="^counts must be integers, got dtype float64$"):
            conjecture_product([49.5, 50.5], 100, [1.0], 20.0)
        with pytest.raises(ValueError, match="^counts must be a 1-d sequence"):
            conjecture_product([[1, 1]], 2, [1.0], 1.0)
        with pytest.raises(ValueError, match="^counts must be a 1-d sequence"):
            conjecture_product(np.int64(1), 1, [1.0], 1.0)

    @given(
        counts=st.lists(st.integers(0, 255), min_size=1, max_size=40).filter(sum),
        Cs=st.lists(st.floats(0.0, 1000.0), min_size=1, max_size=4),
        c=st.floats(0.5, 40.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_same_products_in_every_count_dtype(self, counts, Cs, c):
        # a draw counts in the narrowest unsigned type that holds n; the product reads only the values
        n = sum(counts)
        dtypes = (np.uint8, np.uint16, np.uint32, np.int64)
        values = [conjecture_product(np.array(counts, dtype), n, Cs, c) for dtype in dtypes]
        assert all(np.array_equal(v, values[0]) for v in values[1:])

    def test_product_of_a_draw_within_a_memory_budget(self):
        n = 2**20
        counts = _occupancy_counts(rng_stream(1729, "budget", n), n)
        assert counts.dtype == np.uint32
        _, peak = traced_peak(conjecture_product, counts, n, DEFAULT_C_LIST, 20.0)
        # one OCCUPANCY_CHUNK of intp at a time; a widened copy of the draw would be 8 MiB
        assert peak < 2**20, "peak %.2f MiB" % (peak / 2**20)

    @given(
        counts=st.lists(st.integers(0, 40), max_size=30).filter(lambda cs: not cs or sum(cs) > 0),
        n_empty=st.integers(1, 10**6),
        Cs=st.lists(st.one_of(st.sampled_from(DEFAULT_C_LIST), st.floats(0.0, 1000.0)), min_size=1, max_size=10),
        c=st.floats(0.5, 40.0),
    )
    @example(counts=[1], n_empty=1, Cs=[1.0, 2.0, 1.0], c=20.0)  # the zero short-circuit row
    @example(counts=[], n_empty=5, Cs=[1.0], c=20.0)
    @settings(max_examples=200, deadline=None)
    def test_array_form_equals_scalar_calls(self, counts, n_empty, Cs, c):
        # each entry is the product computed with its C alone, as a one-entry sequence
        n = sum(counts) or n_empty
        counts = np.array(counts, dtype=np.int64)  # [] alone would be float64
        values = conjecture_product(counts, n, Cs, c)
        assert values.shape == (len(Cs),)
        for k, C in enumerate(Cs):
            (alone,) = conjecture_product(counts, n, [C], c)
            assert values[k] == alone == product_per_C(counts, n, C, c)


def one_shot_counts(rng, n):
    """Bin all n uniforms at once: the draw before it was chunked."""
    return np.bincount(np.minimum((rng.random(n) * n).astype(np.int64), n - 1), minlength=n)


class TestOccupancyCounts:
    # 255 and 256, and 2^16 - 1 and 2^16 (= OCCUPANCY_CHUNK), end one count type and start the next
    @pytest.mark.parametrize("n", [1, 2, 255, 256, OCCUPANCY_CHUNK - 1, OCCUPANCY_CHUNK, OCCUPANCY_CHUNK + 1,
                                   3 * OCCUPANCY_CHUNK + 5, 10**6])
    @pytest.mark.parametrize("seed", [0, 1729, 2**40 + 3])
    def test_matches_one_shot_binning(self, n, seed):
        rng, twin = rng_stream(seed, "chunked", n), rng_stream(seed, "chunked", n)
        counts, oracle = _occupancy_counts(rng, n), one_shot_counts(twin, n)
        assert counts.dtype == np.min_scalar_type(n) and np.array_equal(counts, oracle)
        # the draw takes exactly n doubles, so a generator reused across draws stays in step
        assert rng.random() == twin.random()

    def test_sweep_chunk_holds_one_draw_at_a_time(self):
        n = 2**20
        _, peak = traced_peak(_sweep_chunk, (1729, n, 0, 3, DEFAULT_C_LIST, 20.0))
        # one n-length uint32 count array plus 3 MiB; two live draws would need 8 MiB
        assert peak < 4 * n + 3 * 2**20, "peak %.1f MiB" % (peak / 2**20)

    def test_counts_sum_exactly(self):
        for n in (10, 1000, 10**5):
            counts = _occupancy_counts(rng_stream(43, "sum", n), n)
            assert counts.sum() == n and counts.min() >= 0

    def test_cell_mean_is_one(self):
        n, reps = 200, 400
        acc = np.zeros(n)
        for r in range(reps):
            acc += _occupancy_counts(rng_stream(44, "mean", r), n)
        cell_means = acc / reps
        # each count is Binomial(n, 1/n): variance ~ 1, stderr 1/sqrt(reps)
        assert np.all(np.abs(cell_means - 1.0) <= 5.0 / math.sqrt(reps))

    def test_max_occupancy_tail(self):
        # crowding beyond 2 log n / log log n should be rare
        n, reps = 10**5, 500
        threshold = 2.0 * math.log(n) / math.log(math.log(n))
        hits = 0
        for r in range(reps):
            counts = _occupancy_counts(rng_stream(45, "tail", r), n)
            if counts.max() > threshold:
                hits += 1
        assert hits / reps <= 0.05


class TestConjectureConfig:
    def test_default_grid(self):
        grid = ConjectureConfig().n_grid
        assert grid[0] == 100 and grid[-1] == 10**6
        assert grid.size == 30
        # log-equispaced within integer rounding
        exact = 10 ** np.linspace(2, 6, 30)
        assert np.all(np.abs(grid - exact) <= 0.5 + 1e-9 * exact)

    def test_validation(self):
        with pytest.raises(ValueError, match="^C_list must hold one or more values$"):
            ConjectureConfig(C_list=())
        with pytest.raises(ValueError, match="must not repeat"):
            ConjectureConfig(C_list=(1.0, 2.0, 1))

    def test_integral_sizes_taken_as_ints(self):
        cfg = ConjectureConfig(n_min=100.0, n_max=np.int64(1000), grid_points=3.0, reps=np.int32(2))
        assert (cfg.n_min, cfg.n_max, cfg.grid_points, cfg.reps) == (100, 1000, 3, 2)
        assert all(type(v) is int for v in (cfg.n_min, cfg.n_max, cfg.grid_points, cfg.reps))

    def test_numbers_taken_as_python_numbers(self):
        cfg = ConjectureConfig(c=np.float32(20.0), C_list=(1, np.int64(2)), seed=np.uint64(1729))
        assert (cfg.c, cfg.C_list, cfg.seed) == (20.0, (1.0, 2.0), 1729)
        assert type(cfg.c) is float and type(cfg.seed) is int


class NoWaitFuture(concurrent.futures.Future):
    """A future whose result raises TimeoutError at once if it is not done, so a test cannot hang on it."""

    def result(self, timeout=None):
        return super().result(timeout=0)


class StalledPool:
    """A stand-in process pool: runs its first ``started`` chunks at submission and never starts the rest."""

    def __init__(self):
        self.started, self.futures, self.shutdowns = 5, [], []

    def __call__(self, max_workers):
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        pass

    def submit(self, fn, task):
        future = NoWaitFuture()
        if len(self.futures) < self.started:
            future.set_running_or_notify_cancel()
            future.set_result(fn(task))
        self.futures.append(future)
        return future

    def shutdown(self, cancel_futures=False):
        self.shutdowns.append(cancel_futures)


@pytest.fixture
def stalled_pool(monkeypatch):
    pool = StalledPool()
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
    return pool


class TestConjectureSweep:
    CFG = ConjectureConfig(n_min=100, n_max=1000, grid_points=3, reps=30, C_list=(1.0, 100.0), seed=5)

    def test_structure(self):
        rows = conjecture_sweep(self.CFG)
        assert len(rows) == 3 * 2
        assert {r.n for r in rows} == {100, 316, 1000}
        assert all(isinstance(r, ConjectureRow) for r in rows)
        assert all(np.isfinite(r.mean) and r.mean >= 0.0 and r.stderr >= 0.0 for r in rows)

    def test_deterministic(self):
        assert conjecture_sweep(self.CFG) == conjecture_sweep(self.CFG)

    def test_parallel_equals_serial(self):
        serial = conjecture_sweep(self.CFG, workers=1)
        parallel = conjecture_sweep(self.CFG, workers=4)
        assert serial == parallel

    @pytest.mark.parametrize("reps, workers", [(3, 2), (3, 4), (1, 2)])
    def test_parallel_equals_serial_with_fewer_reps_than_chunks(self, reps, workers):
        # min(reps, 2 workers) chunks: one replication to a chunk
        cfg = ConjectureConfig(n_min=100, n_max=1000, grid_points=3, reps=reps, C_list=(1.0, 100.0), seed=5)
        assert conjecture_sweep(cfg, workers=workers) == conjecture_sweep(cfg, workers=1)

    @pytest.mark.parametrize("reps", [30, 3])
    def test_caller_computes_beside_a_pool_of_workers_minus_one(self, reps, monkeypatch):
        # reps 3 gives fewer replications than the 2 workers chunks asked for
        sizes = []

        class RecordingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        cfg = ConjectureConfig(n_min=100, n_max=1000, grid_points=3, reps=reps, C_list=(1.0, 100.0), seed=5)
        serial = conjecture_sweep(cfg, workers=1)
        assert sizes == []
        for workers in (2, 3, 8):
            assert conjecture_sweep(cfg, workers=workers) == serial
        assert sizes == [1, 2, 7]

    def test_caller_takes_back_the_chunks_the_pool_has_not_started(self, stalled_pool):
        rows = conjecture_sweep(self.CFG, workers=2)
        # 3 sizes of 4 chunks: the caller computed the 7 the pool never started
        assert [f.cancelled() for f in stalled_pool.futures] == [False] * 5 + [True] * 7
        assert rows == conjecture_sweep(self.CFG, workers=1)

    def test_caller_failure_cancels_the_pool(self, stalled_pool, monkeypatch):
        def failing_chunk(task):
            raise RuntimeError("chunk failed")

        monkeypatch.setattr(experiments, "_sweep_chunk", failing_chunk)
        stalled_pool.started = 0
        with pytest.raises(RuntimeError, match="^chunk failed$"):
            conjecture_sweep(self.CFG, workers=2)
        assert stalled_pool.shutdowns == [True]

    def test_mean_matches_direct_average(self):
        # per-C mean over shared draws == averaging the direct product
        cfg = ConjectureConfig(n_min=50, n_max=50, grid_points=1, reps=25, C_list=(2.0,), seed=6)
        rows = conjecture_sweep(cfg)
        vals = [
            conjecture_product(_occupancy_counts(rng_stream(6, "conjecture", 50, r), 50), 50, [2.0], cfg.c)[0]
            for r in range(25)
        ]
        assert rows[0].mean == pytest.approx(np.mean(vals), rel=1e-12)
        assert rows[0].stderr == pytest.approx(np.std(vals, ddof=1) / math.sqrt(25), rel=1e-12)


class TestRisks:
    def test_empirical_matches_loop_oracle(self):
        rng = rng_stream(46, "emp")
        x = np.sort(rng.random(40))
        m0 = link_catalog(40)["cube"]
        mhat = MonotoneStepFn(x, np.sort(rng.normal(0.3, 0.2, 40)))
        direct = sum(abs(float(mhat(xi)) - float(m0(xi))) for xi in x) / 40
        assert risk_empirical(mhat, m0, x) == pytest.approx(direct, rel=1e-14)

    def test_empirical_trivial_cases(self):
        x = np.sort(rng_stream(47, "triv").random(30))
        m0 = LinkSpec("identity")
        exact = MonotoneStepFn(x, x.copy())
        assert risk_empirical(exact, m0, x) == 0.0
        shifted = MonotoneStepFn(x, x + 0.3)
        assert risk_empirical(shifted, m0, x) == pytest.approx(0.3, rel=1e-12)
        for outside, got in (
            ([0.5, -5e-324], "-5e-324 at index 1"),
            ([1.0000000000000002, 0.5], "1.0000000000000002 at index 0"),
        ):
            with pytest.raises(ValueError) as info:
                risk_empirical(exact, m0, outside)
            assert str(info.value) == "x must be real numbers in [0, 1], got " + got

    def test_population_zero_vs_identity(self):
        mzero = MonotoneStepFn(np.array([1.0]), np.array([0.0]))
        assert risk_population(mzero, LinkSpec("identity")) == pytest.approx(0.5, rel=1e-9)

    def test_population_constant_shift(self):
        st = LinkSpec("step", (-1.0, 0.5, 2.0))
        mhat = MonotoneStepFn(np.array([1 / 3, 2 / 3, 1.0]), np.array([-0.75, 0.75, 2.25]))
        assert risk_population(mhat, st) == pytest.approx(0.25, rel=1e-9)

    def test_population_exact_match_is_zero(self):
        st = LinkSpec("step", (-1.0, 0.5, 2.0))
        mhat = MonotoneStepFn(np.array([1 / 3, 2 / 3, 1.0]), np.array([-1.0, 0.5, 2.0]))
        assert risk_population(mhat, st) == pytest.approx(0.0, abs=1e-12)

    def test_population_crossing_split(self):
        # mhat = 1/2 against identity: |1/2 - x| integrates to 1/4
        mhalf = MonotoneStepFn(np.array([1.0]), np.array([0.5]))
        assert risk_population(mhalf, LinkSpec("identity")) == pytest.approx(0.25, rel=1e-9)

    def test_population_singular_tail(self):
        from scipy.integrate import quad

        ub = LinkSpec("unbounded-tail", (0.5, 1.0, 0.5, 50))
        mzero = MonotoneStepFn(np.array([1.0]), np.array([0.0]))
        ref, _ = quad(lambda x: -ub(x), 1e-300, ub.cut, points=[ub.cut * 1e-6, ub.cut * 1e-3], limit=200)
        assert risk_population(mzero, ub) == pytest.approx(ref, rel=1e-6)

    @pytest.mark.parametrize("n", [3, 50, 1000, 10**6])
    def test_population_singular_tail_to_1e12(self, n):
        # the pieces next to the singular origin count in full
        ub = link_catalog(n)["unbounded-tail"]
        mzero = MonotoneStepFn(np.array([1.0]), np.array([0.0]))
        assert risk_population(mzero, ub) == pytest.approx(risk_quad(mzero, ub), rel=1e-12)

    @given(name=st.sampled_from(CATALOG_NAMES), n=st.integers(3, 10**6), mhat=step_fits())
    @settings(max_examples=60, deadline=None)
    def test_population_matches_quad_oracle(self, name, n, mhat):
        m0 = link_catalog(n)[name]
        assert risk_population(mhat, m0) == pytest.approx(risk_quad(mhat, m0), rel=1e-12)

    @given(
        name=st.sampled_from(CATALOG_NAMES),
        n=st.integers(3, 10**6),
        k=st.integers(1, 20_000),
        seed=st.integers(0, 2**32 - 1),
        shared=st.booleans(),
        zero=st.sampled_from([None, 0.0, -0.0]),
    )
    @settings(max_examples=40, deadline=None)
    @example(name="step", n=3, k=1, seed=0, shared=True, zero=-0.0)
    @example(name="unbounded-tail", n=10**6, k=20_000, seed=1, shared=True, zero=0.0)
    def test_population_is_the_eval_link_loop_bit_for_bit(self, name, n, k, seed, shared, zero):
        # random knots, optionally also on the links' own edges (shared with
        # [0, 1], the step jumps and the tail refinement) and at a signed zero
        m0 = link_catalog(n)[name]
        rng = rng_stream(seed, "knots")
        knots = rng.random(k)
        if shared:
            knots = np.concatenate((knots, [0.25, 0.5, 0.75, 1.0], 0.5 / n * 0.5 ** np.arange(0, 51, 7)))
        knots = np.unique(knots[knots > 0.0])
        if zero is not None:
            knots = np.concatenate(([zero], knots))
        values = np.sort(rng.uniform(-8.0, 4.0, knots.size))
        mhat = MonotoneStepFn(knots, values)
        assert risk_population(mhat, m0).hex() == risk_population_loop(mhat, m0).hex()

    @given(
        levels=st.lists(st.floats(-8.0, 8.0), min_size=1, max_size=8).map(sorted),
        xs=st.lists(st.floats(0.0, 1.0), max_size=20),
        v=st.floats(-10.0, 10.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_step_link_against_step_function_and_closed_form(self, levels, xs, v):
        # MonotoneStepFn on the knots i/k is the step link written
        # independently, and a constant fit v against it has the closed-form
        # risk sum |level - v| / k
        k = len(levels)
        link = LinkSpec("step", tuple(levels))
        x = np.concatenate((xs, np.arange(k + 1) / k))
        oracle = MonotoneStepFn(np.arange(1, k + 1) / k, levels)
        assert np.array_equal(link(x), oracle(x))
        flat = MonotoneStepFn(np.array([1.0]), np.array([v]))
        want = sum(abs(level - v) for level in levels) / k
        assert risk_population(flat, link) == pytest.approx(want, rel=1e-12)

    def test_population_risk_does_not_depend_on_blas_threads(self):
        # a threaded BLAS dot product splits the panel sum by thread; at
        # n = 1e4 this seed once moved the risk by 2 ulps at one thread
        code = (
            "from monofit.experiments import rate_sweep\n"
            "recs = rate_sweep('shuffled', (10000,), 'below-root', 2, 1729, risk_kinds=('population_L1',))\n"
            "print(' '.join(float(r.value).hex() for r in recs))\n"
        )
        env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        env["PYTHONPATH"] = str(Path(monofit.__file__).resolve().parents[1])
        outs = []
        for extra in ({}, {"OPENBLAS_NUM_THREADS": "1"}):
            out = subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True, env={**env, **extra}, timeout=300
            )
            assert out.returncode == 0, out.stderr
            outs.append(out.stdout.split())
        assert len(outs[0]) == 2
        assert outs[0] == outs[1]

    def test_population_zero_width_panel_at_origin_adds_nothing(self):
        # a level so low that the tail link crosses it only at x = 0, where
        # the link is -inf: the empty panel there must not turn the sum to nan
        ub = link_catalog(100)["unbounded-tail"]
        mhat = MonotoneStepFn(np.array([0.5, 1.0]), np.array([-1e200, 0.0]))
        val = risk_population(mhat, ub)
        assert math.isfinite(val)
        assert val == pytest.approx(0.5e200, rel=1e-12)

    def test_population_needs_a_link_spec(self):
        mzero = MonotoneStepFn(np.array([1.0]), np.array([0.0]))
        with pytest.raises(TypeError, match="LinkSpec"):
            risk_population(mzero, lambda x: x)


class TestSigmaRule:
    def test_parse_forms(self):
        assert parse_spec(SigmaRule, "constant:0.25").sigma(10**6) == 0.25
        assert parse_spec(SigmaRule, "power:0.5").sigma(10**4) == pytest.approx(0.01)
        assert parse_spec(SigmaRule, "below-root").sigma(10**4) == pytest.approx(0.1 * 10**-2.4)

    def test_parse_errors(self):
        for text in ("nonsense", "constant:abc", "bogus:3"):
            with pytest.raises(ValueError, match="^SigmaRule %r: " % text):
                parse_spec(SigmaRule, text)

    @pytest.mark.parametrize(
        "kind, params, why",
        [
            ("below-root", (5.0,), "below-root takes 0 parameters, got 1"),
            ("fixed", (0.5,), "fixed takes 0 parameters, got 1"),
            ("constant", (), "constant takes 1 parameters, got 0"),
            ("constant", (0.1, 0.2), "constant takes 1 parameters, got 2"),
            ("power", (), "power takes 1 parameters, got 0"),
            ("constant", (True,), "constant rule parameter must be a finite real number > 0, got True"),
            ("power", ("0.5",), "power rule parameter must be a finite real number > 0, got '0.5'"),
            ("constant", (None,), "must be a finite real number > 0, got None"),
            ("unbounded-tail", (), "unknown sigma rule"),
            ("fixed", (-1.0,), "fixed takes 0 parameters, got 1"),  # the count is checked before the value
        ],
    )
    def test_refuses_a_parameter_its_kind_does_not_take(self, kind, params, why):
        # a preset's parameter was once kept and never read
        with pytest.raises(ValueError, match=re.escape(why)):
            SigmaRule(kind, params)

    def test_presets_stay_in_regime(self):
        grid = ConjectureConfig().n_grid
        for i, name in enumerate(PRESET_NAMES):
            rule = SigmaRule(name)
            for n in grid:
                rule.check(int(n))
                lo, hi = _regime_edges(int(n))[i : i + 2]
                assert lo < rule.sigma(int(n)) <= hi

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_presets_match_the_if_chains_bit_for_bit(self, name):
        rule = SigmaRule(name)
        i = PRESET_NAMES.index(name)
        for n in [*range(2, 3001), *(10**k for k in range(4, 10))]:
            assert rule.sigma(n).hex() == sigma_chain(name, n).hex()
            assert [v.hex() for v in _regime_edges(n)[i : i + 2]] == [v.hex() for v in range_chain(name, n)]
            lo, hi = range_chain(name, n)
            try:
                rule.check(n)
            except ValueError:
                assert not lo < sigma_chain(name, n) <= hi
            else:
                assert lo < sigma_chain(name, n) <= hi

    @pytest.mark.parametrize("kind, param", [("constant", 0.25), ("constant", 3.0), ("power", 0.5), ("power", 0.7)])
    def test_parametric_rules_match_the_if_chain_bit_for_bit(self, kind, param):
        rule = SigmaRule(kind, (param,))
        for n in [*range(1, 3001), *(10**k for k in range(4, 10))]:
            assert rule.sigma(n).hex() == sigma_chain(kind, n, (param,)).hex()

    def test_preset_out_of_regime_raises(self):
        # the fixed preset needs n^{-0.3} < 0.5, i.e. n >= 11
        with pytest.raises(ValueError, match="out of regime"):
            SigmaRule("fixed").check(5)

    def test_parametric_rules_skip_check(self):
        SigmaRule("constant", (0.7,)).check(5)  # no regime to violate


class TestRateSweep:
    def test_record_structure_and_determinism(self):
        recs = rate_sweep("shuffled", [50, 100], "constant:0.1", reps=3, seed=9)
        assert len(recs) == 2 * 3
        assert all(isinstance(r, RiskRecord) for r in recs)
        assert all(r.risk_kind == "empirical_L1" for r in recs)
        assert recs == rate_sweep("shuffled", [50, 100], "constant:0.1", reps=3, seed=9)

    def test_deconv_records(self):
        recs = rate_sweep("deconv", [100], "below-root", reps=2, seed=9)
        assert len(recs) == 2
        assert all(r.risk_kind == "W1_measure" and r.value >= 0.0 for r in recs)

    def test_replication_reruns_from_record(self):
        from monofit.synth import NoiseSpec, sample_dataset
        from monofit.experiments import _measure_risks

        recs = rate_sweep("shuffled", [80], "constant:0.2", reps=2, seed=11)
        r = recs[1]
        ds = sample_dataset("shuffled", r.n, LinkSpec("identity"), NoiseSpec(), r.sigma, seed=r.seed)
        again = _measure_risks("shuffled", ds, r.sigma, LinkSpec("identity"), (r.risk_kind,))
        assert again[r.risk_kind] == r.value

    def test_incompatible_risk_kind(self):
        with pytest.raises(ValueError):
            rate_sweep("deconv", [100], "below-root", reps=1, seed=1, risk_kinds=("empirical_L1",))

    def test_unknown_problem(self):
        with pytest.raises(ValueError):
            rate_sweep("tangled", [100], "below-root", reps=1, seed=1)

    @pytest.mark.parametrize(
        "problem, n_grid, reps, name",
        [
            ("shuffled", (100, 100.5), 2, "n"),
            ("shuffled", (100,), 2.7, "reps"),
            # the bandwidth takes log n: n = 1 is refused before the n = 1000 fits
            ("unlinked", (1000, 1), 2, "n"),
            ("deconv", (1000, 1), 2, "n"),
        ],
    )
    def test_fractional_size_refused_before_any_fit(self, monkeypatch, problem, n_grid, reps, name):
        monkeypatch.setattr("monofit.experiments.sample_dataset", lambda *a, **k: pytest.fail("a fit ran"))
        with pytest.raises(ValueError, match="%s must be an integer" % name):
            rate_sweep(problem, n_grid, "below-root", reps=reps, seed=1)

    @pytest.mark.parametrize(
        "n_grid, reps, message",
        [
            ((100,), 0, r"reps must be an integer >= 1, got 0"),
            ((100,), -2, r"reps must be an integer >= 1, got -2"),
            ((), 2, r"n_grid must hold one or more sizes, got \[\]"),
            ((100, 0), 2, r"n must be an integer >= 1, got 0"),
            ((-5,), 2, r"n must be an integer >= 1, got -5"),
        ],
        ids=["reps-0", "reps-negative", "empty-grid", "n-0", "n-negative"],
    )
    def test_empty_sweep_refused_before_any_fit(self, monkeypatch, n_grid, reps, message):
        monkeypatch.setattr("monofit.experiments.sample_dataset", lambda *a, **k: pytest.fail("a fit ran"))
        with pytest.raises(ValueError, match=message):
            rate_sweep("shuffled", n_grid, "below-root", reps=reps, seed=1)

    @pytest.mark.parametrize("seed", [1729.9, "1729", None])
    def test_a_seed_that_is_no_integer_refused_before_any_fit(self, monkeypatch, seed):
        # seed 1729.9 once returned the records of seed 1729
        monkeypatch.setattr("monofit.experiments.sample_dataset", lambda *a, **k: pytest.fail("a fit ran"))
        with pytest.raises(ValueError, match="seed must be an integer"):
            rate_sweep("shuffled", (100,), "below-root", reps=1, seed=seed)

    def test_preset_out_of_regime_at_a_late_size_refused_before_any_fit(self, monkeypatch):
        monkeypatch.setattr("monofit.experiments.sample_dataset", lambda *a, **k: pytest.fail("a fit ran"))
        with pytest.raises(ValueError, match="out of regime at n=2"):
            rate_sweep("shuffled", (1000, 2), "root-log-small", reps=3, seed=1)

    def test_record_validation(self):
        # problem and kind are rate_sweep's to check (test_incompatible_risk_kind)
        for bad in (-0.5, math.nan):
            with pytest.raises(ValueError):
                RiskRecord("deconv", 10, 0.1, 0, "W1_measure", bad)


class TestFitLoglogSlope:
    def test_exact_power_law(self):
        pts = [(n, n**-0.5) for n in (10, 100, 1000, 10**4)]
        slope, intercept, r2 = fit_loglog_slope(pts)
        assert slope == pytest.approx(-0.5, abs=1e-12)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_constant_data(self):
        slope, _, r2 = fit_loglog_slope([(10, 3.0), (100, 3.0), (1000, 3.0)])
        assert slope == pytest.approx(0.0, abs=1e-12)
        assert r2 == 1.0

    def test_two_points_interpolate(self):
        slope, intercept, r2 = fit_loglog_slope([(10, 1.0), (1000, 0.01)])
        assert slope == pytest.approx(-1.0, rel=1e-12)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_errors(self):
        with pytest.raises(ValueError, match="^need at least two distinct n$"):
            fit_loglog_slope([(10, 1.0), (10, 2.0)])
