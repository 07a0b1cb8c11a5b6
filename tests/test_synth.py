"""Tests for monofit.synth: link catalog, noise law, sampling schemes."""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from scipy.stats import ks_2samp

from monofit import csvio
from monofit.checks import check_integer, check_real
from monofit.synth import (
    Dataset,
    LinkSpec,
    NoiseSpec,
    dataset_from_csv,
    dataset_to_csv,
    derive_seed,
    link_cdf,
    noise_charfn,
    rng_stream,
    sample_dataset,
)

from links import link_catalog
from memory import traced_peak

# the refusals of Dataset's x_ordered and y, up to what was found in them
X_REFUSED = "x_ordered must be a 1-d array of 1 or more finite real numbers, nondecreasing, in [0, 1], got "
Y_REFUSED = "y must be a 1-d array of 1 or more finite real numbers, got "
ROWS_NOTE = " (the index counts data rows from 0; a blank cell reads as nan)"


class TestNoiseSpec:
    def test_takes_no_arguments(self):
        # Gaussian is the one family, so a request for any other is refused
        NoiseSpec()
        for kwargs in ({"family": "cauchy"}, {"family": "gaussian"}, {"beta": 1.5}, {"gamma2": 1.0}):
            with pytest.raises(TypeError):
                NoiseSpec(**kwargs)
        with pytest.raises(TypeError):
            NoiseSpec("gaussian")

    def test_charfn_values(self):
        assert noise_charfn(0.0) == 1.0
        assert noise_charfn(1.0) == pytest.approx(math.exp(-0.5))
        ts = np.linspace(-30, 30, 1001)
        assert np.all(noise_charfn(ts) > 0.0)

    def test_sample_moments(self):
        # centered, unit variance, within 5 standard errors
        n = 200_000
        draws = sample_dataset("deconv", n, LinkSpec("affine", (0.0, 0.0)), NoiseSpec(), 1.0, seed=4).y
        se_mean = 1.0 / math.sqrt(n)
        assert abs(draws.mean()) < 5 * se_mean
        se_var = math.sqrt(2.0 / n)
        assert abs(draws.var() - 1.0) < 5 * se_var


class TestLinkSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="^unknown link kind: 'parabola'$"):
            LinkSpec("parabola")
        with pytest.raises(ValueError, match="^step link needs at least one level$"):
            LinkSpec("step", ())
        with pytest.raises(ValueError, match="^step levels must be nondecreasing$"):
            LinkSpec("step", (1.0, 0.0))
        with pytest.raises(ValueError, match="^tail cutoff"):
            LinkSpec("unbounded-tail", (0.5, 1.0, 2.0, 1))

    @pytest.mark.parametrize("params", [("1", "2"), (0.0, True), (None,), "12"])
    def test_parameters_must_be_numbers(self, params):
        # text was once read as numbers: ("1", "2") became (1.0, 2.0)
        why = "level must be a finite real number" if isinstance(params, tuple) else "LinkSpec params must be a tuple"
        with pytest.raises(ValueError, match=why):
            LinkSpec("step", params)

    def test_takes_only_its_kinds_parameters(self):
        # a kind has no slot for a parameter it does not read
        for kwargs in ({"slope": 2.0}, {"offset": 1.0}, {"levels": (0.0,)}, {"n_tail": 100}):
            with pytest.raises(TypeError):
                LinkSpec("identity", **kwargs)
        with pytest.raises(ValueError, match="identity takes 0 parameters, got 1"):
            LinkSpec("identity", (2.0,))
        with pytest.raises(ValueError, match="affine takes 2 parameters, got 1"):
            LinkSpec("affine", (1.0,))
        with pytest.raises(ValueError, match="unbounded-tail takes 4 parameters, got 5"):
            LinkSpec("unbounded-tail", (0.5, 1.0, 0.5, 100, 1.0))
        assert LinkSpec("unbounded-tail", (0.5, 1, 0.5, 100.0)) == LinkSpec("unbounded-tail", (0.5, 1.0, 0.5, 100))

    def test_rejects_tail_cut_where_link_turns_down(self):
        # x log^{1+eps}(1/x) peaks at e^{-(1+eps)}: with eps = 0.5 a cut of
        # 0.25 lies past the peak, and the link falls from -1.3462 at 0.22
        # to -1.3482 at 0.25
        xs = np.array([0.22, 0.25])
        assert np.all(np.diff(-((xs * np.log(1.0 / xs) ** 1.5) ** (-1.0 / 3.0))) < 0)
        with pytest.raises(ValueError, match="exp"):
            LinkSpec("unbounded-tail", (0.5, 1.0, 0.5, 2))
        with pytest.raises(ValueError, match="exp"):
            LinkSpec("unbounded-tail", (0.1, 1.0, math.exp(-1.1), 1))
        below = LinkSpec("unbounded-tail", (0.1, 1.0, math.exp(-1.1) * (1.0 - 1e-12), 1))
        grid = np.linspace(0.0, below.cut, 10_001)[1:]
        assert np.all(np.diff(below(grid)) >= 0)

    def test_identity(self):
        assert LinkSpec("identity")(0.3) == 0.3

    def test_domain_error(self):
        with pytest.raises(ValueError):
            LinkSpec("identity")(1.2)

    @pytest.mark.parametrize("name", sorted(link_catalog(3)))
    @pytest.mark.parametrize("x", [-1e-300, -0.5, np.nextafter(1.0, 2.0), 1.2, np.inf, np.nan])
    def test_domain_error_scalar_and_array(self, name, x):
        link = link_catalog(1000)[name]
        for points, index in ((x, 0), (np.array([0.0, 0.5, x, 1.0]), 2)):
            with pytest.raises(ValueError) as info:
                link(points)
            assert str(info.value) == "x must be real numbers in [0, 1], got %r at index %d" % (float(x), index)

    def test_step_left_continuous(self):
        link = LinkSpec("step", (0.0, 1.0))
        assert link(0.5) == 0.0
        assert link(0.50001) == 1.0
        assert link(0.0) == 0.0
        assert link(1.0) == 1.0

    def test_tail_link_vanishes_past_cut(self):
        link = LinkSpec("unbounded-tail", (0.1, 1.0, 0.5, 100))
        assert link(link.cut + 1e-9) == 0.0
        assert link(1.0) == 0.0

    def test_tail_link_closed_form(self):
        link = LinkSpec("unbounded-tail", (0.1, 1.0, 0.5, 100))
        x = 0.5 / 200.0
        want = -((x * math.log(1.0 / x) ** 1.1) ** (-1.0 / 3.0))
        assert link(x) == pytest.approx(want, rel=1e-12)

    def test_tail_link_nondecreasing_down_to_subnormals(self):
        # log(x) stays finite down to the smallest subnormal, where 1 / x
        # would overflow to inf and flip the link to -0.0
        link = link_catalog(1000)["unbounded-tail"]
        xs = np.array([0.0, 5e-324, 1e-310, 5e-309, 1e-300, 1e-200, link.cut])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals = link(xs)
        assert np.all(np.diff(vals) >= 0)
        assert np.all(vals[1:] < 0.0)

    def test_all_catalog_members_nondecreasing(self):
        xs = np.linspace(0.0, 1.0, 4001)[1:]  # skip 0: the tail link is -inf there
        for name, link in link_catalog(1000).items():
            vals = link(xs)
            assert np.all(np.diff(vals) >= 0), name

    def test_moment_bound_under_uniform_design(self):
        # every catalog member keeps (1/n) sum |m(x_i)|^{a+2} within M = 10
        n = 100_000
        xs = rng_stream(12, "x").random(n)
        for name, link in link_catalog(n).items():
            moment = np.mean(np.abs(link(xs)) ** 3.0)
            assert moment <= 10.0, (name, moment)


class TestLinkCdf:
    @pytest.mark.parametrize("name", sorted(link_catalog(50)))
    def test_nan_refused(self, name):
        link = link_catalog(50)[name]
        for z, index in ((math.nan, 0), ([0.5, math.nan], 1)):
            with pytest.raises(ValueError) as info:
                link_cdf(link, z)
            assert str(info.value) == "z must be real numbers in [-inf, inf], got nan at index %d" % index
        assert link_cdf(link, math.inf) == 1.0 and link_cdf(link, -math.inf) == 0.0

    def test_identity_affine_cube(self):
        zs = np.linspace(-2, 2, 41)
        assert np.allclose(link_cdf(LinkSpec("identity"), zs), np.clip(zs, 0, 1))
        aff = LinkSpec("affine", (2.0, -0.5))
        assert np.allclose(link_cdf(aff, zs), np.clip((zs + 0.5) / 2.0, 0, 1))
        assert np.allclose(link_cdf(LinkSpec("cube"), zs), np.clip(np.cbrt(zs), 0, 1))

    def test_step(self):
        link = LinkSpec("step", (-1.0, 0.0, 2.0))
        assert link_cdf(link, -1.5) == 0.0
        assert link_cdf(link, -1.0) == pytest.approx(1.0 / 3.0)
        assert link_cdf(link, 0.5) == pytest.approx(2.0 / 3.0)
        assert link_cdf(link, 2.0) == 1.0

    def test_matches_level_set_measure_on_grid(self):
        # Leb{x : m(x) <= z} evaluated by brute force on a fine grid
        grid = np.linspace(0.0, 1.0, 200_001)[1:]
        for link in (LinkSpec("affine", (0.7, -0.2)), LinkSpec("cube"), LinkSpec("step", (-0.5, 0.25, 0.3))):
            vals = link(grid)
            for z in (-0.6, -0.2, 0.0, 0.2, 0.26, 0.9):
                want = np.mean(vals <= z)
                assert link_cdf(link, z) == pytest.approx(want, abs=1e-4)

    def test_tail_link_inversion(self):
        link = LinkSpec("unbounded-tail", (0.5, 1.0, 0.5, 1000))
        grid = np.linspace(0.0, 1.0, 2_000_001)[1:]
        vals = link(grid)
        for z in (-8.0, -4.0, -2.5, -0.01, 0.0, 1.0):
            want = np.mean(vals <= z)
            assert link_cdf(link, z) == pytest.approx(want, abs=1e-5)


    @pytest.mark.parametrize("eps, a, n", [(0.5, 1.0, 1000), (0.5, 1.0, 3), (0.1, 2.5, 50), (2.0, 0.5, 10**6)])
    def test_tail_link_solves_profile_equation(self, eps, a, n):
        # below the cut, x = Leb{m <= z} solves log x + (1+eps) log log(1/x)
        # = -(a+2) log(-z); elsewhere the CDF is exactly the cut or 1
        link = LinkSpec("unbounded-tail", (eps, a, 0.5, n))
        z = -np.geomspace(1e-3, 1e3, 2000)
        x = link_cdf(link, z)
        tail = x < link.cut
        resid = np.log(x[tail]) + (1.0 + eps) * np.log(-np.log(x[tail])) + (a + 2.0) * np.log(-z[tail])
        assert tail.sum() > 100
        assert np.max(np.abs(resid)) <= 1e-12
        assert np.all(x[~tail] == link.cut)

    def test_tail_link_extremes(self):
        link = link_catalog(100)["unbounded-tail"]
        assert np.array_equal(link_cdf(link, [-np.inf, -1e300, 0.0, 5.0]), [0.0, 0.0, 1.0, 1.0])


class TestCheckInteger:
    @pytest.mark.parametrize("value", [100, 100.0, np.int64(100), np.float64(100.0)])
    def test_integral_values_taken(self, value):
        assert check_integer(value, "n") == 100 and type(check_integer(value, "n")) is int


class TestCheckReal:
    @pytest.mark.parametrize("value", [1.5, 3, np.float32(1.5), np.int64(3)])
    def test_numbers_taken_as_floats(self, value):
        out = check_real(value, "c")
        assert type(out) is float and out == float(value)


class TestSampleDataset:
    def test_noiseless_shuffled_recovery(self):
        # with sigma = 0 the sorted responses are exactly the link at the
        # ordered covariates
        for name, link in link_catalog(500).items():
            ds = sample_dataset("shuffled", 500, link, NoiseSpec(), 0.0, seed=42)
            assert np.array_equal(np.sort(ds.y, kind="stable"), link(ds.x_ordered)), name

    def test_determinism(self):
        a = sample_dataset("unlinked", 257, LinkSpec("cube"), NoiseSpec(), 0.3, seed=9)
        b = sample_dataset("unlinked", 257, LinkSpec("cube"), NoiseSpec(), 0.3, seed=9)
        assert np.array_equal(a.x_ordered, b.x_ordered)
        assert np.array_equal(a.y, b.y)
        c = sample_dataset("unlinked", 257, LinkSpec("cube"), NoiseSpec(), 0.3, seed=10)
        assert not np.array_equal(a.y, c.y)

    def test_shuffled_stream_accounting(self):
        n, seed, sigma = 101, 77, 0.25
        link = LinkSpec("affine", (1.5, 0.2))
        ds = sample_dataset("shuffled", n, link, NoiseSpec(), sigma, seed)
        x = np.sort(rng_stream(seed, "x").random(n), kind="stable")
        delta = rng_stream(seed, "noise").standard_normal(n)
        perm = rng_stream(seed, "perm").permutation(n)
        assert np.array_equal(ds.x_ordered, x)
        assert np.array_equal(ds.y, (link(x) + sigma * delta)[perm])

    def test_unlinked_streams_disjoint(self):
        n, seed, sigma = 64, 5, 0.1
        link = LinkSpec("identity")
        ds = sample_dataset("unlinked", n, link, NoiseSpec(), sigma, seed)
        x = np.sort(rng_stream(seed, "x").random(n), kind="stable")
        x_latent = rng_stream(seed, "latent").random(n)
        delta = rng_stream(seed, "noise").standard_normal(n)
        assert np.array_equal(ds.x_ordered, x)
        assert np.array_equal(ds.y, link(x_latent) + sigma * delta)

    @pytest.mark.parametrize("mode", ["shuffled", "unlinked"])
    @pytest.mark.parametrize("n", [1, 1000, 10_000])
    @pytest.mark.parametrize("seed", [0, 17, 2**40 + 3])
    def test_matches_a_stable_sort_rebuild(self, mode, n, seed):
        # the covariates lie in [0, 1) with no -0.0 or NaN, so any sort of
        # them gives the stable sort's array
        link, sigma = LinkSpec("cube"), 0.2
        ds = sample_dataset(mode, n, link, NoiseSpec(), sigma, seed)
        x = np.sort(rng_stream(seed, "x").random(n), kind="stable")
        latent = x if mode == "shuffled" else rng_stream(seed, "latent").random(n)
        y = link(latent) + sigma * rng_stream(seed, "noise").standard_normal(n)
        if mode == "shuffled":
            y = y[rng_stream(seed, "perm").permutation(n)]
        assert ds.x_ordered.tobytes() == x.tobytes()
        assert ds.y.tobytes() == y.tobytes()

    def test_deconv_has_no_covariates(self):
        ds = sample_dataset("deconv", 32, LinkSpec("identity"), NoiseSpec(), 0.5, seed=1)
        assert ds.x_ordered is None
        assert ds.n == 32

    def test_invalid_inputs(self):
        with pytest.raises(ValueError, match="^unknown mode: 'linked'$"):
            sample_dataset("linked", 10, LinkSpec("identity"), NoiseSpec(), 0.1, 0)

    def test_derive_seed_stable(self):
        assert derive_seed(3, "rates", 100, 7) == derive_seed(3, "rates", 100, 7)
        assert derive_seed(3, "rates", 100, 7) != derive_seed(3, "rates", 100, 8)

    def test_integer_seeds_keep_their_bits(self):
        # an integral float or numpy integer is the same seed; -1 and 2^64 - 1 share 64 bits
        assert derive_seed(17.0, "x") == derive_seed(np.int64(17), "x") == derive_seed(17, "x")
        assert derive_seed(-1, "x") == derive_seed(2**64 - 1, "x")


class TestOrderStatisticsLaws:
    def test_normalized_spacings_look_exponential(self):
        # spacings of n uniform order statistics, scaled by (n + 1), follow
        # Exp(1); two-sample KS against fresh exponential draws
        n = 1000
        u = np.sort(rng_stream(2024, "x").random(n), kind="stable")
        spacings = np.diff(np.concatenate([[0.0], u, [1.0]])) * (n + 1)
        expo = rng_stream(2024, "exp-oracle").exponential(size=2000)
        assert ks_2samp(spacings, expo).pvalue > 1e-3

    def test_minimum_moments(self):
        # n E[U_(1)] -> 1 and n^2 E[U_(1)^2] -> 2
        n, reps = 10_000, 10_000
        rng = rng_stream(31, "x")
        mins = np.empty(reps)
        for lo in range(0, reps, 200):
            block = rng.random((200, n))
            mins[lo : lo + 200] = block.min(axis=1)
        scaled = n * mins
        mean1 = scaled.mean()
        se1 = scaled.std(ddof=1) / math.sqrt(reps)
        assert abs(mean1 - 1.0) < 5 * se1 + 5 / n
        sq = scaled**2
        mean2 = sq.mean()
        se2 = sq.std(ddof=1) / math.sqrt(reps)
        assert abs(mean2 - 2.0) < 5 * se2 + 20 / n


class TestDatasetCsv:
    def test_round_trip(self, tmp_path):
        ds = sample_dataset("shuffled", 23, LinkSpec("cube"), NoiseSpec(), 0.2, seed=8)
        path = tmp_path / "ds.csv"
        dataset_to_csv(ds, path)
        back = dataset_from_csv(path)
        assert back.mode == "shuffled"
        assert np.array_equal(back.x_ordered, ds.x_ordered)
        assert np.array_equal(back.y, ds.y)

    def test_deconv_round_trip(self, tmp_path):
        ds = sample_dataset("deconv", 11, LinkSpec("identity"), NoiseSpec(), 0.4, seed=3)
        path = tmp_path / "ds.csv"
        dataset_to_csv(ds, path)
        back = dataset_from_csv(path)
        assert back.mode == "deconv"
        assert back.x_ordered is None
        assert np.array_equal(back.y, ds.y)

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            dataset_from_csv(path)

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("unlinked,0,0.25,1\r\nunlinked,1,0.5\r\n", "line 3: expected 4 cells, found 3: 'unlinked,1,0.5'"),
            ("unlinked,0,0.25,1,7\r\n", "line 2: expected 4 cells, found 5: 'unlinked,0,0.25,1,7'"),
            ("unlinked,0,0.25,abc\r\n", "line 2: could not convert string to float: 'abc': 'unlinked,0,0.25,abc'"),
            ("unlinked,0,0.25,1\r\nunlinked,1,,2\r\n", X_REFUSED + "nan at index 1" + ROWS_NOTE),
            ("shuffled,0,0.25,1\r\nshuffled,1,nan,2\r\n", X_REFUSED + "nan at index 1" + ROWS_NOTE),
            ("shuffled,0,0.25,1\r\ndeconv,1,,2\r\n", "expected a single mode, found ['deconv', 'shuffled']"),
            ("", "expected a single mode, found []"),
            ("shuffledx,0,0.25,1\r\n", "unknown mode: 'shuffledx'"),
            ("unlinkedxyz,0,0.25,1\r\n", "unknown mode: 'unlinkedx'"),
            ("unlinked,0,0.25,1\r\nunlinked,1,inf,2\r\n", X_REFUSED + "inf at index 1" + ROWS_NOTE),
            ("shuffled,0,0.25,nan\r\n", Y_REFUSED + "nan at index 0" + ROWS_NOTE),
            ("deconv,0,,-inf\r\n", Y_REFUSED + "-inf at index 0" + ROWS_NOTE),
        ],
        ids=["ragged", "extra-field", "text", "blank-x", "nan-x", "two-modes", "header-only", "long-mode",
             "longer-mode", "inf-x", "nan-y", "inf-y"],
    )
    def test_bad_rows_refused_naming_the_file(self, tmp_path, rows, message):
        path = tmp_path / "bad.csv"
        path.write_text("mode,index,x,y\r\n" + rows, newline="")
        with pytest.raises(ValueError) as refused:
            dataset_from_csv(path)
        assert str(refused.value) == "%s: %s" % (path, message)

    def test_lf_ends_and_blank_lines_accepted(self, tmp_path):
        path = tmp_path / "lf.csv"
        path.write_text("mode,index,x,y\nunlinked,0,0.25,1.5\n\nunlinked,1,0.5,-2\n\n", newline="")
        # chunks of one blank line, chunks that end on one, and the whole file
        for chunk in (1, 2, 3, csvio.CHUNK_ROWS):
            with warnings.catch_warnings(), mock.patch.object(csvio, "CHUNK_ROWS", chunk):
                warnings.simplefilter("error")
                back = dataset_from_csv(path)
            assert (back.mode, back.x_ordered.tolist(), back.y.tolist()) == ("unlinked", [0.25, 0.5], [1.5, -2.0])

    @pytest.mark.parametrize("chunk", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("mode", ["shuffled", "unlinked", "deconv"])
    def test_chunked_read_is_the_written_dataset(self, tmp_path, chunk, mode):
        ds = sample_dataset(mode, 11, LinkSpec("cube"), NoiseSpec(), 0.3, seed=chunk)
        path = tmp_path / "ds.csv"
        dataset_to_csv(ds, path)
        with mock.patch.object(csvio, "CHUNK_ROWS", chunk):
            back = dataset_from_csv(path)
        assert back.mode == mode and back.y.tobytes() == ds.y.tobytes()
        assert (back.x_ordered is None) if mode == "deconv" else back.x_ordered.tobytes() == ds.x_ordered.tobytes()

    @pytest.mark.parametrize(
        "rows, message",
        [
            # the second mode only in the last chunk
            ("shuffled,0,0.25,1\r\nshuffled,1,0.5,2\r\nunlinked,2,0.75,3\r\n",
             "expected a single mode, found ['shuffled', 'unlinked']"),
            # every mode of the file is named, not only the first chunk's
            ("unlinked,0,0.25,1\r\ndeconv,1,,2\r\nshuffled,2,0.5,3\r\ndeconv,3,,4\r\n",
             "expected a single mode, found ['deconv', 'shuffled', 'unlinked']"),
            # a line that does not parse is named first, wherever it is
            ("shuffled,0,0.25,1\r\ndeconv,1,,2\r\nshuffled,2,0.5,abc\r\n",
             "line 4: could not convert string to float: 'abc': 'shuffled,2,0.5,abc'"),
            # so is a mixed mode ahead of a NaN x
            ("shuffled,0,nan,1\r\nshuffled,1,0.5,2\r\ndeconv,2,,3\r\n",
             "expected a single mode, found ['deconv', 'shuffled']"),
        ],
        ids=["late-mode", "three-modes", "late-bad-line", "mode-before-nan-x"],
    )
    def test_later_chunks_refused_as_the_whole_file(self, tmp_path, rows, message):
        path = tmp_path / "bad.csv"
        path.write_text("mode,index,x,y\r\n" + rows, newline="")
        for chunk in (1, 2, csvio.CHUNK_ROWS):
            with mock.patch.object(csvio, "CHUNK_ROWS", chunk), pytest.raises(ValueError) as refused:
                dataset_from_csv(path)
            assert str(refused.value) == "%s: %s" % (path, message)

    @pytest.mark.parametrize("mode", ["unlinked", "deconv"])
    def test_read_within_a_memory_budget(self, tmp_path, mode):
        n = 100_000
        path = tmp_path / "ds.csv"
        dataset_to_csv(sample_dataset(mode, n, LinkSpec("affine", (8.0, -4.0)), NoiseSpec(), 0.1, seed=601), path)
        ds, peak = traced_peak(dataset_from_csv, path)
        assert ds.n == n
        # x and y, one of them twice while its chunks are joined, plus one
        # chunk's text and rows
        assert peak < 3 * 8 * n + 2 * 2**20, "peak %.2f MB" % (peak / 1e6)

    def test_mode_validation(self):
        with pytest.raises(ValueError, match="^deconv mode carries no covariates$"):
            Dataset("deconv", np.array([0.5]), np.array([1.0]))
