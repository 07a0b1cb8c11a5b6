"""The refusal table: each argument checked by ``monofit.checks``, the values
it must refuse and the edge values it must still take.

A row is one argument: a call with every other argument valid, the name its
refusal starts with, the values it refuses and the values it takes.  Every
number-valued argument refuses NaN, inf, a boolean, text and None
(``NOT_NUMBERS``), then the first values past its bound.  Every
array-valued argument refuses the arrays ``not_arrays`` makes from one it
takes (NaN or ±inf inside, empty, 2-d, text, booleans), then the arrays out
of its order or range.  Every evaluation-point argument refuses text, a
boolean, None, NaN and a ragged nesting (``NOT_POINTS``), then the first
points past its interval, and takes points of any shape (``POINTS``).

Every callable a module exports has a row here or a reason in ``EXEMPT``.
This is the one place an argument's own refusal is tested; the other test
files test the refusals that join several arguments and the order they come in.
"""

import importlib
import math
import pkgutil
import tempfile
from pathlib import Path

import numpy as np
import pytest

from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import monofit
from monofit.checks import check_array, check_integer, check_points, check_real, check_sigma
from monofit.deconv import auto_grid, deconvolve_cdf, estimate_cdf, isotonize_cdf, select_bandwidth
from monofit.dist1d import EmpiricalMeasure, GridSpec, MonotoneStepFn, TabulatedDistribution, quantile, w1_tabulated
from monofit.experiments import (
    ConjectureConfig,
    SigmaRule,
    conjecture_product,
    conjecture_sweep,
    fit_loglog_slope,
    rate_sweep,
    risk_empirical,
)
from monofit.regress import fit_shuffled, fit_unlinked, project_moment, stepfn_from_csv, stepfn_to_csv
from monofit.synth import (
    Dataset,
    LinkSpec,
    NoiseSpec,
    affine_link,
    derive_seed,
    link_cdf,
    rng_stream,
    sample_dataset,
)

NOT_NUMBERS = [math.nan, math.inf, True, "1", None]
BELOW_ZERO = -5e-324  # the first float below a bound of 0
ABOVE_ONE = 1.0000000000000002  # the first float above a bound of 1
NOT_POINTS = ["0.5", True, None, math.nan, [0.2, "0.3"], [[0.2], [0.2, 0.3]], [0.5, math.nan]]
POINTS = [np.array(0.5), [[0.25, 0.5], [0.5, 0.75]], []]  # 0-d, 2-d and empty, inside (0, 1)
YS = EmpiricalMeasure(np.array([0.0, 1.0]))
GRID = auto_grid(YS, 0.0, 0.5)
GRID3 = GridSpec(0.0, 1.0, 3)
SMALL = ConjectureConfig(n_min=100, n_max=100, grid_points=1, reps=1, C_list=(1.0,))
STEP = MonotoneStepFn([0.5, 1.0], [0.0, 1.0])
X3 = [0.1, 0.5, 0.9]  # three sorted covariates
TAIL = LinkSpec("unbounded-tail", (0.5, 1.0, 0.1, 100))
HALVES = TabulatedDistribution(GRID3, [0.0, 0.5, 1.0])
NOT_GRIDS = [None, (0, 1, 3), "0,1,3"]
HUGE = 10**400  # an int past float range
FIT_META = {"n": 3, "sigma": 0.25, "eta": 0.0625, "projected": True}


def _id(arg, value):
    """A test id: the argument and the value, whose repr is cut short past 60 characters."""
    text = repr(value)
    return "%s=%s" % (arg, text if len(text) <= 60 else text[:40] + "...")


def _stepfn_meta(key):
    """stepfn_from_csv of a file whose preamble holds ``key``=text; the refusal without its path prefix."""

    def call(text):
        meta = {"n": "3", "sigma": "0.25", "eta": "0.0625", "projected": "1", key: text}
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "fit.csv"
            path.write_text("".join("# %s=%s\n" % kv for kv in meta.items()) + "knot,value\n0.5,1\n")
            try:
                return stepfn_from_csv(path)
            except ValueError as exc:
                assert str(exc).startswith("%s: " % path)
                raise ValueError(str(exc)[len("%s: " % path) :]) from None

    return call


def _stepfn_written(key):
    """stepfn_to_csv of STEP with the preamble value ``key`` in its place, into a fresh directory."""

    def call(value):
        with tempfile.TemporaryDirectory() as tmp:
            stepfn_to_csv(STEP, Path(tmp) / "fit.csv", **{**FIT_META, key: value})

    return call


# (argument, call with the value in its place, name the refusal starts with, refused, taken)
ARGS = [
    ("check_real.value", lambda v: check_real(v, "value"), "value",
     NOT_NUMBERS + [-math.inf, b"1", np.True_, (1.0,), HUGE], [0.0]),
    ("check_integer.value", lambda v: check_integer(v, "value"), "value", NOT_NUMBERS + [2.5, np.True_, HUGE],
     [2.0]),
    ("check_sigma", check_sigma, "sigma", NOT_NUMBERS + [BELOW_ZERO], [0.0]),
    ("rng_stream.seed", lambda v: rng_stream(v, "x"), "seed", NOT_NUMBERS + [2.5, HUGE], [-1]),
    ("derive_seed.seed", lambda v: derive_seed(v, "x"), "seed", NOT_NUMBERS + [2.5, HUGE], [-1]),
    ("affine_link.slope", lambda v: affine_link(v, 0.0), "slope", NOT_NUMBERS + [BELOW_ZERO], [0.0]),
    ("sample_dataset.n", lambda v: sample_dataset("deconv", v, LinkSpec("identity"), NoiseSpec(), 0.1, 1), "n",
     NOT_NUMBERS + [0, 2.5], [1, 100.0]),
    ("sample_dataset.sigma", lambda v: sample_dataset("deconv", 10, LinkSpec("identity"), NoiseSpec(), v, 1),
     "sigma", NOT_NUMBERS + [BELOW_ZERO], [0.0]),
    # params is a tuple: a list, even of the right count, is refused as text and a scalar are
    ("LinkSpec.params", lambda v: LinkSpec("affine", v), "LinkSpec params",
     NOT_NUMBERS + [2.0, "12", [1.0], [1.0, 0.0]], [(1.0, 0.0)]),
    ("LinkSpec.slope", lambda v: LinkSpec("affine", (v, 0.0)), "slope", NOT_NUMBERS + [BELOW_ZERO], [0.0]),
    ("LinkSpec.offset", lambda v: LinkSpec("affine", (1.0, v)), "offset", NOT_NUMBERS, []),
    ("LinkSpec.level", lambda v: LinkSpec("step", (-1.0, v)), "level", NOT_NUMBERS, []),
    ("LinkSpec.eps", lambda v: LinkSpec("unbounded-tail", (v, 1.0, 0.1, 100)), "eps", NOT_NUMBERS + [0.0], []),
    ("LinkSpec.a", lambda v: LinkSpec("unbounded-tail", (0.5, v, 0.1, 100)), "a", NOT_NUMBERS + [0.0], []),
    ("LinkSpec.tail_scale", lambda v: LinkSpec("unbounded-tail", (0.5, 1.0, v, 100)), "tail_scale",
     NOT_NUMBERS + [0.0], []),
    ("LinkSpec.n", lambda v: LinkSpec("unbounded-tail", (0.5, 1.0, 0.1, v)), "n", NOT_NUMBERS + [0, 100.5], [1]),
    ("SigmaRule.params", lambda v: SigmaRule("constant", v), "SigmaRule params", NOT_NUMBERS + [0.7, [1.0]], [(0.7,)]),
    ("SigmaRule.constant", lambda v: SigmaRule("constant", (v,)), "constant rule parameter", NOT_NUMBERS + [0.0], []),
    ("SigmaRule.power", lambda v: SigmaRule("power", (v,)), "power rule parameter", NOT_NUMBERS + [0.0], []),
    ("SigmaRule.sigma.n", SigmaRule("below-root").sigma, "n", NOT_NUMBERS + [100.5, 0, -4], [100.0]),
    ("SigmaRule.check.n", SigmaRule("below-root").check, "n", NOT_NUMBERS + [100.5, 0, -4], [100.0]),
    ("GridSpec.lo", lambda v: GridSpec(v, 2.0, 4), "lo", NOT_NUMBERS + [-math.inf], []),
    ("GridSpec.hi", lambda v: GridSpec(0.0, v, 4), "hi", NOT_NUMBERS + [-math.inf], []),
    ("GridSpec.points", lambda v: GridSpec(0.0, 1.0, v), "points", NOT_NUMBERS + [1, 2.5], [2, 12, 16.0]),
    ("select_bandwidth.n", lambda v: select_bandwidth(v, 0.0), "n", NOT_NUMBERS + [1, 2.5],
     [2, 100.0, np.int64(100)]),
    ("select_bandwidth.sigma", lambda v: select_bandwidth(100, v), "sigma", NOT_NUMBERS + [BELOW_ZERO], [0.0]),
    ("auto_grid.sigma", lambda v: auto_grid(YS, v, 0.5), "sigma", NOT_NUMBERS + [BELOW_ZERO], [0.0]),
    ("auto_grid.h", lambda v: auto_grid(YS, 0.0, v), "h", NOT_NUMBERS + [0.0, BELOW_ZERO], [5e-324]),
    ("deconvolve_cdf.h", lambda v: deconvolve_cdf(YS, 0.0, v, GRID), "h", NOT_NUMBERS + [0.0, 1.0000000000000002],
     [1.0]),
    ("deconvolve_cdf.freq_points", lambda v: deconvolve_cdf(YS, 0.0, 0.5, GRID, freq_points=v), "freq_points",
     NOT_NUMBERS + [1, 4096.5], []),
    ("deconvolve_cdf.sigma", lambda v: deconvolve_cdf(YS, v, 0.5, GRID), "sigma", NOT_NUMBERS + [BELOW_ZERO], [0.0]),
    # two observations or more, as select_bandwidth asks of estimate_cdf
    ("deconvolve_cdf.ys", lambda v: deconvolve_cdf(v, 0.0, 0.5, GRID), "ys", [EmpiricalMeasure([0.5])], [YS]),
    ("deconvolve_cdf.grid", lambda v: deconvolve_cdf(YS, 0.0, 0.5, v), "grid", NOT_GRIDS, [GRID]),
    ("TabulatedDistribution.grid", lambda v: TabulatedDistribution(v, [0.0, 0.5, 1.0]), "grid", NOT_GRIDS, [GRID3]),
    ("TabulatedDistribution.from_callable.grid", lambda v: TabulatedDistribution.from_callable(np.sqrt, v), "grid",
     NOT_GRIDS, [GRID3]),
    ("w1_tabulated.b", lambda v: w1_tabulated(HALVES, v), "b",
     [TabulatedDistribution(GridSpec(0.0, 2.0, 3), [0.0, 0.5, 1.0])], [HALVES]),
    # the estimators' sigma, the one check of `monofit estimate --sigma`
    ("fit_shuffled.sigma", lambda v: fit_shuffled(X3, [1.0, 3.0, 2.0], v), "sigma", NOT_NUMBERS + [BELOW_ZERO], [0.0]),
    ("fit_unlinked.sigma", lambda v: fit_unlinked(X3, [1.0, 3.0, 2.0], v), "sigma", NOT_NUMBERS + [BELOW_ZERO], [0.0]),
    ("estimate_cdf.sigma", lambda v: estimate_cdf([1.0, 3.0, 2.0], v), "sigma", NOT_NUMBERS + [BELOW_ZERO], [0.0]),
    ("stepfn_to_csv.n", _stepfn_written("n"), "n", NOT_NUMBERS + [0, 2.5], [1]),
    ("stepfn_to_csv.sigma", _stepfn_written("sigma"), "sigma", NOT_NUMBERS + [BELOW_ZERO], [0.0]),
    ("stepfn_to_csv.eta", _stepfn_written("eta"), "eta", NOT_NUMBERS + [BELOW_ZERO], [0.0]),
    ("stepfn_to_csv.projected", _stepfn_written("projected"), "projected", [1, 0, "1", None, math.nan],
     [False, np.True_]),
    ("stepfn_from_csv.n", _stepfn_meta("n"), "n", ["nan", "inf", "0", "2.5"], ["1"]),
    ("stepfn_from_csv.sigma", _stepfn_meta("sigma"), "sigma", ["nan", "inf", "-5e-324"], ["0"]),
    ("stepfn_from_csv.eta", _stepfn_meta("eta"), "eta", ["nan", "inf", "-5e-324"], ["0"]),
    ("stepfn_from_csv.projected", _stepfn_meta("projected"), "projected", ["2", "yes"], ["0"]),
    ("ConjectureConfig.n_min", lambda v: ConjectureConfig(n_min=v), "n_min", NOT_NUMBERS + [0, 2.5], [1]),
    ("ConjectureConfig.n_max", lambda v: ConjectureConfig(n_min=100, n_max=v), "n_max", NOT_NUMBERS + [99, 100.5],
     [100]),
    ("ConjectureConfig.grid_points", lambda v: ConjectureConfig(grid_points=v), "grid_points",
     NOT_NUMBERS + [0, 2.5], [1]),
    ("ConjectureConfig.reps", lambda v: ConjectureConfig(reps=v), "reps", NOT_NUMBERS + [0, 2.5], [1]),
    ("ConjectureConfig.c", lambda v: ConjectureConfig(c=v), "c", NOT_NUMBERS + [0.0], []),
    ("ConjectureConfig.C", lambda v: ConjectureConfig(C_list=(1.0, v)), "C", NOT_NUMBERS + [0.0], []),
    # text is no sequence of numbers: "15" would be read as (1.0, 5.0)
    ("ConjectureConfig.C_list", lambda v: ConjectureConfig(C_list=v), "C", ["15"], [[2.0, 1.0]]),
    ("ConjectureConfig.seed", lambda v: ConjectureConfig(seed=v), "seed", NOT_NUMBERS + [2.5], [-1]),
    ("conjecture_sweep.workers", lambda v: conjecture_sweep(SMALL, workers=v), "workers", NOT_NUMBERS + [0, 2.5],
     [1]),
    ("conjecture_product.n", lambda v: conjecture_product([50, 50], v, [1.0], 1.0), "n", NOT_NUMBERS + [0, 100.5],
     []),
    ("conjecture_product.c", lambda v: conjecture_product([50, 50], 100, [1.0], v), "c", NOT_NUMBERS + [0.0], []),
    # C is a 1-d sequence, each entry checked on its own; a scalar is refused
    ("conjecture_product.C", lambda v: conjecture_product([50, 50], 100, v, 1.0), "C",
     NOT_NUMBERS + [-math.inf, [1.0, math.nan], ["2", True], [[1.0]], [[1.0], [1.0, 2.0]], 1.0, [-math.inf], [None]],
     [[0.0, 1.0]]),
    # counts keep their own integer dtype (a draw's is unsigned), so a float one is refused, integral or not
    ("conjecture_product.counts", lambda v: conjecture_product(v, 100, [1.0], 1.0), "counts",
     [[50.0, 50.0], ["50", "50"], [True, True], [[50, 50]], 100], [[50, 50], np.array([50, 50], np.uint8)]),
    ("rate_sweep.n", lambda v: rate_sweep("shuffled", (100, v), "below-root", 1, 1), "n", NOT_NUMBERS + [0, 2.5],
     []),
    # the unlinked and deconv bandwidths take log n
    ("rate_sweep.unlinked.n", lambda v: rate_sweep("unlinked", (v,), "below-root", 1, 1), "n", [1], [2]),
    ("rate_sweep.deconv.n", lambda v: rate_sweep("deconv", (v,), "below-root", 1, 1), "n", [1], [2]),
    ("rate_sweep.reps", lambda v: rate_sweep("shuffled", (100,), "below-root", v, 1), "reps", NOT_NUMBERS + [0, 2.5],
     []),
    ("fit_loglog_slope.n", lambda v: fit_loglog_slope([(v, 1.0), (10, 2.0)]), "n", NOT_NUMBERS + [0.0], []),
    ("fit_loglog_slope.value", lambda v: fit_loglog_slope([(1, v), (10, 2.0)]), "value", NOT_NUMBERS + [0.0],
     [5e-324]),
    # evaluation points: the closed [0, 1], the open (0, 1) and the closed [-inf, inf]
    ("check_points.value", lambda v: check_points(v, "value", (0.0, 1.0)), "value",
     NOT_POINTS + [BELOW_ZERO, ABOVE_ONE], POINTS + [0.0, 1.0]),
    ("MonotoneStepFn.__call__.x", STEP, "x", NOT_POINTS + [BELOW_ZERO, ABOVE_ONE], POINTS + [0.0, 1.0]),
    ("LinkSpec.__call__.x", TAIL, "x", NOT_POINTS + [BELOW_ZERO, ABOVE_ONE], POINTS + [0.0, 1.0]),
    ("quantile.u", lambda v: quantile(HALVES, v), "u", NOT_POINTS + [0.0, 1.0], POINTS + [5e-324, 1.0 - 2**-53]),
    ("link_cdf.z", lambda v: link_cdf(TAIL, v), "z", NOT_POINTS, POINTS + [-math.inf, math.inf]),
]


@pytest.mark.parametrize(
    "call, name, value",
    [pytest.param(call, name, v, id=_id(arg, v)) for arg, call, name, refused, _ in ARGS for v in refused],
)
def test_refused_by_name(call, name, value):
    with pytest.raises(ValueError) as info:
        call(value)
    assert str(info.value).startswith(name + " "), str(info.value)


@pytest.mark.parametrize(
    "call, value", [pytest.param(call, v, id=_id(arg, v)) for arg, call, _, _, taken in ARGS for v in taken]
)
def test_edge_value_taken(call, value):
    call(value)


def not_arrays(taken):
    """The arrays every array-valued argument refuses, made from one it takes (three entries or more)."""
    out = []
    for bad in (math.nan, math.inf, -math.inf):
        inside = list(taken)
        inside[1] = bad
        out.append(inside)
    return out + [[], [list(taken)], [str(v) for v in taken], [True] * len(taken)]


# (argument, call with the array in its place, name the refusal starts with,
# an array it takes, the arrays out of its order or range)
ARRAYS = [
    ("check_array.value", lambda v: check_array(v, "value"), "value", [2.0, 1.0, 3.0], [[[1.0], [1.0, 2.0]]]),
    ("EmpiricalMeasure.atoms", EmpiricalMeasure, "atoms", [0.0, 1.0, 1.0], [[1.0, 0.0, 2.0]]),
    ("EmpiricalMeasure.from_sample.y", EmpiricalMeasure.from_sample, "y", [1.0, 0.0, 1.0], [[1.0, None, 2.0]]),
    # one entry per point of the 3-point grid
    ("TabulatedDistribution.cdf", lambda v: TabulatedDistribution(GRID3, v), "cdf", [0.0, 0.5, 1.0],
     [[0.0], [0.0, 1.0], [0.0, 0.5, 0.5, 1.0], [0.0, 0.6, 0.5, 1.0], [-5e-324, 0.5, 1.0],
      [0.0, 0.5, 1.0000000000000002]]),
    ("MonotoneStepFn.knots", lambda v: MonotoneStepFn(v, [0.0, 1.0, 2.0]), "knots", [0.0, 0.5, 1.0],
     [[0.0, 0.5, 0.5], [0.5, 0.0, 1.0], [-5e-324, 0.5, 1.0], [0.0, 0.5, 1.0000000000000002]]),
    ("MonotoneStepFn.values", lambda v: MonotoneStepFn([0.25, 0.5, 1.0], v), "values", [-1.0, 2.0, 2.0],
     [[2.0, -1.0, 2.0], [-1.0, 2.0]]),
    ("isotonize_cdf.raw", isotonize_cdf, "raw", [0.2, 0.1, 0.9], []),
    ("project_moment.values", project_moment, "values", [1.0, 2.0, 2.0], [[2.0, 1.0, 3.0]]),
    # an x_ordered out of order or range is refused as the fit's knots (tests/test_regress.py)
    ("fit_shuffled.x_ordered", lambda v: fit_shuffled(v, [1.0, 3.0, 2.0], 0.1), "x_ordered", X3, []),
    ("fit_shuffled.y", lambda v: fit_shuffled(X3, v, 0.1), "y", [1.0, 3.0, 2.0], [[1.0, 2.0]]),
    ("fit_unlinked.x_ordered", lambda v: fit_unlinked(v, [1.0, 3.0, 2.0], 0.1), "x_ordered", X3,
     [[0.5, 0.1, 0.9], [-5e-324, 0.5, 0.9], [0.1, 0.5, 1.0000000000000002]]),
    ("fit_unlinked.y", lambda v: fit_unlinked(X3, v, 0.1), "y", [1.0, 3.0, 2.0], [[1.0, 2.0]]),
    ("estimate_cdf.y", lambda v: estimate_cdf(v, 0.1), "y", [1.0, 3.0, 2.0], []),
    ("Dataset.x_ordered", lambda v: Dataset("shuffled", v, [1.0, 3.0, 2.0]), "x_ordered", X3,
     [[0.5, 0.1, 0.9], [-5e-324, 0.5, 0.9], [0.1, 0.5, 1.0000000000000002]]),
    ("Dataset.y", lambda v: Dataset("unlinked", X3, v), "y", [1.0, 3.0, 2.0], [[1.0, 2.0]]),
    # a point outside [0, 1] is refused by mhat and m0 (tests/test_experiments.py)
    ("risk_empirical.xs", lambda v: risk_empirical(STEP, LinkSpec("identity"), v), "xs", [0.9, 0.1, 0.5], []),
]


@pytest.mark.parametrize(
    "call, name, value",
    [
        pytest.param(call, name, v, id=_id(arg, v))
        for arg, call, name, taken, refused in ARRAYS
        for v in not_arrays(taken) + refused
    ],
)
def test_array_refused_by_name(call, name, value):
    with pytest.raises(ValueError) as info:
        call(value)
    assert str(info.value).startswith(name + " "), str(info.value)
    try:
        array = np.array(value)
    except ValueError:  # a ragged nesting has no array form
        return
    if array.dtype == np.float64:  # a float64 array from outside is refused alike
        with pytest.raises(ValueError) as info:
            call(array)
        assert str(info.value).startswith(name + " "), str(info.value)


@pytest.mark.parametrize("call, value", [pytest.param(call, v, id=arg) for arg, call, _, v, _ in ARRAYS])
def test_array_taken(call, value):
    call(value)
    call(np.array(value))


def _oracle_refuses(a, order, within):
    """Whether ``check_array`` must refuse ``a``, read off numpy directly."""
    if a.dtype.kind not in "iuf" or a.ndim != 1 or a.size == 0:
        return True
    f = a.astype(float)
    if not np.isfinite(f).all():
        return True
    if order is not None:
        steps = np.diff(f)
        if np.any(steps < 0) or (order == "increasing" and np.any(steps == 0)):
            return True
    if within is not None:
        return bool(np.any(f[[0, -1]] < within[0]) or np.any(f[[0, -1]] > within[1]))
    return False


_DTYPES = st.sampled_from([np.float64, np.float32, np.int64, np.uint8, np.bool_, np.complex128, "U3", object])


@given(
    dtype=_DTYPES,
    shape=hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=5),
    order=st.sampled_from([None, "nondecreasing", "increasing"]),
    within=st.sampled_from([None, (0.0, 1.0), (-2.0, 2.0)]),
    data=st.data(),
)
def test_check_array_refuses_exactly_what_numpy_says(dtype, shape, order, within, data):
    if dtype is object:
        a = np.full(shape, None, dtype=object)
    else:
        elements = st.floats(-3.0, 3.0) | st.sampled_from([math.nan, math.inf, -math.inf, 0.0, 1.0])
        a = data.draw(hnp.arrays(dtype, shape, elements=elements if np.dtype(dtype).kind in "fc" else None))
    if order is None:
        within = None  # a range is held to the end entries of an ordered array
    refused = _oracle_refuses(a, order, within)
    try:
        out = check_array(a, "a", order=order, within=within)
    except ValueError as exc:
        assert refused and str(exc).startswith("a must be a 1-d array"), str(exc)
    else:
        assert not refused and out.dtype == np.float64 and np.array_equal(out, a)
        assert (out is a) == (a.dtype == np.float64)  # float64 comes back uncopied


ARRAY_OF = "must be a 1-d array of 1 or more finite real numbers"


# check_points's messages are pinned in full by its hypothesis test below
@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: check_real(0.0, "h", above=0.0), "h must be a finite real number > 0, got 0.0"),
        (lambda: check_integer(100.9, "n", least=2), "n must be an integer >= 2, got 100.9"),
        (lambda: check_array([], "xs"), "xs %s, got 0 entries" % ARRAY_OF),
        (lambda: check_array([[0.5]], "y"), "y %s, got 2 dimensions" % ARRAY_OF),
        (lambda: check_array(["0.5"], "y"), "y %s, got dtype <U3" % ARRAY_OF),
        (lambda: check_array([0.2, -math.inf], "raw"), "raw %s, got -inf at index 1" % ARRAY_OF),
        (lambda: check_array([0.2, 0.2], "knots", order="increasing", within=(0.0, 1.0)),
         "knots %s, increasing, in [0, 1], got 0.2 at index 1" % ARRAY_OF),
    ],
    ids=["real", "integer", "array-empty", "array-2d", "array-text", "array-inf", "array-order-range"],
)
def test_each_check_says_what_it_got_in_full(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_refused_stepfn_to_csv_leaves_no_file(tmp_path):
    # each preamble value is checked before the file is opened
    for key, bad in (("n", 2.5), ("sigma", math.nan), ("eta", -1.0), ("projected", 1)):
        with pytest.raises(ValueError, match="^%s " % key):
            stepfn_to_csv(STEP, tmp_path / "fit.csv", **{**FIT_META, key: bad})
    assert list(tmp_path.iterdir()) == []


def _points_oracle(a, within, open):
    """What ``check_points`` must say it got when it refuses ``a``, or None if it takes it, entry by entry in Python."""
    if a.dtype.kind not in "iuf":
        return "dtype %s" % a.dtype
    lo, hi = within
    for i, v in enumerate(map(float, a.flat)):
        if not (lo < v < hi if open else lo <= v <= hi):
            return "%r at index %d" % (v, i)
    return None


@given(
    dtype=_DTYPES,
    shape=hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
    within=st.sampled_from([(0.0, 1.0), (-2.0, 2.0), (-math.inf, math.inf), (0.0, math.inf)]),
    open=st.booleans(),
    data=st.data(),
)
def test_check_points_refuses_exactly_each_entry_out_of_its_interval(dtype, shape, within, open, data):
    if dtype is object:
        a = np.full(shape, None, dtype=object)
    else:
        elements = st.floats(-3.0, 3.0) | st.sampled_from([math.nan, math.inf, -math.inf, 0.0, 1.0])
        a = data.draw(hnp.arrays(dtype, shape, elements=elements if np.dtype(dtype).kind in "fc" else None))
    got = _points_oracle(a, within, open)
    interval = ("(%g, %g)" if open else "[%g, %g]") % within
    try:
        out = check_points(a, "a", within, open=open)
    except ValueError as exc:
        assert str(exc) == "a must be real numbers in %s, got %s" % (interval, got)
    else:
        assert got is None and out.dtype == np.float64 and out.shape == a.shape and np.array_equal(out, a)
        assert (out is a) == (a.dtype == np.float64)  # float64 comes back uncopied


def test_check_array_range_needs_an_order():
    with pytest.raises(TypeError, match="^within is held to the end entries, so it needs an order$"):
        check_array([0.5], "a", within=(0.0, 1.0))


# why each exported callable without a row above needs none
EXEMPT = {
    "NoiseSpec": "takes no arguments",
    "FitResult": "a record the fits build from checked values",
    "ConjectureRow": "a record conjecture_sweep builds",
    "RiskRecord": "a record rate_sweep builds from checked values",
    "w1_empirical": "takes two EmpiricalMeasure, checked when built",
    "w1_cdf_area": "takes two EmpiricalMeasure, checked when built",
    "parse_spec": "a refusal quotes the text, then the class's own row",
    "risk_population": "takes a fit and a LinkSpec, both checked when built",
    "dataset_to_csv": "writes a Dataset, checked when built",
    "dataset_from_csv": "a refusal names the file, then Dataset's row (tests/test_synth.py)",
    "write_table": "a refusal names the file (tests/test_csvio.py)",
    "read_chunks": "a refusal names the file and line (tests/test_csvio.py)",
    "read_columns": "a refusal names the file and line (tests/test_csvio.py)",
    "main": "the command line, whose options reach the rows above (tests/test_cli.py)",
    "run": "the command line, whose options reach the rows above (tests/test_cli.py)",
    "write_records": "writes records built from checked values",
    "render_plot": "draws records built from checked values",
}


def test_every_exported_callable_has_a_row_or_a_reason():
    rows = {arg.split(".")[0] for arg, *_ in ARGS + ARRAYS}
    exported = set()
    for info in pkgutil.iter_modules(monofit.__path__):
        mod = importlib.import_module("monofit." + info.name)
        exported |= {name for name in mod.__all__ if callable(getattr(mod, name))}
    assert sorted(exported - rows - set(EXEMPT)) == []
    assert sorted(set(EXEMPT) - exported) == [] and sorted(set(EXEMPT) & rows) == []
