"""The refusal table: each scalar argument bounded by ``synth.check_real`` or
``synth.check_integer``, the values it must refuse and the edge values it
must still take.

A row is one argument: a call with every other argument valid, the name its
refusal starts with, the values it refuses and the values it takes.  Every
number-valued argument refuses NaN, inf, a boolean, text and None
(``NOT_NUMBERS``), then the first values past its bound.
"""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest

from monofit.deconv import GridSpec, auto_grid, deconvolve_cdf, select_bandwidth
from monofit.dist1d import EmpiricalMeasure, TabulatedDistribution
from monofit.experiments import (
    ConjectureConfig,
    SigmaRule,
    conjecture_product,
    conjecture_sweep,
    fit_loglog_slope,
    rate_sweep,
)
from monofit.regress import project_moment, stepfn_from_csv
from monofit.synth import Dataset, LinkSpec, NoiseSpec, check_sigma, sample_dataset

NOT_NUMBERS = [math.nan, math.inf, True, "1", None]
BELOW_ZERO = -5e-324  # the first float below a bound of 0
YS = EmpiricalMeasure(np.array([0.0, 1.0]))
GRID = auto_grid(YS, 0.0)
SMALL = ConjectureConfig(n_min=100, n_max=100, grid_points=1, reps=1, C_list=(1.0,))


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


# (argument, call with the value in its place, name the refusal starts with, refused, taken)
ARGS = [
    ("check_sigma", check_sigma, "sigma", NOT_NUMBERS + [BELOW_ZERO], [0.0]),
    ("Dataset.sigma", lambda v: Dataset("deconv", None, [1.0, 2.0], v), "sigma", NOT_NUMBERS + [BELOW_ZERO], [0.0]),
    ("sample_dataset.n", lambda v: sample_dataset("deconv", v, LinkSpec("identity"), NoiseSpec(), 0.1, 1), "n",
     NOT_NUMBERS + [0, 2.5], [1]),
    ("sample_dataset.sigma", lambda v: sample_dataset("deconv", 10, LinkSpec("identity"), NoiseSpec(), v, 1),
     "sigma", NOT_NUMBERS + [BELOW_ZERO], [0.0]),
    ("LinkSpec.params", lambda v: LinkSpec("affine", v), "LinkSpec params", NOT_NUMBERS + [2.0, "12"], [[1.0, 0.0]]),
    ("LinkSpec.slope", lambda v: LinkSpec("affine", (v, 0.0)), "slope", NOT_NUMBERS + [BELOW_ZERO], [0.0]),
    ("LinkSpec.offset", lambda v: LinkSpec("affine", (1.0, v)), "offset", NOT_NUMBERS, []),
    ("LinkSpec.level", lambda v: LinkSpec("step", (-1.0, v)), "level", NOT_NUMBERS, []),
    ("LinkSpec.eps", lambda v: LinkSpec("unbounded-tail", (v, 1.0, 0.1, 100)), "eps", NOT_NUMBERS + [0.0], []),
    ("LinkSpec.a", lambda v: LinkSpec("unbounded-tail", (0.5, v, 0.1, 100)), "a", NOT_NUMBERS + [0.0], []),
    ("LinkSpec.tail_scale", lambda v: LinkSpec("unbounded-tail", (0.5, 1.0, v, 100)), "tail_scale",
     NOT_NUMBERS + [0.0], []),
    ("LinkSpec.n", lambda v: LinkSpec("unbounded-tail", (0.5, 1.0, 0.1, v)), "n", NOT_NUMBERS + [0, 100.5], [1]),
    ("SigmaRule.params", lambda v: SigmaRule("constant", v), "SigmaRule params", NOT_NUMBERS + [0.7], [(0.7,)]),
    ("SigmaRule.constant", lambda v: SigmaRule("constant", (v,)), "constant rule parameter", NOT_NUMBERS + [0.0], []),
    ("SigmaRule.power", lambda v: SigmaRule("power", (v,)), "power rule parameter", NOT_NUMBERS + [0.0], []),
    ("GridSpec.lo", lambda v: GridSpec(v, 2.0, 4), "lo", NOT_NUMBERS, []),
    ("GridSpec.hi", lambda v: GridSpec(0.0, v, 4), "hi", NOT_NUMBERS, []),
    ("GridSpec.points", lambda v: GridSpec(0.0, 1.0, v), "points", NOT_NUMBERS + [1, 2.5], [2]),
    ("select_bandwidth.n", lambda v: select_bandwidth(v, 0.0), "n", NOT_NUMBERS + [1, 2.5], [2]),
    ("select_bandwidth.sigma", lambda v: select_bandwidth(100, v), "sigma", NOT_NUMBERS + [BELOW_ZERO], [0.0]),
    ("deconvolve_cdf.h", lambda v: deconvolve_cdf(YS, 0.0, v, GRID), "h", NOT_NUMBERS + [0.0, 1.0000000000000002],
     [1.0]),
    ("deconvolve_cdf.freq_points", lambda v: deconvolve_cdf(YS, 0.0, 0.5, GRID, freq_points=v), "freq_points",
     NOT_NUMBERS + [1, 4096.5], []),
    ("deconvolve_cdf.sigma", lambda v: deconvolve_cdf(YS, v, 0.5, GRID), "sigma", NOT_NUMBERS + [BELOW_ZERO], [0.0]),
    ("TabulatedDistribution.grid_lo", lambda v: TabulatedDistribution(v, 1.0, [0.0, 1.0]), "grid_lo",
     NOT_NUMBERS + ["-1"], []),
    ("TabulatedDistribution.grid_hi", lambda v: TabulatedDistribution(0.0, v, [0.0, 1.0]), "grid_hi", NOT_NUMBERS,
     []),
    ("project_moment.p", lambda v: project_moment([1.0, 2.0], 10.0, v), "p", NOT_NUMBERS + [0.0, "3"], []),
    ("project_moment.bound", lambda v: project_moment([1.0, 2.0], v, 3.0), "bound", NOT_NUMBERS + [BELOW_ZERO, "10"],
     [0.0]),
    ("stepfn_from_csv.n", _stepfn_meta("n"), "n", ["nan", "inf", "0", "2.5"], ["1"]),
    ("stepfn_from_csv.sigma", _stepfn_meta("sigma"), "sigma", ["nan", "inf", "-5e-324"], ["0"]),
    ("stepfn_from_csv.eta", _stepfn_meta("eta"), "eta", ["nan", "inf", "-5e-324"], ["0"]),
    ("ConjectureConfig.n_min", lambda v: ConjectureConfig(n_min=v), "n_min", NOT_NUMBERS + [0, 2.5], [1]),
    ("ConjectureConfig.n_max", lambda v: ConjectureConfig(n_min=100, n_max=v), "n_max", NOT_NUMBERS + [99], [100]),
    ("ConjectureConfig.grid_points", lambda v: ConjectureConfig(grid_points=v), "grid_points",
     NOT_NUMBERS + [0, 2.5], [1]),
    ("ConjectureConfig.reps", lambda v: ConjectureConfig(reps=v), "reps", NOT_NUMBERS + [0, 2.5], [1]),
    ("ConjectureConfig.c", lambda v: ConjectureConfig(c=v), "c", NOT_NUMBERS + [0.0], []),
    ("ConjectureConfig.C", lambda v: ConjectureConfig(C_list=(1.0, v)), "C", NOT_NUMBERS + [0.0], []),
    ("conjecture_sweep.workers", lambda v: conjecture_sweep(SMALL, workers=v), "workers", NOT_NUMBERS + [0, 2.5],
     [1]),
    ("conjecture_product.n", lambda v: conjecture_product([50, 50], v, 1.0, 1.0), "n", NOT_NUMBERS + [0], []),
    ("conjecture_product.c", lambda v: conjecture_product([50, 50], 100, 1.0, v), "c", NOT_NUMBERS + [0.0], []),
    # C is a scalar or a 1-d sequence, each entry checked on its own
    ("conjecture_product.C", lambda v: conjecture_product([50, 50], 100, v, 1.0), "C",
     NOT_NUMBERS + [-math.inf, [1.0, math.nan], ["2", True], [[1.0]]], [0.0, [0.0, 1.0]]),
    ("rate_sweep.n", lambda v: rate_sweep("shuffled", (100, v), "below-root", 1, 1), "n", NOT_NUMBERS + [0, 2.5],
     []),
    ("rate_sweep.reps", lambda v: rate_sweep("shuffled", (100,), "below-root", v, 1), "reps", NOT_NUMBERS + [0, 2.5],
     []),
    ("fit_loglog_slope.n", lambda v: fit_loglog_slope([(v, 1.0), (10, 2.0)]), "n", NOT_NUMBERS + [0.0], []),
    ("fit_loglog_slope.value", lambda v: fit_loglog_slope([(1, v), (10, 2.0)]), "value", NOT_NUMBERS + [0.0],
     [5e-324]),
]


@pytest.mark.parametrize(
    "call, name, value",
    [pytest.param(call, name, v, id="%s=%r" % (arg, v)) for arg, call, name, refused, _ in ARGS for v in refused],
)
def test_refused_by_name(call, name, value):
    with pytest.raises(ValueError) as info:
        call(value)
    assert str(info.value).startswith(name + " "), str(info.value)


@pytest.mark.parametrize(
    "call, value", [pytest.param(call, v, id="%s=%r" % (arg, v)) for arg, call, _, _, taken in ARGS for v in taken]
)
def test_edge_value_taken(call, value):
    call(value)
