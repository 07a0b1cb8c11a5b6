"""
One-dimensional transport distances
===================================

Empirical and tabulated distributions, quantiles, and the two equivalent
ways of computing the W1 distance on the line.
"""

import numpy as np
from scipy.stats import norm

from monofit.dist1d import (
    EmpiricalMeasure,
    GridSpec,
    TabulatedDistribution,
    w1_cdf_area,
    w1_empirical,
    w1_tabulated,
)
from monofit.synth import rng_stream

rng = rng_stream(0, "demo-w1")

# Two small samples.  W1 between empirical measures is the mean absolute
# difference of matched quantiles, and works for unequal sizes.
a = EmpiricalMeasure.from_sample(rng.normal(0.0, 1.0, 200))
b = EmpiricalMeasure.from_sample(rng.normal(0.5, 1.2, 300))
print("W1(a, b)  quantile coupling :", w1_empirical(a, b))
print("W1(a, b)  CDF area          :", w1_cdf_area(a, b))

# Quantiles come from the left-continuous inverse of the CDF.
print("median of a                 :", np.quantile(a.atoms, 0.5, method="inverted_cdf"))
print("90th percentile of b        :", np.quantile(b.atoms, 0.9, method="inverted_cdf"))

# Smooth laws are handled through tabulated CDFs on a grid.  A Gaussian
# against its shift: the distance equals the shift exactly.
grid = GridSpec(-8.0, 8.3, 2**14)
base = TabulatedDistribution.from_callable(norm.cdf, grid)
shifted = TabulatedDistribution.from_callable(lambda x: norm.cdf(x - 0.3), grid)
print("W1(N(0,1), N(0.3,1))        :", w1_tabulated(base, shifted), "(exact 0.3)")
