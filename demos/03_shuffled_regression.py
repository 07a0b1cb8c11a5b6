"""
Fitting a monotone link from shuffled pairs
===========================================

The responses y_i = m0(x_j) + sigma * e_i arrive without their pairing to
the sorted covariates.  Sorting the responses and reading them off against
the sorted design recovers m0 exactly when sigma = 0, and degrades
gracefully as sigma grows.
"""

from monofit.experiments import risk_empirical, risk_population
from monofit.regress import fit_shuffled
from monofit.synth import LinkSpec, NoiseSpec, sample_dataset

link = LinkSpec("cube")  # m0(x) = x^3 on [0, 1]
noise = NoiseSpec()

# Zero noise: exact recovery at every design point.
ds = sample_dataset("shuffled", 500, link, noise, 0.0, seed=11)
mhat = fit_shuffled(ds.x_ordered, ds.y, 0.0).fit
print("sigma = 0.00  empirical risk :", risk_empirical(mhat, link, ds.x_ordered))

# Growing noise: the design-point risk follows.
for sigma in (0.05, 0.2, 0.5):
    ds = sample_dataset("shuffled", 500, link, noise, sigma, seed=11)
    res = fit_shuffled(ds.x_ordered, ds.y, sigma)
    mhat = res.fit
    print(
        "sigma = %.2f  empirical risk : %.4f   population risk : %.4f   projected: %s"
        % (
            sigma,
            risk_empirical(mhat, link, ds.x_ordered),
            risk_population(mhat, link),
            res.projected,
        )
    )

# The fitted object is a left-continuous step function.
print("mhat(0.5) =", mhat(0.5), "  true m0(0.5) = 0.125")
