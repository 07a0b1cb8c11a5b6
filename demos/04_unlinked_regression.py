"""
Fitting a monotone link from unpaired samples
=============================================

Harder than the shuffled case: the covariate sample and the response
sample may come from different units, so only the two marginals are
observed.  The fit deconvolves the response law first, then transports
its quantiles onto the sorted covariates.
"""

from monofit.deconv import select_bandwidth
from monofit.experiments import risk_empirical
from monofit.regress import fit_shuffled, fit_unlinked
from monofit.synth import LinkSpec, NoiseSpec, sample_dataset

link = LinkSpec("affine", (2.0, -0.5))  # m0(x) = 2x - 0.5
noise = NoiseSpec()

for sigma in (0.0, 0.1, 0.3):
    ds = sample_dataset("unlinked", 1500, link, noise, sigma, seed=5)
    mhat = fit_unlinked(ds.x_ordered, ds.y, sigma).fit
    h = select_bandwidth(ds.n, sigma)  # the bandwidth the fit deconvolves with
    print(
        "sigma = %.1f  bandwidth h = %.4f  empirical risk = %.4f"
        % (sigma, h, risk_empirical(mhat, link, ds.x_ordered))
    )

# Same data, shuffled-mode fit for contrast: the shuffled observer knows
# the two samples pair up within the same draw, and does better.
sigma = 0.3
shuffled = sample_dataset("shuffled", 1500, link, noise, sigma, seed=5)
ms = fit_shuffled(shuffled.x_ordered, shuffled.y, sigma).fit
print("shuffled fit at same sigma   empirical risk = %.4f"
      % risk_empirical(ms, link, shuffled.x_ordered))
