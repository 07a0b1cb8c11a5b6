"""Monotone link estimation from shuffled or unlinked one-dimensional samples.

The package groups eight pieces:

- :mod:`monofit.checks` -- the checks that refuse a bad number or array
  from outside by name; it imports no other module of the package.
- :mod:`monofit.dist1d` -- empirical measures, tabulated CDFs, monotone step
  functions, and Wasserstein distances W1/W2.
- :mod:`monofit.synth` -- synthetic data generation: a catalog of monotone
  links, a supersmooth noise model, and the three observation schemes
  (shuffled, unlinked, deconv).
- :mod:`monofit.deconv` -- CDF estimation for a signal observed through
  additive noise, by Fourier inversion with a regime-dependent bandwidth.
- :mod:`monofit.regress` -- the two minimum-contrast link estimators
  (W2 contrast for shuffled data, W1 contrast against the deconvolved
  measure for unlinked data).
- :mod:`monofit.experiments` -- Monte-Carlo harness: occupancy-product
  sweeps, risk evaluation, and rate sweeps with reproducible seeding.
- :mod:`monofit.csvio` -- the one CSV format of every table written or read.
- :mod:`monofit.cli` -- the ``monofit`` command line front end.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
