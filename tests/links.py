"""The default links exercised by the tests, one of each catalog kind."""

from monofit.synth import LinkSpec


def link_catalog(n):
    """One link of each catalog kind, keyed by kind.

    ``n`` fixes the cutoff 0.5 / n of the unbounded-tail member, so n >= 3.
    """
    return {
        "identity": LinkSpec("identity"),
        "affine": LinkSpec("affine", (2.0, -0.5)),
        "cube": LinkSpec("cube"),
        "step": LinkSpec("step", (-1.0, -0.25, 0.25, 1.0)),
        "unbounded-tail": LinkSpec("unbounded-tail", (0.5, 1.0, 0.5, n)),
    }
