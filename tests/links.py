"""The default links exercised by the tests, one of each catalog kind."""

from monofit.synth import affine_link, cube_link, identity_link, step_link, unbounded_tail_link


def link_catalog(n):
    """One link of each catalog kind, keyed by kind.

    ``n`` fixes the cutoff 0.5 / n of the unbounded-tail member, so n >= 3.
    """
    return {
        "identity": identity_link(),
        "affine": affine_link(2.0, -0.5),
        "cube": cube_link(),
        "step": step_link((-1.0, -0.25, 0.25, 1.0)),
        "unbounded_tail": unbounded_tail_link(0.5, 1.0, 0.5, n),
    }
