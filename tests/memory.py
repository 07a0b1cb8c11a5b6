"""Memory budgets for the tests: the traced peak of one call."""

import tracemalloc


def traced_peak(fn, *args):
    """``(fn(*args), peak)``: the call's result and the most bytes it held at once.

    The peak is what :mod:`tracemalloc` saw allocated above the level at the
    call's start, so memory held before the call does not count.  Tracing is
    started for the call and stopped after it, unless it was already on.
    """
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
