"""The checks of a number, an array or points from outside, the package's bottom layer.

A check returns the value or raises a ValueError that starts with the
argument's name, says what it must be, and ends with ``got`` and what it was.
"""

import math

import numpy as np

__all__ = ["check_sigma", "check_integer", "check_real", "check_array", "check_points"]


def check_sigma(value):
    """A noise scale: :func:`check_real` with the bound ``least=0``."""
    return check_real(value, "sigma", least=0.0)


def check_integer(value, name, least=None):
    """``value`` as an int; ValueError naming ``name`` unless it is integral and at least ``least``.

    Integral floats such as 100.0 and numpy integers are taken; 100.7 and
    all that :func:`check_real` refuses (text, a boolean, None, NaN, inf,
    10**400) are refused rather than read as an integer.
    """
    try:
        integral = check_real(value, name).is_integer()
    except ValueError:
        integral = False
    if not integral or (least is not None and value < least):
        bound = "" if least is None else " >= %d" % least
        raise ValueError("%s must be an integer%s, got %r" % (name, bound, value))
    return int(value)


def check_real(value, name, least=None, above=None):
    """``value`` as a finite float, at least ``least`` and above ``above`` where given.

    The one check of a scalar from outside: text, a boolean, None, an int
    past float range, NaN, inf and a value out of bounds are refused with
    a ValueError whose message starts with ``name``.
    """
    try:
        number = math.nan if isinstance(value, (str, bytes, bool, np.bool_)) else float(value)
    except (TypeError, OverflowError):
        number = math.nan
    if not math.isfinite(number) or (least is not None and number < least) or (above is not None and number <= above):
        bound = "" if least is None else " >= %g" % least
        bound += "" if above is None else " > %g" % above
        raise ValueError("%s must be a finite real number%s, got %r" % (name, bound, value))
    return number


# the test that flags entry i + 1 against entry i as out of order
_BROKEN_ORDER = {"nondecreasing": np.less, "increasing": np.less_equal}


def _float_array(value):
    """``value`` as a float64 array, uncopied if it is one; text, bytes, booleans and objects keep their dtype."""
    try:
        array = np.asarray(value)
    except ValueError:  # a ragged nesting: numpy holds it only as objects
        return np.array(None)
    return array.astype(float, copy=False) if array.dtype.kind in "iuf" else array


def check_array(value, name, *, order=None, within=None):
    """``value`` as a 1-d float64 array; ValueError naming ``name`` unless it is fit.

    The one check of an array from outside.  Refused are text, bytes,
    booleans and objects (never read as numbers), a ragged nesting, another
    number of dimensions, an empty array, NaN or ±inf, an array out of
    ``order`` ("nondecreasing" or "increasing"), and, given with an order,
    an array whose end entries leave the closed interval ``within``.  A
    float64 array is returned uncopied.
    """
    if within is not None and order is None:
        raise TypeError("within is held to the end entries, so it needs an order")
    array = _float_array(value)
    if array.dtype != np.float64:
        got = "dtype %s" % array.dtype
    elif array.ndim != 1:
        got = "%d dimensions" % array.ndim
    elif not array.size:
        got = "0 entries"
    else:
        bad = None
        if not np.isfinite(array).all():
            bad = np.argmin(np.isfinite(array))
        elif order is not None:
            broken = _BROKEN_ORDER[order](array[1:], array[:-1])
            bad = np.argmax(broken) + 1 if broken.any() else None
        if bad is None and within is not None:
            bad = next((i for i in (0, array.size - 1) if not within[0] <= array[i] <= within[1]), None)
        if bad is None:
            return array
        got = "%r at index %d" % (float(array[bad]), bad)
    bound = "" if order is None else ", " + order
    bound += "" if within is None else ", in [%g, %g]" % tuple(within)
    raise ValueError("%s must be a 1-d array of 1 or more finite real numbers%s, got %s" % (name, bound, got))


def check_points(value, name, within, *, open=False):
    """``value`` as a float64 array of its own shape, 0-d for a scalar; ValueError naming ``name`` unless fit.

    The one check of evaluation points: refused are what :func:`check_array`
    reads as no numbers and an entry outside the closed interval ``within``
    (the open one if ``open``); NaN lies in none.  Float64 comes back uncopied.
    """
    lo, hi = within
    above, below = (np.greater, np.less) if open else (np.greater_equal, np.less_equal)
    array = _float_array(value)
    if array.dtype != np.float64:
        got = "dtype %s" % array.dtype
    elif not array.size or (above(array.min(), lo) and below(array.max(), hi)):  # a NaN fails both
        return array
    else:
        bad = np.argmin(above(array, lo) & below(array, hi))
        got = "%r at index %d" % (float(array.flat[bad]), bad)
    interval = ("(%g, %g)" if open else "[%g, %g]") % (lo, hi)
    raise ValueError("%s must be real numbers in %s, got %s" % (name, interval, got))
