"""Synthetic data generation: link catalog, noise model, observation schemes.

The observation model throughout is ``Y = m0(X) + sigma * delta`` with
``X ~ Uniform[0, 1]`` and ``delta`` centered with unit variance.  Three
schemes expose different parts of a draw:

- ``shuffled``: one sample of pairs, but the y side is returned in an order
  independent of x (uniformly permuted);
- ``unlinked``: the x sample and the y sample come from disjoint draws of
  equal size;
- ``deconv``: only the y sample is exposed.

All randomness flows through :func:`rng_stream`, which derives independent,
platform-stable generators from ``(seed, purpose tags)``.  Generation is a
pure function of its arguments: the same seed gives bit-identical output.
"""

import math
import zlib
from dataclasses import dataclass

import numpy as np

from .checks import check_array, check_integer, check_points, check_real, check_sigma
from .csvio import read_chunks, write_table

__all__ = [
    "NoiseSpec",
    "LinkSpec",
    "Dataset",
    "parse_spec",
    "rng_stream",
    "derive_seed",
    "noise_charfn",
    "link_cdf",
    "affine_link",
    "sample_dataset",
    "dataset_to_csv",
    "dataset_from_csv",
]


def _seed_words(seed, *tags):
    words = [check_integer(seed, "seed") & 0xFFFFFFFFFFFFFFFF]
    for tag in tags:
        if isinstance(tag, str):
            words.append(zlib.crc32(tag.encode("utf-8")))
        else:
            words.append(int(tag) & 0xFFFFFFFFFFFFFFFF)
    return words


def rng_stream(seed, *tags):
    """Dedicated generator for one purpose: key = (seed, tags).

    Tags may be strings (hashed with crc32, stable across platforms) or
    integers.  Streams with different keys are statistically independent.
    """
    return np.random.default_rng(np.random.SeedSequence(_seed_words(seed, *tags)))


def derive_seed(seed, *tags):
    """Collapse (seed, tags) into a single 64-bit child seed."""
    ss = np.random.SeedSequence(_seed_words(seed, *tags))
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class NoiseSpec:
    """The standard Gaussian noise; it has no fields, so no other family can be asked for."""


def _float_list(text):
    return tuple(float(v) for v in text.split(",") if v.strip() != "")


def parse_spec(cls, text):
    """``cls(kind, params)`` from the text ``kind`` or ``kind:p1,p2,...``.

    It reads ``--link`` (a LinkSpec) and ``--sigma-rule`` (a SigmaRule); a refusal quotes ``text``.
    """
    kind, _, arg = text.strip().partition(":")
    try:
        return cls(kind.strip(), _float_list(arg))
    except ValueError as exc:
        raise ValueError("%s %r: %s" % (cls.__name__, text, exc)) from None


def noise_charfn(t):
    """Characteristic function exp(-t^2/2) of the Gaussian noise at t."""
    t_arr = check_points(t, "t", (-math.inf, math.inf))
    out = np.exp(-0.5 * t_arr * t_arr)
    return out if t_arr.ndim else float(out)


# each link kind's parameters, in the order ``LinkSpec.params`` holds them,
# with the bounds :func:`check_real` applies to each; step (None) takes one
# or more levels, and the tail's n must also be an integer
_POSITIVE = {"above": 0.0}
_LINK_PARAMS = {
    "identity": (),
    "affine": (("slope", {"least": 0.0}), ("offset", {})),
    "cube": (),
    "step": None,
    "unbounded-tail": (("eps", _POSITIVE), ("a", _POSITIVE), ("tail_scale", _POSITIVE), ("n", {"least": 1})),
}


def _spec_params(spec):
    """``spec.params`` as a tuple; ValueError naming the class unless it is a tuple or list.

    A LinkSpec or SigmaRule takes its parameters as a sequence, so a scalar
    or a string in its place is refused rather than iterated.
    """
    if not isinstance(spec.params, (tuple, list)):
        raise ValueError("%s params must be a tuple or list, got %r" % (type(spec).__name__, spec.params))
    return tuple(spec.params)


@dataclass(frozen=True)
class LinkSpec:
    """A nondecreasing, left-continuous link on [0, 1] from a small catalog.

    ``params`` is a tuple or list of the kind's parameters in the order
    ``_LINK_PARAMS`` names them; any other count is refused.

    - ``identity``        m(x) = x
    - ``affine``          m(x) = slope * x + offset, slope >= 0
    - ``cube``            m(x) = x ** 3
    - ``step``            levels[i] on ((i-1)/k, i/k]; levels[0] on [0, 1/k]
    - ``unbounded-tail``  -(x * log^{1+eps}(1/x))^{-1/(a+2)} on (0, cut],
                          0 on (cut, 1], with cut = tail_scale / n for an
                          integer sample size n, below e^{-(1+eps)}, past
                          which it would decrease.
                          Unbounded below near the origin (the origin itself
                          maps to -inf, a probability-zero input under any
                          continuous design), yet its (a+2)-moment under
                          Uniform[0, 1] stays finite.
    """

    kind: str
    params: tuple = ()

    def __post_init__(self):
        if self.kind not in _LINK_PARAMS:
            raise ValueError("unknown link kind: %r" % (self.kind,))
        params = _spec_params(self)
        fields = _LINK_PARAMS[self.kind]
        if fields is None:
            if not params:
                raise ValueError("step link needs at least one level")
            fields = (("level", {}),) * len(params)
        elif len(params) != len(fields):
            raise ValueError("%s takes %d parameters, got %d" % (self.kind, len(fields), len(params)))
        params = tuple(check_real(v, name, **bounds) for v, (name, bounds) in zip(params, fields))
        if self.kind == "step" and any(b < a for a, b in zip(params, params[1:])):
            raise ValueError("step levels must be nondecreasing")
        if self.kind == "unbounded-tail":
            eps, _, tail_scale, n = params
            check_integer(n, "n")
            if not tail_scale / n < math.exp(-(1.0 + eps)):
                raise ValueError("tail cutoff tail_scale / n must stay below exp(-(1 + eps))")
        object.__setattr__(self, "params", params)

    def __call__(self, x):
        """The link at x in [0, 1]; nondecreasing in x."""
        x_arr = check_points(x, "x", (0.0, 1.0))
        out = _link_values(self, x_arr, np.empty_like(x_arr))
        return out if x_arr.ndim else float(out)

    @property
    def cut(self):
        """Tail cutoff tail_scale / n of the unbounded-tail link."""
        _, _, tail_scale, n = self.params
        return tail_scale / n

    @property
    def edges(self):
        """Points of (0, 1) where an integral of the link must be split.

        A step link's interior jumps; for the tail link, halvings of the
        cutoff toward the singular origin; none for the other kinds.
        """
        if self.kind == "step":
            k = len(self.params)
            return np.arange(1, k) / k
        if self.kind == "unbounded-tail":
            return self.cut * 0.5 ** np.arange(50, -1, -1)
        return np.empty(0)


def affine_link(slope, offset):
    """``LinkSpec("affine", (slope, offset))``; kept for the benchmark, which imports it."""
    return LinkSpec("affine", (slope, offset))


def _link_values(spec, x, out):
    """Write the link at ``x`` into ``out`` (same shape) and return ``out``.

    No domain check: every entry of the float array ``x`` must lie in
    [0, 1].  :meth:`LinkSpec.__call__` checks that first; the quadrature of
    ``experiments.risk_population`` builds its nodes inside the domain and
    reuses one ``out`` for all of them.  Each kind runs the same operations
    in the same order either way, so both callers get the same bits.
    """
    if spec.kind == "identity":
        np.copyto(out, x)
    elif spec.kind == "affine":
        slope, offset = spec.params
        np.multiply(x, slope, out=out)
        out += offset
    elif spec.kind == "cube":
        np.power(x, 3, out=out)
    elif spec.kind == "step":
        idx = np.searchsorted(spec.edges, x, side="left")
        np.take(np.asarray(spec.params, dtype=float), idx, out=out)
    else:
        eps, a, _, _ = spec.params
        out.fill(0.0)
        inside = (x > 0.0) & (x <= spec.cut)
        xi = x[inside]
        out[inside] = -((xi * (-np.log(xi)) ** (1.0 + eps)) ** (-1.0 / (a + 2.0)))
        out[x == 0.0] = -np.inf
    return out


def link_cdf(spec, z):
    """CDF of m(X) for X ~ Uniform[0, 1]: Leb{x : m(x) <= z}; z may be ±inf, not NaN."""
    z_arr = np.atleast_1d(check_points(z, "z", (-math.inf, math.inf)))
    if spec.kind == "identity":
        out = np.clip(z_arr, 0.0, 1.0)
    elif spec.kind == "affine":
        slope, offset = spec.params
        if slope == 0.0:
            out = (z_arr >= offset).astype(float)
        else:
            out = np.clip((z_arr - offset) / slope, 0.0, 1.0)
    elif spec.kind == "cube":
        out = np.clip(np.cbrt(z_arr), 0.0, 1.0)
    elif spec.kind == "step":
        levels = np.asarray(spec.params, dtype=float)
        out = np.searchsorted(levels, z_arr, side="right") / levels.size
    else:
        out = _tail_cdf(spec, z_arr)
    return out if np.ndim(z) else float(out[0])


def _tail_cdf(spec, z_arr):
    # For z below the tail's top value m(cut), m(x) <= z iff
    # t + (1 + eps) log(-t) <= -(a + 2) log(-z) in t = log x, and the left
    # side rises for t < log(cut): bisect for the largest such t.  exp(t)
    # underflows to 0 below t = -745, so [-800, log cut] holds every root.
    eps, a, _, _ = spec.params
    tail = z_arr < spec(spec.cut)
    target = -(a + 2.0) * np.log(-z_arr[tail])
    lo = np.full(target.shape, -800.0)
    hi = np.full(target.shape, math.log(spec.cut))
    for _ in range(64):  # 800 / 2^64 is below one ulp of |t| > 1
        mid = 0.5 * (lo + hi)
        below = mid + (1.0 + eps) * np.log(-mid) <= target
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    out = np.where(z_arr >= 0.0, 1.0, spec.cut)
    out[tail] = np.exp(lo)
    return out


_MODES = ("shuffled", "unlinked", "deconv")


@dataclass(frozen=True)
class Dataset:
    """One simulated draw of an observation scheme.

    ``x_ordered`` is the sorted covariate sample (None in deconv mode);
    ``y`` is the response sample in exposure order.
    """

    mode: str
    x_ordered: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError("unknown mode: %r" % (self.mode,))
        object.__setattr__(self, "y", check_array(self.y, "y"))
        if self.mode == "deconv":
            if self.x_ordered is not None:
                raise ValueError("deconv mode carries no covariates")
        else:
            x = check_array(self.x_ordered, "x_ordered", order="nondecreasing", within=(0.0, 1.0))
            if x.size != self.n:
                raise ValueError("y must have the length of x_ordered, %d, got %d" % (x.size, self.n))
            object.__setattr__(self, "x_ordered", x)

    @property
    def n(self):
        return self.y.size


def sample_dataset(mode, n, link, noise, sigma, seed):
    """Draw one dataset; bit-reproducible in (mode, n, link, noise, sigma, seed).

    Stream usage by mode:

    - shuffled: "x" for the covariate draw, "noise" for delta, "perm" for
      the hiding permutation (x and y come from the same units);
    - unlinked: "x" for the observed covariates, "latent" for the hidden
      covariates behind y, "noise" for delta (disjoint draws);
    - deconv: "latent" and "noise" only.

    ``noise`` is a :class:`NoiseSpec`, which is not read: the "noise"
    stream always draws the standard Gaussian.
    """
    if mode not in _MODES:
        raise ValueError("unknown mode: %r" % (mode,))
    n = check_integer(n, "n", least=1)
    sigma = check_sigma(sigma)
    x = None if mode == "deconv" else np.sort(rng_stream(seed, "x").random(n))
    x_latent = x if mode == "shuffled" else rng_stream(seed, "latent").random(n)
    y = link(x_latent) + sigma * rng_stream(seed, "noise").standard_normal(n)
    if mode == "shuffled":
        y = y[rng_stream(seed, "perm").permutation(n)]
    return Dataset(mode, x, y)


def dataset_to_csv(ds, path):
    """Write a dataset as CSV with columns mode, index, x, y."""
    xs = [""] * ds.n if ds.mode == "deconv" else ds.x_ordered
    write_table(path, ("mode", "index", "x", "y"), ([ds.mode] * ds.n, range(ds.n), xs, ds.y))


def _x_cell(text):
    """An x cell's value; deconv datasets leave the cell blank, read as NaN."""
    return float(text) if text else math.nan


# One character wider than the longest mode, so a longer mode cell reads
# back as no known mode instead of being cut to one.
_CSV_COLUMNS = {"mode": "U%d" % (max(map(len, _MODES)) + 1), "index": "U1", "x": float, "y": float}


def dataset_from_csv(path):
    """Read a dataset written by :func:`dataset_to_csv`.

    Refused with a ValueError naming ``path``: a file whose rows do not all
    carry the same mode, and any value that :class:`Dataset` refuses (an x
    that is blank outside deconv mode, NaN, unsorted or outside [0, 1], a
    non-finite y).  The file is read a chunk at a time and only x and y are
    kept, x not at all in deconv mode; the index column is not read back.
    """
    chunks = read_chunks(path, _CSV_COLUMNS, converters={"x": _x_cell})
    next(chunks)  # no preamble is written
    mode, modes, xs, ys = None, set(), [], []
    for chunk in chunks:
        cells = chunk["mode"]
        if mode is None:
            mode = str(cells[0])
        if np.any(cells != mode):
            # read on, so a bad line later in the file is still named first
            modes.update(np.unique(cells).tolist(), (mode,))
        if mode != "deconv":
            xs.append(np.ascontiguousarray(chunk["x"]))
        ys.append(np.ascontiguousarray(chunk["y"]))
    if mode is None or modes:
        raise ValueError("%s: expected a single mode, found %s" % (path, sorted(modes)))
    x = None if mode == "deconv" else np.concatenate(xs)
    del xs  # its parts, before y is joined
    try:
        return Dataset(mode, x, np.concatenate(ys))
    except ValueError as exc:
        where = " (the index counts data rows from 0; a blank cell reads as nan)" if " at index " in str(exc) else ""
        raise ValueError("%s: %s%s" % (path, exc, where)) from None
