"""Outside-in span tracer for the monofit benchmark.

The program carries no tracing of its own, so this module wraps selected
public functions from outside: each target is replaced by a timing wrapper
in its defining module and at every ``monofit`` module that imported it by
name (``regress`` and ``experiments`` both hold their own reference to
``deconv.deconvolve_cdf``, for example).  Spans stay in memory until the
run ends.  Calls are single-threaded, so a stack gives each span its parent.
"""

import importlib
import inspect
import json
import os
import sys
import time

import numpy as np

# (module, qualified name) of every wrapped function; a dotted name is a
# classmethod.  These are the layers the benchmark reports on.
TARGETS = (
    ("dist1d", "EmpiricalMeasure.from_sample"),
    ("dist1d", "quantile"),
    ("dist1d", "w1_tabulated"),
    ("synth", "sample_dataset"),
    ("synth", "link_cdf"),
    ("synth", "dataset_from_csv"),
    ("deconv", "select_bandwidth"),
    ("deconv", "deconvolve_cdf"),
    ("regress", "project_moment"),
    ("regress", "fit_shuffled"),
    ("regress", "fit_unlinked"),
    ("regress", "stepfn_to_csv"),
    ("experiments", "conjecture_product"),
    ("experiments", "conjecture_sweep"),
    ("experiments", "risk_empirical"),
    ("experiments", "risk_population"),
    ("experiments", "rate_sweep"),
    ("cli", "write_records"),
    ("cli", "render_plot"),
    ("cli", "run"),
)


def _deconv_call(args, result):
    """(sample size, frequency points, bandwidth in grid steps)."""
    return args["ys"].n, float(args["freq_points"]), args["h"] / args["grid"].step


def _noise_branch(args, result):
    # the sampling-limited branch returns exactly n^(-1/2)
    return float(result != 1.0 / np.sqrt(int(args["n"])))


def _projection_active(args, result):
    return float(not np.array_equal(result, np.asarray(args["values"], dtype=float)))


def _risk_pieces(args, result):
    """(cells between distinct knots of the fit, ends included; knot count)."""
    knots = args["mhat"].knots
    return np.unique(np.concatenate(([0.0, 1.0], knots))).size - 1, knots.size


def _file_bytes(args, result):
    return os.path.getsize(args["path"])


def _rows(args, result):
    return result.n


# What a span keeps from its call.  A wrapper only stores the raw arguments
# and result; Tracer.settle reduces them to these figures between passes,
# outside every span and pass timing.
_CAPTURE = {
    "deconv.deconvolve_cdf": _deconv_call,
    "deconv.select_bandwidth": _noise_branch,
    "regress.project_moment": _projection_active,
    "experiments.risk_population": _risk_pieces,
    "regress.stepfn_to_csv": _file_bytes,
    "synth.dataset_from_csv": _rows,
}


class Tracer:
    """Records spans around the calls into the wrapped functions.

    A span is ``[name, start, end, parent index, pass id, capture]``.
    Use as a context manager: entering installs the wrappers, leaving
    restores every original binding.  A target the program no longer has
    is listed in ``missing`` and its metrics read zero.
    """

    def __init__(self):
        self.spans = []
        self.pass_id = 0
        self.missing = []
        self._stack = []
        self._restore = []
        self._signatures = {}
        self._settled = 0

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        self._signatures[name] = inspect.signature(fn)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.pass_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            span[5] = (args, kwargs, result)
            return result

        return wrapper

    def settle(self):
        """Reduce the raw calls of the spans recorded since the last settle.

        Call it between passes, while the pass's output files still exist.
        Each span keeps only its ``_CAPTURE`` figures, so the arguments and
        results of one pass are released before the next.
        """
        for span in self.spans[self._settled:]:
            capture = _CAPTURE.get(span[0])
            if capture is not None and span[5] is not None:
                args, kwargs, result = span[5]
                bound = self._signatures[span[0]].bind(*args, **kwargs)
                bound.apply_defaults()
                span[5] = capture(bound.arguments, result)
            else:
                span[5] = None
        self._settled = len(self.spans)

    def __enter__(self):
        modules = [m for key, m in sys.modules.items() if key == "monofit" or key.startswith("monofit.")]
        for mod_name, qual in TARGETS:
            mod = importlib.import_module("monofit." + mod_name)
            name = "%s.%s" % (mod_name, qual)
            owner_name, _, attr = qual.rpartition(".")
            if owner_name:
                cls = getattr(mod, owner_name, None)
                original = vars(cls).get(attr) if cls is not None else None
                if not isinstance(original, classmethod):
                    self.missing.append(name)
                    continue
                setattr(cls, attr, classmethod(self._wrap(name, original.__func__)))
                self._restore.append((cls, attr, original))
                continue
            original = getattr(mod, attr, None)
            if not callable(original):
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
                        self._restore.append((m, key, original))
        return self

    def __exit__(self, *exc):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()
        return False

    def calibrate(self, calls=20000):
        """Seconds one wrapped call adds over a bare call."""

        def noop():
            return None

        wrapped = self._wrap("trace.calibrate", noop)
        clock = time.perf_counter
        t0 = clock()
        for _ in range(calls):
            noop()
        bare = clock() - t0
        t0 = clock()
        for _ in range(calls):
            wrapped()
        cost = clock() - t0
        del self.spans[len(self.spans) - calls:]
        self._settled = len(self.spans)
        return max(cost - bare, 0.0) / calls

    def self_times(self):
        """Span duration minus the time its direct children cover, per span."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        return [s[2] - s[1] - c for s, c in zip(self.spans, child)]

    def dump(self, path):
        """Write the spans as JSON lines with their self time (captures left out)."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (span, self_s) in enumerate(zip(self.spans, self.self_times())):
                name, start, end, parent, pass_id, _ = span
                record = {"id": i, "name": name, "start": start, "end": end, "self_s": self_s, "parent": parent, "pass": pass_id}
                fh.write(json.dumps(record) + "\n")


def _median_or_zero(values):
    return float(np.median(values)) if len(values) else 0.0


def _mean_or_zero(values):
    return float(np.mean(values)) if len(values) else 0.0


def layer_metrics(tracer, pass_walls, span_cost, draws_per_pass):
    """Per-layer metrics of the traced passes, each per pass or per call.

    ``pass_walls`` maps pass id to wall seconds; only spans of those passes
    count.  ``span_cost`` is the calibrated cost of one span in seconds and
    ``draws_per_pass`` the occupancy draws one pass makes.
    """
    passes = len(pass_walls)
    by_name = {}
    for span, self_s in zip(tracer.spans, tracer.self_times()):
        if span[4] in pass_walls:
            by_name.setdefault(span[0], []).append((span, self_s))

    def spans(name):
        return by_name.get(name, [])

    def captured(name):
        """Spans of ``name`` whose call returned, so settle kept its figures."""
        return [span for span, _ in spans(name) if span[5] is not None]

    def duration_ms(span):
        return (span[2] - span[1]) * 1e3

    out = {}
    for mod_name, qual in TARGETS:
        name = "%s.%s" % (mod_name, qual)
        out[name + ".self_s"] = sum(s for _, s in spans(name)) / passes

    deconv = spans("deconv.deconvolve_cdf")
    out["deconv.deconvolve_cdf.calls"] = len(deconv) / passes
    sample_freq = 0.0
    call_ms = {}
    points_per_h = []
    for span in captured("deconv.deconvolve_cdf"):
        n, freq_points, steps = span[5]
        sample_freq += n * freq_points
        call_ms.setdefault(n, []).append(duration_ms(span))
        points_per_h.append(steps)
    deconv_self = sum(s for _, s in deconv)
    out["deconv.deconvolve_cdf.ns_per_sample_freq"] = deconv_self / sample_freq * 1e9 if sample_freq else 0.0
    for n in (100, 10000, 100000):
        out["deconv.deconvolve_cdf.call_ms.n%d" % n] = _median_or_zero(call_ms.get(n, []))
    out["deconv.auto_grid.points_per_h"] = _median_or_zero(points_per_h)
    out["deconv.select_bandwidth.noise_branch_frac"] = _mean_or_zero(
        [span[5] for span in captured("deconv.select_bandwidth")]
    )

    pieces = 0
    risk_ms = []
    for span in captured("experiments.risk_population"):
        pieces += span[5][0]
        if span[5][1] == 10000:
            risk_ms.append(duration_ms(span))
    out["experiments.risk_population.pieces"] = pieces / passes
    out["experiments.risk_population.call_ms.n10000"] = _median_or_zero(risk_ms)

    products = len(spans("experiments.conjecture_product")) / passes
    out["experiments.conjecture_product.calls_per_draw"] = products / draws_per_pass if draws_per_pass else 0.0

    out["regress.project_moment.active_frac"] = _mean_or_zero([span[5] for span in captured("regress.project_moment")])

    reads = captured("synth.dataset_from_csv")
    read_s = sum(span[2] - span[1] for span in reads)
    out["synth.dataset_from_csv.rows_per_s"] = sum(span[5] for span in reads) / read_s if read_s else 0.0
    out["regress.stepfn_to_csv.bytes"] = sum(span[5] for span in captured("regress.stepfn_to_csv")) / passes

    wall = sum(pass_walls.values())
    top = sum(span[2] - span[1] for items in by_name.values() for span, _ in items if span[3] < 0)
    count = sum(len(items) for items in by_name.values())
    out["trace.overhead_frac"] = count * span_cost / wall
    out["trace.unattributed_frac"] = max(wall - top, 0.0) / wall
    return out
