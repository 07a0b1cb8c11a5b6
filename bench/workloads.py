"""The four benchmark workloads: inputs, one pass, output checks.

Each workload builds its inputs from the seed, runs one pass through the
public API or the ``monofit`` command in this process, and checks what the
pass wrote.  A check returns the number of items that failed and a list of
problems; ``view`` gives the numbers compared against the stored reference
at the reference seed, and ``perturb`` a damaged copy of the outputs that
the checks must reject (the checker's own self-check).
"""

import contextlib
import copy
import csv
import io
import math
import shutil
from pathlib import Path

import numpy as np

REFERENCE_SEED = 1729

MOMENT_BOUND = 10.0  # FitConfig's M / c_X, with moment order a + 2 = 3
MOMENT_ORDER = 3.0


def _cli(argv):
    """Run ``monofit`` in this process; return (exit code, captured stderr).

    ``cli.run`` is looked up at call time so a traced run goes through the
    tracer's wrapper.
    """
    from monofit import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, err.getvalue().strip()


def _read_table(path):
    """CSV file as (header, list of rows)."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _is_svg(text):
    return text.startswith("<svg") and text.rstrip().endswith("</svg>")


def loglog_slope(ns, values):
    """Least-squares slope of log(mean value per n) against log(n)."""
    ns = np.asarray(ns, dtype=float)
    values = np.asarray(values, dtype=float)
    grid = np.unique(ns)
    means = np.array([values[ns == n].mean() for n in grid])
    return float(np.polyfit(np.log(grid), np.log(means), 1)[0])


def _close(a, b, rtol):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return False
    return bool(np.all(np.abs(a - b) <= rtol * np.maximum(np.abs(a), np.abs(b))))


def compare(reference, view, rtol):
    """Keys of ``view`` that differ from ``reference`` beyond ``rtol``."""
    keys = sorted(set(reference) | set(view))
    return [k for k in keys if k not in reference or k not in view or not _close(reference[k], view[k], rtol)]


class Workload:
    """One named set of inputs; subclasses define a pass and its checks."""

    name = ""
    items = 0  # items per pass, the numerator of items_per_s
    draws = 0  # occupancy draws per pass (conjecture only)

    def __init__(self, seed, work, workers):
        self.seed = int(seed)
        self.work = Path(work)
        self.workers = int(workers)
        self.out = self.work / "out"

    def prepare(self):
        """Build inputs before any timing (default: none)."""

    def setup_code(self):
        """Python source for a fresh interpreter: one minimal call."""
        raise NotImplementedError

    def clear(self):
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)

    def run_pass(self):
        """Run one pass; return an outcome for :meth:`evaluate`."""
        raise NotImplementedError

    def evaluate(self, outcome):
        """(failed items, problems, parsed outputs or None)."""
        raise NotImplementedError

    def check(self, parsed):
        """(failed items, problems) of parsed outputs."""
        raise NotImplementedError

    def view(self, parsed):
        """Numbers compared with the reference, as name -> list."""
        raise NotImplementedError

    def perturb(self, parsed):
        """A copy of ``parsed`` with one defect the checks must catch."""
        raise NotImplementedError


class DeconvSweep(Workload):
    """PRIMARY 4's rate sweep through ``monofit rates``."""

    name = "deconv-sweep"
    items = 150
    N_GRID = "100,316,1000,3162,10000"
    SLOPE_WINDOW = (-0.65, -0.35)

    def setup_code(self):
        return (
            "import monofit.cli as c\n"
            "raise SystemExit(c.run(['rates', '--problem', 'deconv', '--sigma-rule', 'below-root', "
            "'--link', 'affine:4,-2', '--n-grid', '100', '--reps', '1', '--seed', '%d', '--out', 'setup']))\n"
            % self.seed
        )

    def run_pass(self):
        return _cli(
            ["rates", "--problem", "deconv", "--sigma-rule", "below-root", "--link", "affine:4,-2",
             "--n-grid", self.N_GRID, "--reps", "30", "--seed", str(self.seed), "--out", str(self.out)]
        )

    def evaluate(self, outcome):
        code, err = outcome
        if code != 0:
            return self.items, ["monofit rates exited %d: %s" % (code, err)], None
        _, rows = _read_table(self.out / "risks.csv")
        parsed = {
            "n": np.array([float(r[1]) for r in rows]),
            "value": np.array([float(r[5]) for r in rows]),
            "kind": [r[4] for r in rows],
        }
        return self.check(parsed) + (parsed,)

    def check(self, parsed):
        values = parsed["value"]
        if values.size != self.items or set(parsed["kind"]) != {"W1_measure"}:
            return self.items, ["expected %d W1_measure records, got %d" % (self.items, values.size)]
        bad = int(np.count_nonzero(~np.isfinite(values) | (values < 0)))
        if bad:
            return bad, ["%d records not finite and non-negative" % bad]
        slope = loglog_slope(parsed["n"], values)
        lo, hi = self.SLOPE_WINDOW
        if not lo <= slope <= hi:
            return self.items, ["W1-vs-n slope %.4f outside [%g, %g]" % (slope, lo, hi)]
        return 0, []

    def view(self, parsed):
        return {"value": parsed["value"].tolist()}

    def perturb(self, parsed):
        bad = copy.deepcopy(parsed)
        bad["value"][7] = math.nan
        return bad


class ShuffledPopulation(Workload):
    """Shuffled rate sweep with population risk, through the library."""

    name = "shuffled-population"
    N_GRID = (1000, 3162, 10000)
    REPS = 2
    items = len(N_GRID) * REPS
    KINDS = ("empirical_L1", "population_L1")

    def setup_code(self):
        return (
            "import monofit.cli\n"
            "from monofit.experiments import rate_sweep\n"
            "rate_sweep('shuffled', (100,), 'below-root', reps=1, seed=%d, risk_kinds=%r)\n"
            % (self.seed, self.KINDS)
        )

    def clear(self):
        """Nothing is written to disk."""

    def run_pass(self):
        from monofit import experiments

        try:
            return experiments.rate_sweep(
                "shuffled", self.N_GRID, "below-root", reps=self.REPS, seed=self.seed, risk_kinds=self.KINDS
            ), None
        except Exception as exc:  # noqa: BLE001 - a raising pass counts as failed items
            return None, "%s: %s" % (type(exc).__name__, exc)

    def evaluate(self, outcome):
        records, err = outcome
        if records is None:
            return self.items, ["rate_sweep raised %s" % err], None
        parsed = {"value": np.array([float(r.value) for r in records])}
        return self.check(parsed) + (parsed,)

    def check(self, parsed):
        values = parsed["value"]
        if values.size != 2 * self.items:
            return self.items, ["expected %d records, got %d" % (2 * self.items, values.size)]
        bad_pairs = (~np.isfinite(values) | (values < 0)).reshape(self.items, 2).any(axis=1)
        bad = int(np.count_nonzero(bad_pairs))
        return bad, (["%d replications with a non-finite or negative risk" % bad] if bad else [])

    def view(self, parsed):
        return {"value": parsed["value"].tolist()}

    def perturb(self, parsed):
        bad = copy.deepcopy(parsed)
        bad["value"][3] = -1e-3
        return bad


class Conjecture(Workload):
    """The occupancy-product sweep through ``monofit conjecture``."""

    name = "conjecture"
    GRID_POINTS = 12
    REPS = 60
    C_COUNT = 8  # the default C list
    items = GRID_POINTS * REPS
    draws = items
    MEAN_FLOOR = 0.01

    def setup_code(self):
        return (
            "import monofit.cli as c\n"
            "raise SystemExit(c.run(['conjecture', '--grid-points', '1', '--n-min', '100', '--n-max', '100', "
            "'--reps', '1', '--workers', '1', '--seed', '%d', '--out', 'setup']))\n" % self.seed
        )

    def run_pass(self):
        return _cli(
            ["conjecture", "--grid-points", str(self.GRID_POINTS), "--reps", str(self.REPS),
             "--workers", str(self.workers), "--seed", str(self.seed), "--out", str(self.out)]
        )

    def evaluate(self, outcome):
        code, err = outcome
        if code != 0:
            return self.items, ["monofit conjecture exited %d: %s" % (code, err)], None
        _, rows = _read_table(self.out / "conjecture.csv")
        svgs = sorted(self.out.glob("conjecture_C*.svg"))
        parsed = {
            "mean": np.array([float(r[2]) for r in rows]),
            "stderr": np.array([float(r[3]) for r in rows]),
            "svg_ok": [_is_svg(p.read_text(encoding="utf-8")) for p in svgs],
        }
        return self.check(parsed) + (parsed,)

    def check(self, parsed):
        rows = self.GRID_POINTS * self.C_COUNT
        problems = []
        if parsed["mean"].size != rows:
            problems.append("expected %d rows, got %d" % (rows, parsed["mean"].size))
        elif not np.all(parsed["mean"] >= self.MEAN_FLOOR) or not np.all(np.isfinite(parsed["stderr"])):
            problems.append("a mean below %g (min %.6g) or a non-finite stderr" % (self.MEAN_FLOOR, parsed["mean"].min()))
        if len(parsed["svg_ok"]) != self.C_COUNT or not all(parsed["svg_ok"]):
            problems.append("expected %d valid SVG plots" % self.C_COUNT)
        return (self.items if problems else 0), problems

    def view(self, parsed):
        return {"mean": parsed["mean"].tolist(), "stderr": parsed["stderr"].tolist()}

    def perturb(self, parsed):
        bad = copy.deepcopy(parsed)
        bad["mean"][5] = 0.001
        return bad


class Estimate1e5(Workload):
    """Three single fits of n = 1e5 CSV datasets through ``monofit estimate``."""

    name = "estimate-1e5"
    MODES = ("unlinked", "shuffled", "deconv")
    items = len(MODES)
    N = 100_000
    SIGMA = 0.1
    CDF_POINTS = 2**14

    def _csv(self, mode):
        return self.work / ("%s.csv" % mode)

    def prepare(self):
        from monofit.synth import NoiseSpec, affine_link, dataset_to_csv, derive_seed, sample_dataset

        link = affine_link(8.0, -4.0)
        for mode in self.MODES:
            ds = sample_dataset(mode, self.N, link, NoiseSpec(), self.SIGMA, seed=derive_seed(self.seed, "bench", mode))
            dataset_to_csv(ds, self._csv(mode))
        tiny = sample_dataset("unlinked", 100, link, NoiseSpec(), self.SIGMA, seed=derive_seed(self.seed, "bench", "setup"))
        dataset_to_csv(tiny, self.work / "setup.csv")

    def setup_code(self):
        return (
            "import monofit.cli as c\n"
            "raise SystemExit(c.run(['estimate', '--data', 'setup.csv', '--sigma', '%r', '--seed', '%d', "
            "'--out', 'setup']))\n" % (self.SIGMA, self.seed)
        )

    def run_pass(self):
        return [
            _cli(["estimate", "--data", str(self._csv(mode)), "--sigma", repr(self.SIGMA), "--seed", str(self.seed),
                  "--out", str(self.out / mode)])
            for mode in self.MODES
        ]

    def evaluate(self, outcome):
        failed, problems, parsed = 0, [], {}
        for mode, (code, err) in zip(self.MODES, outcome):
            if code != 0:
                failed += 1
                problems.append("estimate %s exited %d: %s" % (mode, code, err))
                continue
            parsed[mode] = self._parse(mode)
            bad = self._check_one(mode, parsed[mode])
            if bad:
                failed += 1
                problems.extend(bad)
        return failed, problems, (parsed if not failed else None)

    def _parse(self, mode):
        if mode == "deconv":
            header, rows = _read_table(self.out / mode / "cdf.csv")
            table = np.array(rows, dtype=float).reshape(-1, 2)
            return {"header": header, "x": table[:, 0], "cdf": table[:, 1]}
        from monofit.regress import stepfn_from_csv

        fit, meta = stepfn_from_csv(self.out / mode / "fit.csv")
        return {"meta": meta, "knot": fit.knots, "value": fit.values}

    def _check_one(self, mode, p):
        if mode == "deconv":
            x, cdf = p["x"], p["cdf"]
            ok = (
                p["header"] == ["x", "cdf"]
                and cdf.size == self.CDF_POINTS
                and np.all(np.diff(x) > 0)
                and np.all(np.isfinite(cdf))
                and np.all(np.diff(cdf) >= 0)
                and cdf[0] >= 0.0 and cdf[0] <= 0.01
                and cdf[-1] >= 0.99 and cdf[-1] <= 1.0
            )
            return [] if ok else ["deconv: cdf.csv is not a valid %d-point CDF table" % self.CDF_POINTS]
        problems = []
        knot, value, meta = p["knot"], p["value"], p["meta"]
        if knot.size != self.N or meta["n"] != self.N:
            return ["%s: expected %d knots" % (mode, self.N)]
        if not (np.all(np.diff(knot) > 0) and knot[0] >= 0.0 and knot[-1] <= 1.0):
            problems.append("%s: knots not increasing inside [0, 1]" % mode)
        if not (np.all(np.isfinite(value)) and np.all(np.diff(value) >= 0)):
            problems.append("%s: values not finite and nondecreasing" % mode)
        moment = float(np.mean(np.abs(value) ** MOMENT_ORDER))
        if not moment <= MOMENT_BOUND * (1.0 + 1e-9):
            problems.append("%s: moment %.6g outside the ball %g" % (mode, moment, MOMENT_BOUND))
        if mode == "unlinked" and not meta["projected"]:
            problems.append("unlinked: moment projection did not fire")
        return problems

    def view(self, parsed):
        out = {}
        for mode in ("unlinked", "shuffled"):
            p = parsed[mode]
            out[mode + ".knot_sample"] = p["knot"][::500].tolist()
            out[mode + ".value_sample"] = p["value"][::500].tolist()
            out[mode + ".sums"] = [float(p["value"].sum()), float(np.abs(p["value"]).sum()), float(p["knot"].sum())]
            out[mode + ".meta"] = [float(p["meta"][k]) for k in ("n", "sigma", "eta", "projected")]
        p = parsed["deconv"]
        out["deconv.x_sample"] = p["x"][::64].tolist()
        out["deconv.cdf_sample"] = p["cdf"][::64].tolist()
        out["deconv.sums"] = [float(p["cdf"].sum()), float(p["x"].sum())]
        return out

    def perturb(self, parsed):
        bad = copy.deepcopy(parsed)
        v = bad["unlinked"]["value"]
        v[100], v[101] = v[101] + 1.0, v[100]
        return bad

    def check(self, parsed):
        problems = [self._check_one(mode, parsed[mode]) for mode in self.MODES]
        return sum(1 for p in problems if p), [msg for p in problems for msg in p]


WORKLOADS = {w.name: w for w in (DeconvSweep, ShuffledPopulation, Conjecture, Estimate1e5)}
