"""monofit benchmark: one workload, one run, one JSON result line.

    python3 bench/run.py --workload deconv-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a monofit checkout; the package is imported from its
``src`` directory, and the run fails without printing a result when that is
missing.  ``--trace 0`` measures the end-to-end metrics named in
BENCHMARK.json with no wrappers installed; ``--trace 1`` runs the same
passes through the outside-in tracer (bench/tracer.py) and reports the
per-layer metrics instead.  Every pass's outputs are checked; at the
reference seed they are also compared with bench/reference/ within
``--rtol``.  Work files and the run record (BENCH_<label>.json, plus the
spans of a traced run) go to .bench_out/ in the checkout.  See
bench/NOTES.md.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracer import Tracer, layer_metrics
from workloads import REFERENCE_SEED, WORKLOADS, compare

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 3
SAMPLE_PERIOD_S = 0.02


def load_program():
    """Import monofit from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "monofit" / "__init__.py").is_file():
        raise SystemExit("error: no monofit source at %s; run from a monofit checkout" % src)
    sys.path.insert(0, str(src))
    import monofit.cli  # noqa: F401 - the entry point every workload uses

    if Path(sys.modules["monofit"].__file__).resolve().parent != src / "monofit":
        raise SystemExit("error: imported monofit from outside %s" % src)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


class RssSampler:
    """Peak resident memory of this process plus its direct children.

    A thread reads /proc every SAMPLE_PERIOD_S; the child list is rescanned
    every tenth sample.  Shared pages count once per process that maps them.
    """

    def __init__(self):
        self._page = os.sysconf("SC_PAGE_SIZE")
        self._pid = os.getpid()
        self._children = []
        self._peak = 0
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _rss(self, pid):
        try:
            with open("/proc/%d/statm" % pid, "rb") as fh:
                return int(fh.read().split()[1]) * self._page
        except (OSError, IndexError, ValueError):
            return 0

    def _scan_children(self):
        found = []
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open("/proc/%s/stat" % entry, "rb") as fh:
                    stat = fh.read()
            except OSError:
                continue
            # the command name may hold spaces; ppid is the second field after it
            if int(stat[stat.rindex(b")") + 2:].split()[1]) == self._pid:
                found.append(int(entry))
        self._children = found

    def sample(self):
        total = self._rss(self._pid) + sum(self._rss(pid) for pid in self._children)
        with self._lock:
            self._peak = max(self._peak, total)

    def _loop(self):
        tick = 0
        while not self._stop.wait(SAMPLE_PERIOD_S):
            if tick % 10 == 0:
                self._scan_children()
            tick += 1
            self.sample()

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        return False

    def reset(self):
        with self._lock:
            self._peak = 0
        self.sample()

    def peak_mb(self):
        self.sample()
        with self._lock:
            return self._peak / 2**20


def cpu_seconds():
    """User plus system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def measure_setup(workload):
    """Wall seconds of fresh interpreters importing monofit.cli and making one minimal call."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", workload.setup_code()],
            cwd=workload.work,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            timeout=120,
        )
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            return times, "set-up call exited %d: %s" % (proc.returncode, proc.stderr.decode(errors="replace")[-500:])
    return times, None


class Run:
    """Passes of one workload, with their checks and tallies."""

    def __init__(self, workload, seconds, rtol):
        self.workload = workload
        self.seconds = seconds
        self.rtol = rtol
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.reference = None
        if workload.seed == REFERENCE_SEED:
            with open(BENCH / "reference" / ("seed%d.json" % REFERENCE_SEED), encoding="utf-8") as fh:
                self.reference = json.load(fh)[workload.name]

    def one_pass(self, rss=None):
        """Run and check one pass; return (wall s, CPU s, peak MB or None).

        The peak is taken before the outputs are read back for checking.
        """
        w = self.workload
        w.clear()
        if rss is not None:
            rss.reset()
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        outcome = w.run_pass()
        wall = time.perf_counter() - t0
        cpu = cpu_seconds() - cpu0
        peak = rss.peak_mb() if rss is not None else None
        try:
            failed, problems, parsed = w.evaluate(outcome)
        except (OSError, ValueError, IndexError, KeyError) as exc:
            failed, problems, parsed = w.items, ["unreadable output: %s: %s" % (type(exc).__name__, exc)], None
        if parsed is not None and self.reference is not None:
            differ = compare(self.reference, w.view(parsed), self.rtol)
            if differ:
                failed = w.items
                problems.append("differs from the seed-%d reference beyond rtol %g in %s" % (REFERENCE_SEED, self.rtol, differ))
        if parsed is not None and self.attempted == 0:
            problems.extend(self.self_check(parsed))
        self.attempted += w.items
        self.failed += failed
        self.problems.extend(problems)
        return wall, cpu, peak

    def self_check(self, parsed):
        """The checks must reject a damaged output and a damaged reference."""
        w = self.workload
        out = []
        if w.check(w.perturb(parsed))[0] == 0:
            out.append("self-check: the output check accepted a damaged output")
        view = w.view(parsed)
        key = sorted(view)[0]
        damaged = dict(view, **{key: [v * (1.0 + 1e3 * self.rtol) + 1e-300 for v in view[key]]})
        if compare(view, view, self.rtol) or not compare(view, damaged, self.rtol):
            out.append("self-check: the reference comparison misjudged a damaged output")
        return out

    def loop(self, body):
        """Call body() until the next call would end past the time budget."""
        t0 = time.perf_counter()
        done = 0
        while True:
            body()
            done += 1
            elapsed = time.perf_counter() - t0
            if elapsed + elapsed / done > self.seconds:
                return


def untraced(run, workload):
    walls, cpus, peaks = [], [], []
    setup, setup_error = measure_setup(workload)
    if setup_error:
        run.problems.append(setup_error)
    with RssSampler() as rss:

        def body():
            wall, cpu, peak = run.one_pass(rss)
            peaks.append(peak)
            walls.append(wall)
            cpus.append(cpu)

        run.loop(body)
    samples = {
        "items_per_s": [workload.items / w for w in walls],
        "cpu_s": cpus,
        "peak_rss_mb": peaks,
        "setup_s": setup,
    }
    metrics = {name: quartiles(values)[1] for name, values in samples.items()}
    return metrics, samples, {"pass_wall_s": walls}


def traced(run, workload, nproc, out_dir, label):
    extra = {}
    if workload.draws:
        # conjecture: one untraced pass at full width gives the pool's
        # utilisation and the denominator of the parallel efficiency
        kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        wall = run.one_pass()[0]
        kids = resource.getrusage(resource.RUSAGE_CHILDREN)
        extra = {"untraced_wall_s": wall, "child_cpu_s": kids.ru_utime + kids.ru_stime - kids0.ru_utime - kids0.ru_stime}
    # forked workers cannot report spans, so every traced pass runs serially
    workload.workers = 1
    os.environ["MONOFIT_WORKERS"] = "1"
    walls = {}
    tracer = Tracer()
    with tracer:
        span_cost = tracer.calibrate()

        def body():
            tracer.pass_id += 1
            walls[tracer.pass_id] = run.one_pass()[0]
            tracer.settle()

        run.loop(body)
    metrics = layer_metrics(tracer, walls, span_cost, workload.draws)
    metrics["experiments.conjecture_sweep.worker_util"] = 0.0
    metrics["experiments.conjecture_sweep.parallel_eff"] = 0.0
    if extra:
        width = nproc * extra["untraced_wall_s"]
        metrics["experiments.conjecture_sweep.worker_util"] = extra["child_cpu_s"] / width
        metrics["experiments.conjecture_sweep.parallel_eff"] = statistics.median(walls.values()) / width
    spans_path = out_dir / ("spans_%s.jsonl" % label)
    tracer.dump(spans_path)
    extra.update(
        traced_pass_wall_s=list(walls.values()),
        span_cost_s=span_cost,
        spans_file=spans_path.name,
        missing_targets=tracer.missing,
    )
    return metrics, {k: [v] for k, v in metrics.items()}, extra


def environment(nproc):
    import numpy
    import scipy

    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "monofit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "cores": nproc,
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
    }


def git_commit():
    """HEAD of the checkout if it is a git work tree, else None."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rtol", type=float, default=1e-9, help="tolerance against the stored reference")
    args = parser.parse_args(argv)

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    load_program()

    nproc = len(os.sched_getaffinity(0))
    os.environ["MONOFIT_WORKERS"] = str(nproc)
    label = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    out_dir = ROOT / ".bench_out"
    work = out_dir / "work" / label
    work.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, work, nproc)

    t0 = time.perf_counter()
    workload.prepare()
    input_gen_s = time.perf_counter() - t0

    run = Run(workload, args.seconds, args.rtol)
    if args.trace:
        metrics, samples, extra = traced(run, workload, nproc, out_dir, label)
        names = spec["per_layer"]
    else:
        metrics, samples, extra = untraced(run, workload)
        names = spec["end_to_end"]
    failed_frac = run.failed / run.attempted
    correct = run.failed == 0 and not run.problems
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]} for m in names},
    }

    record = {
        "label": label,
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "run_seconds": args.seconds,
        "workers": workload.workers,
        "rtol": args.rtol,
        "environment": environment(nproc),
        "input_gen_s": input_gen_s,
        "failed_frac": failed_frac,
        "problems": run.problems,
        "metrics": {
            name: dict(zip(("q1", "median", "q3"), quartiles(values)), samples=values)
            for name, values in samples.items()
        },
        "result": result,
        **extra,
    }
    with open(out_dir / ("BENCH_%s.json" % label), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for problem in run.problems:
        print("problem: %s" % problem)
    for m in names:
        print("%-48s %14.6g %s" % (m["name"], metrics[m["name"]], m["unit"]))
    print("%-48s %14.6g %s" % ("failed_frac", failed_frac, "fraction"))
    print("%-48s %14.6g %s" % ("input_gen_s", input_gen_s, "s"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
