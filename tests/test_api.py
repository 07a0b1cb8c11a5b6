"""Guards on the package's import surface.

Every exported name resolves, every subcommand runs with scipy unimportable,
every function the benchmark tracer wraps still exists where the tracer
looks for it, so a refactor cannot silently zero a per-layer metric, every
argument the tracer reads from a call is still a parameter of its target,
every capture of the tracer runs on a real call, every name the benchmark imports from monofit still resolves, a scalar
is tested for finiteness in one place only, an array likewise except at
one named site, a parameter is made an array only there and in the
checks, the module of those checks imports no other, and every defaulted
parameter of an exported function is set by some call in the program.
"""

import ast
import importlib
import importlib.util
import inspect
import os
import pkgutil
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import monofit

MODULES = ["monofit"] + ["monofit." + m.name for m in pkgutil.iter_modules(monofit.__path__)]
SRC = Path(monofit.__file__).resolve().parent
BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACER = BENCH / "tracer.py"


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    assert mod.__all__
    missing = [attr for attr in mod.__all__ if not hasattr(mod, attr)]
    assert missing == []


def test_package_root_exports_only_the_version():
    # every other name has one import path, its defining module
    assert monofit.__all__ == ["__version__"]


def test_cli_import_and_deconvolution_load_no_scipy(tmp_path):
    # the runtime needs numpy only: with every scipy import made to fail,
    # each subcommand and the population risk still run to completion
    code = textwrap.dedent(
        """
        import sys
        sys.modules["scipy"] = None
        from monofit import cli, experiments, synth

        out = sys.argv[1]
        ds = synth.sample_dataset("unlinked", 200, synth.LinkSpec("identity"), synth.NoiseSpec(), 0.1, seed=3)
        synth.dataset_to_csv(ds, out + "/data.csv")
        argvs = [
            ["conjecture", "--n-min", "100", "--n-max", "300", "--grid-points", "2", "--reps", "3", "--C-list", "1"],
            ["rates", "--problem", "shuffled", "--n-grid", "100,200", "--reps", "1"],
            ["rates", "--problem", "deconv", "--sigma-rule", "constant:0.1", "--n-grid", "100,200", "--reps", "1"],
            ["estimate", "--data", out + "/data.csv", "--sigma", "0.1"],
        ]
        codes = [cli.run([*argv, "--out", out]) for argv in argvs]
        link = synth.LinkSpec("unbounded-tail", (0.5, 1.0, 0.5, 200))
        records = experiments.rate_sweep(
            "shuffled", (100, 200), "below-root", 1, 5, link=link, risk_kinds=("population_L1",)
        )
        assert all(r.value > 0 for r in records)
        print(codes, [m for m, mod in sys.modules.items() if m.split(".")[0] == "scipy" and mod is not None])
        """
    )
    env = {**os.environ, "PYTHONPATH": str(Path(monofit.__file__).resolve().parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)], capture_output=True, text=True, env=env, timeout=300
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip().splitlines()[-1] == "[0, 0, 0, 0] []"


def test_commands_load_the_pool_and_ini_reader_only_when_they_use_them(tmp_path):
    # estimate and a deconv rate sweep run with no process pool, INI reader
    # or Gauss-Legendre rule loaded; a parallel sweep, --config and the
    # population risk, run next in the same process, load and use them
    code = textwrap.dedent(
        """
        import sys
        from monofit import cli, experiments, synth

        out = sys.argv[1]
        heavy = ("concurrent.futures", "multiprocessing", "configparser", "numpy.polynomial")
        ds = synth.sample_dataset("unlinked", 200, synth.LinkSpec("identity"), synth.NoiseSpec(), 0.1, seed=3)
        synth.dataset_to_csv(ds, out + "/data.csv")
        codes = [
            cli.run(["estimate", "--data", out + "/data.csv", "--sigma", "0.1", "--out", out]),
            cli.run(["rates", "--problem", "deconv", "--sigma-rule", "constant:0.1", "--n-grid", "100,200",
                     "--reps", "1", "--out", out]),
        ]
        print(codes, [m for m in heavy if m in sys.modules])
        with open(out + "/run.ini", "w") as fh:
            fh.write("[conjecture]\\nreps = 3\\n")
        small = ["--n-min", "100", "--n-max", "300", "--grid-points", "2", "--C-list", "1", "--out", out]
        codes = [
            cli.run(["conjecture", "--reps", "3", "--workers", "2", *small]),
            cli.run(["conjecture", "--config", out + "/run.ini", *small]),
        ]
        experiments.rate_sweep("shuffled", (100, 200), "below-root", 1, 5, risk_kinds=("population_L1",))
        print(codes, [m for m in heavy if m in sys.modules])
        """
    )
    env = {**os.environ, "PYTHONPATH": str(Path(monofit.__file__).resolve().parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)], capture_output=True, text=True, env=env, timeout=300
    )
    assert out.returncode == 0, out.stderr
    assert [line for line in out.stdout.splitlines() if line.startswith("[")] == [
        "[0, 0] []",
        "[0, 0] ['concurrent.futures', 'multiprocessing', 'configparser', 'numpy.polynomial']",
    ]


def _bindings():
    """Every (module, name) -> object binding across the loaded monofit modules."""
    out = {}
    for key, mod in list(sys.modules.items()):
        if key == "monofit" or key.startswith("monofit."):
            for attr, value in vars(mod).items():
                out[(key, attr)] = value
                if isinstance(value, type):
                    for cattr, cvalue in vars(value).items():
                        out[(key, attr, cattr)] = cvalue
    return out


def _load_tracer():
    """The benchmark's tracer module, loaded from its file."""
    spec = importlib.util.spec_from_file_location("monofit_bench_tracer", TRACER)
    tracer_mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_mod)
    return tracer_mod


def test_tracer_targets_resolve_and_restore():
    tracer_mod = _load_tracer()
    for mod_name, _ in tracer_mod.TARGETS:
        importlib.import_module("monofit." + mod_name)
    before = _bindings()
    tracer = tracer_mod.Tracer()
    with tracer:
        assert tracer.missing == []
        for mod_name, qual in tracer_mod.TARGETS:
            owner, _, attr = qual.rpartition(".")
            mod = sys.modules["monofit." + mod_name]
            holder = getattr(mod, owner) if owner else mod
            wrapped = vars(holder)[attr]
            key = ("monofit." + mod_name, owner, attr) if owner else ("monofit." + mod_name, attr)
            assert wrapped is not before[key], "%s.%s not wrapped" % (mod_name, qual)
    after = _bindings()
    changed = [key for key in before if after.get(key) is not before[key]]
    assert changed == []


def test_tracer_captures_read_parameters_of_their_targets():
    # a capture reduces a wrapped call by reading args["name"], its bound
    # arguments by parameter name; a renamed parameter would pass every
    # other test and fail only inside a traced benchmark run
    tree = ast.parse(TRACER.read_text())
    reducers = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    (capture,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "_CAPTURE" for t in node.targets)
    ]
    read = []
    for key, reducer in zip(capture.keys, capture.values):
        mod_name, _, qual = key.value.partition(".")
        target = importlib.import_module("monofit." + mod_name)
        for attr in qual.split("."):
            target = getattr(target, attr)
        params = inspect.signature(target).parameters
        for node in ast.walk(reducers[reducer.id]):
            if isinstance(node, ast.Subscript) and getattr(node.value, "id", None) == "args":
                read.append((key.value, node.slice.value))
                assert node.slice.value in params, "%s has no parameter %r" % (key.value, node.slice.value)
    assert ("experiments.risk_population", "mhat") in read and ("deconv.deconvolve_cdf", "ys") in read


def test_tracer_captures_run_on_real_calls(tmp_path, capsys):
    # a capture also reads attributes of what it is given (a grid's step, a
    # sample's size, a fit's knots, a dataset's n); a renamed attribute
    # would pass the parameter guard above and fail only in a traced run
    from monofit import cli, experiments, synth

    tracer_mod = _load_tracer()
    for mode in ("deconv", "shuffled"):
        ds = synth.sample_dataset(mode, 50, synth.LinkSpec("identity"), synth.NoiseSpec(), 0.1, seed=3)
        synth.dataset_to_csv(ds, tmp_path / (mode + ".csv"))
    tracer = tracer_mod.Tracer()
    with tracer:
        for mode in ("deconv", "shuffled"):
            argv = ["estimate", "--data", str(tmp_path / (mode + ".csv")), "--sigma", "0.1", "--out", str(tmp_path)]
            assert cli.run(argv) == 0
        experiments.rate_sweep("shuffled", (100,), "below-root", 1, 5, risk_kinds=("population_L1",))
    tracer.settle()
    captured = {span[0] for span in tracer.spans if span[5] is not None}
    assert sorted(set(tracer_mod._CAPTURE) - captured) == []


def _monofit_imports(tree):
    """(module, name) for each import from monofit in ``tree``; name is None for ``import monofit.x``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "monofit":
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "monofit":
                    yield alias.name, None
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # the import lines of the code a workload hands to a fresh interpreter
            for line in node.value.splitlines():
                if re.match(r"(from|import) monofit\b", line):
                    yield from _monofit_imports(ast.parse(line))


def test_benchmark_imports_resolve():
    # the benchmark runs the library from its own files, so a deleted name
    # it imports would otherwise fail only inside a benchmark run
    found, missing = set(), []
    for path in sorted(BENCH.glob("*.py")):
        for module, name in _monofit_imports(ast.parse(path.read_text())):
            found.add((module, name))
            mod = importlib.import_module(module)
            if name is not None and not hasattr(mod, name):
                try:
                    importlib.import_module(module + "." + name)
                except ImportError:
                    missing.append("%s: %s.%s" % (path.name, module, name))
    # imports inside functions and in subprocess code are both walked
    assert {("monofit.synth", "NoiseSpec"), ("monofit.experiments", "rate_sweep")} <= found
    assert missing == []


def _callers(tree, target):
    """Qualified name of the innermost function around each call of ``target`` in ``tree`` (None at module level)."""
    return [owner for node, owner in _walk(tree) if isinstance(node, ast.Call) and ast.unparse(node.func) == target]


def _walk(tree):
    """Each node of ``tree`` with the qualified name of the function around it (None at module level)."""
    out = []

    def visit(node, owner, prefix):
        for child in ast.iter_child_nodes(node):
            out.append((child, owner))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qual = prefix + child.name
                visit(child, owner if isinstance(child, ast.ClassDef) else qual, qual + ".")
            else:
                visit(child, owner, prefix)

    visit(tree, None, "")
    return out


def test_only_check_real_tests_a_scalar_for_finiteness():
    # a number from outside is converted, bounded and refused in one place;
    # a hand-written convert, compare and raise pair elsewhere would call
    # math.isfinite, while array checks use np.isfinite
    found = [
        (path.stem, owner)
        for path in sorted(SRC.glob("*.py"))
        for owner in _callers(ast.parse(path.read_text()), "math.isfinite")
    ]
    assert found == [("checks", "check_real")]


# the array refusals left by hand, each for a reason check_array cannot serve
HAND_WRITTEN_ARRAY_REFUSALS = {
    # an n = 10^6 uint32 occupancy draw would cost 8 MB per worker as float64
    ("experiments", "conjecture_product"),
}


def _array_tests(tree):
    """Owners of each array finiteness, order or range test in ``tree`` that can refuse.

    That is a call of np.isfinite or np.isnan, a neighbour compare or an
    np.diff under a comparison, and an np.all or np.any in the test of an
    ``if`` whose body raises.
    """
    for node, owner in _walk(tree):
        if isinstance(node, ast.Call) and ast.unparse(node.func) in ("np.isfinite", "np.isnan"):
            yield owner
        elif isinstance(node, ast.Compare) and re.search(r"\[1:\]|\[:-1\]|np\.diff\(", ast.unparse(node)):
            yield owner
        elif isinstance(node, ast.If) and any(isinstance(n, ast.Raise) for b in node.body for n in ast.walk(b)):
            if re.search(r"\bnp\.(all|any)\(", ast.unparse(node.test)):
                yield owner


def test_array_refusals_are_check_array_calls():
    # a finiteness, order or range test of an array from outside is
    # written once, in check_array; the few left by hand are listed above
    found = {
        (path.stem, owner) for path in sorted(SRC.glob("*.py")) for owner in _array_tests(ast.parse(path.read_text()))
    }
    assert found == HAND_WRITTEN_ARRAY_REFUSALS | {("checks", "check_array")}


def test_checks_is_the_bottom_layer():
    # every module may import monofit.checks because it imports no module of monofit
    tree = ast.parse((SRC / "checks.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported == {"math", "numpy"}


def _parameter_conversions(tree):
    """Owner of each np.asarray, np.array or np.atleast_1d call in ``tree`` on a parameter of that owner."""
    nodes = _walk(tree)
    params = {}
    for node, owner in nodes:
        if isinstance(node, ast.arg):
            params.setdefault(owner, set()).add(node.arg)
    for node, owner in nodes:
        if isinstance(node, ast.Call) and ast.unparse(node.func) in ("np.asarray", "np.array", "np.atleast_1d"):
            if node.args and isinstance(node.args[0], ast.Name) and node.args[0].id in params.get(owner, ()):
                yield owner


def test_parameters_become_arrays_only_in_the_checks():
    # an argument from outside is made an array by check_array or
    # check_points, which refuse what is not numbers; a bare conversion
    # elsewhere would read text and booleans as numbers
    found = {
        (path.stem, owner)
        for path in sorted(SRC.glob("*.py"))
        for owner in _parameter_conversions(ast.parse(path.read_text()))
    }
    assert found == HAND_WRITTEN_ARRAY_REFUSALS | {("checks", "_float_array")}


# defaulted parameters that no call in src/ or bench/ sets, each with its reason
UNSET_DEFAULTS = {
    "deconvolve_cdf.freq_points": "the frequency count stays fixed until it is picked from the reach (ROADMAP item 2)",
}


def _set_arguments(paths):
    """(callee name, parameter name or position) for each argument a call in ``paths`` passes."""
    found = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                callee = ast.unparse(node.func).rpartition(".")[2]
                found |= {(callee, kw.arg) for kw in node.keywords}
                positions = [isinstance(arg, ast.Starred) for arg in node.args] + [True]
                found |= {(callee, i) for i in range(positions.index(True))}
    return found


def test_every_default_is_set_by_some_program_call():
    # a defaulted parameter that only tests set is a second form of the
    # call that no program path takes; it goes, or it names its reason above
    passed = _set_arguments(sorted(SRC.glob("*.py")) + sorted(BENCH.glob("*.py")))
    unset = []
    for name in MODULES:
        mod = importlib.import_module(name)
        for attr in mod.__all__:
            fn = getattr(mod, attr)
            if not inspect.isfunction(fn):  # a dataclass's fields are its own
                continue
            for i, param in enumerate(inspect.signature(fn).parameters.values()):
                positional = param.kind is not param.KEYWORD_ONLY
                if param.default is not param.empty and (attr, param.name) not in passed:
                    if not (positional and (attr, i) in passed):
                        unset.append("%s.%s" % (attr, param.name))
    assert sorted(set(unset) - set(UNSET_DEFAULTS)) == []
    assert sorted(set(UNSET_DEFAULTS) - set(unset)) == []
