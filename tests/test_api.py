"""Guards on the package's import surface.

Every exported name resolves, importing the command line loads no scipy,
and every function the benchmark tracer wraps still exists where the
tracer looks for it, so a refactor cannot silently zero a per-layer metric.
"""

import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import monofit

MODULES = ["monofit"] + ["monofit." + m.name for m in pkgutil.iter_modules(monofit.__path__)]
TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    assert mod.__all__
    missing = [attr for attr in mod.__all__ if not hasattr(mod, attr)]
    assert missing == []


def test_cli_import_and_deconvolution_load_no_scipy():
    # scipy is imported only inside the functions that need it, and the
    # deconvolution path needs none, so neither importing the command line
    # nor deconvolving pays for it
    code = (
        "import sys, numpy as np, monofit.cli\n"
        "from monofit.deconv import estimate_cdf\n"
        "from monofit.synth import NoiseSpec\n"
        "estimate_cdf(np.linspace(0.0, 1.0, 50), NoiseSpec(), 0.1)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(monofit.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env, timeout=120)
    assert out.stdout.strip() == "[]"


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


def test_tracer_targets_resolve_and_restore():
    spec = importlib.util.spec_from_file_location("monofit_bench_tracer", TRACER)
    tracer_mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_mod)
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
