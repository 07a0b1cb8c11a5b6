"""Write the seed-1729 golden outputs that ``tests/test_golden.py`` checks.

Run from the repository root, in a commit of its own, after a change that
moves an output on purpose:

    PYTHONPATH=src python tests/make_golden.py

It rewrites ``tests/golden/`` from the runs in :data:`RUNS`: a small
``conjecture`` sweep with its SVGs, ``rates`` for each problem on two catalog
links, and ``estimate`` on a dataset of each mode at n = 500, along with the
datasets themselves.  A file under ``WHOLE_BELOW`` bytes is stored whole; a
larger one (each ``cdf.csv``) only as its SHA-256 digest in ``manifest.json``,
which also records the numpy version the set was made with.
"""

import hashlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from monofit import cli
from monofit.synth import LinkSpec, NoiseSpec, dataset_to_csv, sample_dataset

GOLDEN = Path(__file__).resolve().parent / "golden"
MANIFEST = "manifest.json"
WHOLE_BELOW = 64 * 1024
SEED = 1729
MODES = ("shuffled", "unlinked", "deconv")

CONJECTURE = ("conjecture", "--n-min", "100", "--n-max", "1000", "--grid-points", "3", "--reps", "20",
              "--C-list", "1,100")
# (output directory, argv without --out); estimate reads the datasets under data/
RUNS = (
    ("conjecture", CONJECTURE),
    *(
        ("rates-%s-%s" % (problem, link.partition(":")[0]),
         ("rates", "--problem", problem, "--link", link, "--n-grid", "100,316", "--reps", "2"))
        for problem in MODES
        for link in ("identity", "step:-1,-0.25,0.25,1")
    ),
    *(("estimate-%s" % mode, ("estimate", "--data", "data/%s.csv" % mode, "--sigma", "0.1")) for mode in MODES),
)


def run(out, subdir, argv):
    """``monofit <argv> --seed 1729 --out out/subdir``, with ``--data`` read under ``out``."""
    argv = [str(out / a) if a.startswith("data/") else a for a in argv]
    code = cli.run([*argv, "--seed", str(SEED), "--out", str(out / subdir)])
    if code != 0:
        raise RuntimeError("monofit %s exited %d" % (" ".join(argv), code))


def write_outputs(out):
    """Write the whole golden set under ``out``; return its files' relative paths, sorted."""
    out = Path(out)
    (out / "data").mkdir(parents=True, exist_ok=True)
    for mode in MODES:
        ds = sample_dataset(mode, 500, LinkSpec("affine", (2.0, -0.5)), NoiseSpec(), 0.1, seed=SEED)
        dataset_to_csv(ds, out / "data" / ("%s.csv" % mode))
    for subdir, argv in RUNS:
        run(out, subdir, argv)
    return sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file())


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def main():
    with tempfile.TemporaryDirectory() as tmp:
        files = write_outputs(tmp)
        shutil.rmtree(GOLDEN, ignore_errors=True)
        digests = {}
        for rel in files:
            src = Path(tmp) / rel
            if src.stat().st_size < WHOLE_BELOW:
                (GOLDEN / rel).parent.mkdir(parents=True, exist_ok=True)
                shutil.copyfile(src, GOLDEN / rel)
            else:
                digests[rel] = sha256(src)
    manifest = {"numpy": np.__version__, "seed": SEED, "sha256": digests}
    (GOLDEN / MANIFEST).write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    print("wrote %d files to %s, %d of them as digests" % (len(files), GOLDEN, len(digests)), file=sys.stderr)


if __name__ == "__main__":
    main()
