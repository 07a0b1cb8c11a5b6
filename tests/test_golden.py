"""Seed-1729 outputs, byte for byte, against the set ``make_golden.py`` wrote.

A mismatch fails, never skips: either the change moved an output by mistake,
or it means to, and the set is regenerated in a commit of its own.
"""

import json

import numpy as np

from make_golden import CONJECTURE, GOLDEN, MANIFEST, run, sha256, write_outputs


def _mismatch(what, manifest):
    return (
        "%s differs from tests/golden (made with numpy %s, running numpy %s); if the change is meant, "
        "regenerate with `PYTHONPATH=src python tests/make_golden.py` in a commit of its own"
        % (what, manifest["numpy"], np.__version__)
    )


def test_outputs_match_the_golden_set(tmp_path, capsys):
    manifest = json.loads((GOLDEN / MANIFEST).read_text())
    files = write_outputs(tmp_path)
    capsys.readouterr()
    whole = sorted(p.relative_to(GOLDEN).as_posix() for p in GOLDEN.rglob("*") if p.is_file())
    whole.remove(MANIFEST)
    assert files == sorted(whole + list(manifest["sha256"])), _mismatch("the set of files", manifest)
    for rel in whole:
        assert (tmp_path / rel).read_bytes() == (GOLDEN / rel).read_bytes(), _mismatch(rel, manifest)
    for rel, digest in manifest["sha256"].items():
        assert sha256(tmp_path / rel) == digest, _mismatch(rel, manifest)


def test_parallel_conjecture_writes_the_golden_bytes(tmp_path, capsys):
    manifest = json.loads((GOLDEN / MANIFEST).read_text())
    run(tmp_path, "conjecture", (*CONJECTURE, "--workers", "2"))
    capsys.readouterr()
    written = sorted(p.name for p in (tmp_path / "conjecture").iterdir())
    assert written == sorted(p.name for p in (GOLDEN / "conjecture").iterdir())
    for name in written:
        assert (tmp_path / "conjecture" / name).read_bytes() == (GOLDEN / "conjecture" / name).read_bytes(), (
            _mismatch("conjecture/%s at --workers 2" % name, manifest)
        )
