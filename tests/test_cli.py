"""Tests for the command-line layer: exit codes, files, byte determinism."""

import csv
import dataclasses
import re

import numpy as np
import pytest

from monofit import cli
from monofit.cli import render_plot, run, write_records
from monofit.experiments import ConjectureConfig, ConjectureRow, SigmaRule
from monofit.deconv import estimate_cdf
from monofit.regress import fit_shuffled, fit_unlinked, stepfn_from_csv
from monofit.synth import Dataset, LinkSpec, NoiseSpec, dataset_to_csv, parse_spec, rng_stream, sample_dataset

from memory import traced_peak


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


class TestExitCodes:
    def test_usage_errors(self, capsys):
        assert run(["conjecture", "--bogus"]) == 2
        assert run(["nonsense"]) == 2
        assert run([]) == 2
        assert run(["rates", "--problem", "bogus"]) == 2
        assert run(["selftest"]) == 2
        capsys.readouterr()

    def test_help_is_success(self, capsys):
        assert run(["--help"]) == 0
        capsys.readouterr()

    def test_runtime_failures(self, tmp_path, capsys):
        out = str(tmp_path)
        assert run(["rates", "--sigma-rule", "junk", "--n-grid", "100", "--reps", "1", "--out", out]) == 1
        assert run(["estimate", "--data", str(tmp_path / "missing.csv"), "--out", out]) == 1
        assert run(["conjecture", "--config", str(tmp_path / "no.ini"), "--out", out]) == 1
        err = capsys.readouterr().err
        assert "error:" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["conjecture", "--grid-points", "1", "--n-min", "100", "--n-max", "100", "--c", "nan"],
            ["conjecture", "--grid-points", "1", "--n-min", "100", "--n-max", "100", "--C-list", "1,1"],
            ["conjecture", "--grid-points", "1", "--n-min", "100", "--n-max", "100", "--C-list", "1,1.0000001"],
            ["rates", "--sigma-rule", "junk", "--n-grid", "100", "--reps", "1"],
            ["estimate"],
            # n**-inf = 0 would run a noiseless sweep and fail only at the slope fit
            ["rates", "--sigma-rule", "power:inf", "--n-grid", "100,1000", "--reps", "1"],
            # an empty sweep would write a header-only risks.csv
            ["rates", "--n-grid", "100", "--reps", "0"],
            ["rates", "--n-grid", ",", "--reps", "1"],
            ["rates", "--n-grid", "0,100", "--reps", "1"],
        ],
    )
    def test_refused_run_creates_no_out_directory(self, argv, tmp_path, capsys):
        out = tmp_path / "x" / "y"
        assert run([*argv, "--out", str(out)]) == 1
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "argv, computations",
        [
            (["conjecture"], ["conjecture_sweep"]),
            (["rates"], ["rate_sweep"]),
            (["estimate", "--data", "d.csv"], ["dataset_from_csv", "estimate_cdf", "fit_shuffled", "fit_unlinked"]),
        ],
    )
    @pytest.mark.parametrize("under", [("afile",), ("afile", "sub"), ("afile", "sub", "deeper")])
    def test_unusable_out_refused_before_the_run(self, argv, computations, under, tmp_path, monkeypatch, capsys):
        calls = []
        for name in computations:
            monkeypatch.setattr(cli, name, lambda *a, _name=name, **k: calls.append(_name))
        (tmp_path / "afile").write_text("not a directory\n")
        before = sorted(tmp_path.rglob("*"))
        assert run([*argv, "--out", str(tmp_path.joinpath(*under))]) == 1
        err = capsys.readouterr().err
        assert "--out" in err and "afile is not a writable directory" in err
        assert calls == []
        assert sorted(tmp_path.rglob("*")) == before

    def test_non_monotone_tail_link_refused(self, tmp_path, capsys):
        # a cut past e^{-(1+eps)} would make the tail link decrease
        argv = ["rates", "--link", "unbounded-tail:0.5,1,0.5,2", "--n-grid", "100", "--reps", "1"]
        assert run([*argv, "--out", str(tmp_path)]) == 1
        assert "exp(-(1 + eps))" in capsys.readouterr().err
        assert not (tmp_path / "risks.csv").exists()


class TestOptionTable:
    @pytest.mark.parametrize("cmd", ["conjecture", "rates", "estimate"])
    def test_flags_are_the_config_keys(self, cmd, tmp_path, capsys):
        assert run([cmd, "--help"]) == 0
        flags = set(re.findall(r"--([A-Za-z][\w-]*)", capsys.readouterr().out)) - {"help", "config"}
        ini = tmp_path / "run.ini"
        ini.write_text("[%s]\nno-such-key = 1\n" % cmd)
        assert run([cmd, "--config", str(ini), "--out", str(tmp_path)]) == 1
        keys = capsys.readouterr().err.strip().partition("it accepts ")[2].split(", ")
        # config keys are case-insensitive: --C-list is read as c-list
        assert sorted(f.lower() for f in flags) == keys

    def test_conjecture_defaults_are_the_config_class(self, tmp_path, monkeypatch, capsys):
        seen = []

        def fake_sweep(cfg, workers):
            seen.append((cfg, workers))
            return [ConjectureRow(n=100, C=C, mean=0.5, stderr=0.0) for C in cfg.C_list]

        monkeypatch.setattr(cli, "conjecture_sweep", fake_sweep)
        # the option table alone sets the worker count; no environment variable is read
        monkeypatch.setenv("MONOFIT_WORKERS", "3")
        monkeypatch.chdir(tmp_path)
        assert run(["conjecture"]) == 0
        capsys.readouterr()
        assert seen == [(ConjectureConfig(), 1)]


class TestConjectureCommand:
    ARGS = ["--n-min", "100", "--n-max", "1000", "--grid-points", "2", "--reps", "5", "--C-list", "1,100"]

    def test_outputs_and_determinism(self, tmp_path, capsys):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert run(["conjecture", *self.ARGS, "--out", str(a)]) == 0
        assert run(["conjecture", *self.ARGS, "--out", str(b)]) == 0
        capsys.readouterr()
        names = sorted(p.name for p in a.iterdir())
        assert names == ["conjecture.csv", "conjecture_C1.svg", "conjecture_C100.svg"]
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes()
        rows = read_csv(a / "conjecture.csv")
        assert rows[0] == ["n", "C", "mean", "stderr"]
        assert len(rows) == 1 + 2 * 2  # header + grid_points * |C_list|

    def test_config_file_and_flag_precedence(self, tmp_path, capsys):
        ini = tmp_path / "run.ini"
        ini.write_text("[conjecture]\nn-min = 100\nn-max = 1000\ngrid-points = 2\nreps = 4\nc-list = 1,2\n")
        out1 = tmp_path / "fromfile"
        assert run(["conjecture", "--config", str(ini), "--out", str(out1)]) == 0
        assert len(read_csv(out1 / "conjecture.csv")) == 1 + 2 * 2
        out2 = tmp_path / "flagwins"
        assert run(["conjecture", "--config", str(ini), "--grid-points", "3", "--out", str(out2)]) == 0
        assert len(read_csv(out2 / "conjecture.csv")) == 1 + 3 * 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "bad", [["--c", "nan"], ["--c", "inf"], ["--C-list", "nan,1"], ["--workers", "0"], ["--workers", "-3"]]
    )
    def test_bad_value_refused_before_output(self, bad, tmp_path, capsys):
        argv = ["conjecture", "--grid-points", "2", "--n-min", "100", "--n-max", "1000", "--reps", "3"]
        assert run([*argv, *bad, "--out", str(tmp_path)]) == 1
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "conjecture.csv").exists()
        assert not list(tmp_path.glob("*.svg"))


class TestRatesCommand:
    def test_records_and_determinism(self, tmp_path, capsys):
        args = [
            "rates",
            "--problem",
            "shuffled",
            "--sigma-rule",
            "constant:0.1",
            "--n-grid",
            "100,400",
            "--reps",
            "2",
        ]
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert run([*args, "--out", str(a)]) == 0
        assert run([*args, "--out", str(b)]) == 0
        assert (a / "risks.csv").read_bytes() == (b / "risks.csv").read_bytes()
        rows = read_csv(a / "risks.csv")
        assert rows[0] == ["problem", "n", "sigma", "seed", "risk_kind", "value"]
        assert len(rows) == 1 + 2 * 2
        out = capsys.readouterr().out
        assert "slope" in out

    def test_unknown_config_key_refused(self, tmp_path, capsys):
        ini = tmp_path / "run.ini"
        ini.write_text("[rates]\nsigma_rule = constant:0.1\nn_grid = 100,200\nreps = 1\n")
        out = tmp_path / "out"
        assert run(["rates", "--config", str(ini), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "'n_grid'" in err and "sigma-rule" in err and "n-grid" in err
        assert not (out / "risks.csv").exists()

    def test_default_section_keys_not_checked(self, tmp_path, capsys):
        # [DEFAULT] is shared by every section: a key only another
        # subcommand reads is no error here
        ini = tmp_path / "run.ini"
        ini.write_text("[DEFAULT]\nworkers = 2\nreps = 1\n[rates]\nn-grid = 100,200\n")
        assert run(["rates", "--config", str(ini), "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert len(read_csv(tmp_path / "risks.csv")) == 1 + 2


class TestEstimateCommand:
    @pytest.mark.parametrize("mode", ["shuffled", "unlinked", "deconv"])
    def test_round_trip_matches_library(self, mode, tmp_path, capsys):
        # the command writes exactly what the library computes
        ds = sample_dataset(mode, 25, LinkSpec("identity"), NoiseSpec(), 0.05, seed=3)
        data = tmp_path / "data.csv"
        dataset_to_csv(ds, data)
        out = tmp_path / "fit"
        assert run(["estimate", "--data", str(data), "--sigma", "0.05", "--out", str(out)]) == 0
        capsys.readouterr()
        if mode == "deconv":
            rows = read_csv(out / "cdf.csv")
            assert rows[0] == ["x", "cdf"]
            table = np.array(rows[1:], dtype=float)
            est, _ = estimate_cdf(ds.y, 0.05)
            assert np.array_equal(table[:, 0], est.grid)
            assert np.array_equal(table[:, 1], est.cdf)
            return
        m, meta = stepfn_from_csv(out / "fit.csv")
        direct = (fit_shuffled if mode == "shuffled" else fit_unlinked)(ds.x_ordered, ds.y, 0.05)
        assert np.array_equal(m.knots, direct.fit.knots)
        assert np.array_equal(m.values, direct.fit.values)
        assert meta == {"n": 25, "sigma": 0.05, "eta": direct.eta, "projected": False}

    def test_grid_too_coarse_exits_one(self, tmp_path, capsys):
        rng = rng_stream(8, "outlier")
        y = rng.random(500)
        y[17] = 1e9
        ds = Dataset("unlinked", np.sort(rng.random(500)), y, 0.05)
        data = tmp_path / "data.csv"
        dataset_to_csv(ds, data)
        assert run(["estimate", "--data", str(data), "--sigma", "0.05", "--out", str(tmp_path / "fit")]) == 1
        assert "grid too coarse" in capsys.readouterr().err
        assert not (tmp_path / "fit" / "fit.csv").exists()

    def test_default_sigma_at_large_n(self, tmp_path, capsys):
        # the default --sigma 0 gives h = n^(-1/2); at n = 1e5 the grid is
        # refined to resolve it instead of the call being refused
        ds = sample_dataset("unlinked", 100_000, LinkSpec("identity"), NoiseSpec(), 0.0, seed=9)
        data = tmp_path / "data.csv"
        dataset_to_csv(ds, data)
        assert run(["estimate", "--data", str(data), "--out", str(tmp_path / "fit")]) == 0
        capsys.readouterr()
        m, meta = stepfn_from_csv(tmp_path / "fit" / "fit.csv")
        direct = fit_unlinked(ds.x_ordered, ds.y, 0.0)
        assert meta["n"] == 100_000 and meta["sigma"] == 0.0
        assert np.array_equal(m.values, direct.fit.values)

    @pytest.mark.parametrize("mode", ["shuffled", "unlinked", "deconv"])
    def test_fit_within_a_memory_budget(self, tmp_path, capsys, mode):
        n = 100_000
        ds = sample_dataset(mode, n, LinkSpec("affine", (8.0, -4.0)), NoiseSpec(), 0.1, seed=601)
        data = tmp_path / "data.csv"
        dataset_to_csv(ds, data)
        del ds
        argv = ["estimate", "--data", str(data), "--sigma", "0.1", "--out", str(tmp_path / "out")]
        code, peak = traced_peak(run, argv)
        capsys.readouterr()
        assert code == 0
        # read, fit and write within 9 n-length real arrays (8 n bytes each);
        # the three fits trace 4.5 to 6.4 of them
        assert peak < 9 * 8 * n, "peak %.1f x 8n bytes" % (peak / (8 * n))

    def test_deconv_writes_cdf_table(self, tmp_path, capsys):
        ds = sample_dataset("deconv", 40, LinkSpec("identity"), NoiseSpec(), 0.2, seed=4)
        data = tmp_path / "data.csv"
        dataset_to_csv(ds, data)
        out = tmp_path / "cdf"
        assert run(["estimate", "--data", str(data), "--sigma", "0.2", "--out", str(out)]) == 0
        capsys.readouterr()
        rows = read_csv(out / "cdf.csv")
        assert rows[0] == ["x", "cdf"]
        cdf = np.array([float(r[1]) for r in rows[1:]])
        assert np.all(np.diff(cdf) >= 0)
        assert cdf[0] <= 0.01 and cdf[-1] >= 0.99


@dataclasses.dataclass
class _Pair:
    a: int
    b: float


class TestWriteRecords:
    def test_empty_set_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_records(path, [], fields=("a", "b"))
        assert path.read_bytes() == b"a,b\r\n"

    def test_one_record_two_lines(self, tmp_path):
        path = tmp_path / "one.csv"
        write_records(path, [_Pair(1, 0.5)], fields=("a", "b"))
        assert path.read_bytes() == b"a,b\r\n1,0.5\r\n"

    def test_dataclass_round_trip(self, tmp_path):
        rows = [
            ConjectureRow(n=100, C=1.0, mean=1 / 3, stderr=0.001),
            ConjectureRow(n=316, C=1.0, mean=2 / 3, stderr=0.002),
        ]
        path = tmp_path / "rows.csv"
        write_records(path, rows, fields=("n", "C", "mean", "stderr"))
        parsed = read_csv(path)
        assert parsed[0] == ["n", "C", "mean", "stderr"]
        back = [
            ConjectureRow(n=int(r[0]), C=float(r[1]), mean=float(r[2]), stderr=float(r[3]))
            for r in parsed[1:]
        ]
        assert back == rows  # 17 significant digits round-trip doubles

    def test_io_error_mentions_path(self, tmp_path):
        bad = tmp_path / "no_dir" / "x.csv"
        with pytest.raises(RuntimeError, match="no_dir"):
            write_records(bad, [_Pair(1, 0.5)], fields=("a",))


class TestRenderPlot:
    def test_rejects_empty(self, tmp_path):
        with pytest.raises(ValueError):
            render_plot([], tmp_path / "x.svg")

    def test_single_point_valid_svg(self, tmp_path):
        path = tmp_path / "one.svg"
        render_plot([ConjectureRow(n=100, C=1.0, mean=0.5, stderr=0.0)], path)
        text = path.read_text()
        assert text.startswith("<svg") and text.rstrip().endswith("</svg>")
        assert "value of n (in log scale with base 10)" in text

    def test_deterministic_bytes(self, tmp_path):
        rows = [
            ConjectureRow(n=1000, C=2.0, mean=0.95, stderr=0.005),
            ConjectureRow(n=100, C=2.0, mean=0.9, stderr=0.01),
            ConjectureRow(n=316, C=2.0, mean=0.92, stderr=0.02),
        ]
        a = tmp_path / "a.svg"
        b = tmp_path / "b.svg"
        render_plot(rows, a)
        render_plot(sorted(rows, key=lambda r: r.n), b)
        assert a.read_bytes() == b.read_bytes()
        assert "C=2</text>" in a.read_text()

    def test_rejects_mixed_c(self, tmp_path):
        rows = [ConjectureRow(n=100, C=2.0, mean=0.9, stderr=0.01), ConjectureRow(n=100, C=5.0, mean=0.8, stderr=0.0)]
        with pytest.raises(ValueError, match="several C"):
            render_plot(rows, tmp_path / "x.svg")
        assert not (tmp_path / "x.svg").exists()


class TestHelpers:
    def test_parse_spec_forms(self):
        assert parse_spec(LinkSpec, "identity").kind == "identity"
        assert parse_spec(LinkSpec, " affine : 4, -2 ").params == (4.0, -2.0)
        ub = parse_spec(LinkSpec, "unbounded-tail:0.5,1,0.5,100")
        assert ub.kind == "unbounded-tail" and ub.params[3] == 100
        assert parse_spec(SigmaRule, "power:0.5").sigma(10**4) == pytest.approx(0.01)
        with pytest.raises(ValueError):
            parse_spec(LinkSpec, "spline")

    SPECS = [
        ("identity", LinkSpec("identity")),
        ("cube", LinkSpec("cube")),
        ("affine:4,-2", LinkSpec("affine", (4, -2))),
        ("step:-1,0,1", LinkSpec("step", (-1, 0, 1))),
        ("unbounded-tail:0.5,1,0.5,100", LinkSpec("unbounded-tail", (0.5, 1, 0.5, 100))),
        ("constant:0.25", SigmaRule("constant", (0.25,))),
        ("power:0.5", SigmaRule("power", (0.5,))),
        ("below-root", SigmaRule("below-root")),
        ("fixed", SigmaRule("fixed")),
    ]

    @pytest.mark.parametrize("text, spec", SPECS, ids=[text for text, _ in SPECS])
    def test_parse_spec_is_the_spec(self, text, spec):
        # the command line writes a kind exactly as the code does, so the
        # underscore spelling of a hyphenated kind is no kind at all
        assert parse_spec(type(spec), text) == spec
        if "-" in spec.kind:
            with pytest.raises(ValueError, match="unknown"):
                parse_spec(type(spec), text.replace("-", "_", 1))

    REFUSALS = [
        (LinkSpec, "identity:7", "takes 0 parameters, got 1"),
        (LinkSpec, "cube:1,2", "takes 0 parameters, got 2"),
        (LinkSpec, "affine:1", "takes 2 parameters, got 1"),
        (LinkSpec, "affine:1,2,3", "takes 2 parameters, got 3"),
        (LinkSpec, "unbounded-tail:0.5,1,0.5", "takes 4 parameters, got 3"),
        (LinkSpec, "unbounded-tail:0.5,1,0.5,1000.5", "must be an integer"),
        (LinkSpec, "unbounded-tail:0.5,1,0.5,inf", "n must be a finite real number >= 1, got inf"),
        (LinkSpec, "step:1,nan", "level must be a finite real number, got nan"),
        (LinkSpec, "affine:nan,0", "slope must be a finite real number >= 0, got nan"),
        (LinkSpec, "affine:inf,0", "slope must be a finite real number >= 0, got inf"),
        (LinkSpec, "affine:x,0", "could not convert"),
        (LinkSpec, "step:", "at least one level"),
        (LinkSpec, "nosuch:1", "unknown link kind: 'nosuch'"),
        (LinkSpec, "spline", "unknown link kind: 'spline'"),
        (SigmaRule, "below-root:5", "below-root takes 0 parameters, got 1"),
        (SigmaRule, "constant", "constant takes 1 parameters, got 0"),
        (SigmaRule, "constant:1,2", "constant takes 1 parameters, got 2"),
        (SigmaRule, "power:inf", "power rule parameter must be a finite real number > 0, got inf"),
        (SigmaRule, "constant:-1", "constant rule parameter must be a finite real number > 0, got -1.0"),
        (SigmaRule, "constant:abc", "could not convert"),
        (SigmaRule, "junk", "unknown sigma rule: 'junk'"),
        (SigmaRule, "bogus:3", "unknown sigma rule: 'bogus'"),
    ]

    @pytest.mark.parametrize("cls, text, why", REFUSALS, ids=[text for _, text, _ in REFUSALS])
    def test_parse_spec_refusals_quote_the_text(self, cls, text, why):
        with pytest.raises(ValueError) as info:
            parse_spec(cls, text)
        assert repr(text) in str(info.value) and why in str(info.value)

    def test_rates_refuses_non_finite_link_before_the_sweep(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "rate_sweep", lambda *a, **k: pytest.fail("the sweep ran"))
        assert run(["rates", "--link", "step:1,nan", "--out", str(tmp_path)]) == 1
        assert "'step:1,nan'" in capsys.readouterr().err
