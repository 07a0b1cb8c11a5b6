"""Command-line entry point: experiment orchestration, CSV output, SVG plots.

Three subcommands:

- ``conjecture``  run the occupancy-product sweep and emit a summary table
  plus one SVG line chart per C value;
- ``rates``       run a generate-fit-measure rate sweep and emit the risk
  records (plus a fitted log-log slope on stdout);
- ``estimate``    fit a single dataset read from CSV.

Every value may come from a flag, from an INI-style config file (section
named after the subcommand; flags win), or from its default.  One option
table per subcommand declares each flag, config key and default once.
Outputs are a pure function of (config, seed) down to the byte level.
Exit codes: 0 success, 2 usage error, 1 runtime failure.
"""

import argparse
import math
import os
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .csvio import write_table
from .deconv import estimate_cdf
from .experiments import (
    _COMPATIBLE,
    DEFAULT_SEED,
    ConjectureConfig,
    conjecture_sweep,
    fit_loglog_slope,
    rate_sweep,
)
from .regress import fit_shuffled, fit_unlinked, stepfn_to_csv
from .synth import LinkSpec, _float_list, dataset_from_csv, parse_spec

__all__ = ["main", "run", "write_records", "render_plot"]


def _int_list(text):
    return tuple(int(v) for v in text.split(",") if v.strip() != "")


def write_records(path, records, fields):
    """Write dataclass records as CSV: header first, floats at 17 digits.

    ``fields`` names the attributes to write, in column order.
    """
    write_table(path, fields, [[getattr(rec, f) for rec in records] for f in fields])


_COLOR = "#1f6f8b"
_SVG_W, _SVG_H = 640, 420
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 24, 20, 52


def render_plot(table, path):
    """Standalone SVG line chart of mean vs log10(n) for the rows of one C.

    Whiskers mark plus/minus one standard error.  Output bytes depend only
    on the table contents.
    """
    rows = sorted(((int(r.n), float(r.C), float(r.mean), float(r.stderr)) for r in table), key=lambda t: t[0])
    if not rows:
        raise ValueError("cannot plot an empty table")
    cs = sorted({c for _, c, _, _ in rows})
    if len(cs) > 1:
        raise ValueError("cannot plot rows of several C values in one chart: %s" % cs)
    xs = [math.log10(n) for n, _, _, _ in rows]
    los = [m - s for _, _, m, s in rows]
    his = [m + s for _, _, m, s in rows]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(los), max(his)
    if x_hi - x_lo < 1e-12:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi - y_lo < 1e-12:
        y_lo, y_hi = y_lo - 0.05, y_hi + 0.05
    x_pad = 0.04 * (x_hi - x_lo)
    y_pad = 0.06 * (y_hi - y_lo)
    x_lo, x_hi = x_lo - x_pad, x_hi + x_pad
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad

    def px(x):
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * (_SVG_W - _MARGIN_L - _MARGIN_R)

    def py(y):
        return _SVG_H - _MARGIN_B - (y - y_lo) / (y_hi - y_lo) * (_SVG_H - _MARGIN_T - _MARGIN_B)

    out = []
    out.append(
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
        'viewBox="0 0 %d %d">' % (_SVG_W, _SVG_H, _SVG_W, _SVG_H)
    )
    out.append('<rect width="%d" height="%d" fill="white"/>' % (_SVG_W, _SVG_H))
    ax_b = _SVG_H - _MARGIN_B
    out.append(
        '<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>'
        % (_MARGIN_L, ax_b, _SVG_W - _MARGIN_R, ax_b)
    )
    out.append(
        '<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>' % (_MARGIN_L, _MARGIN_T, _MARGIN_L, ax_b)
    )
    # x ticks at integer powers
    for k in range(math.ceil(x_lo), math.floor(x_hi) + 1):
        x = px(k)
        out.append('<line x1="%.2f" y1="%d" x2="%.2f" y2="%d" stroke="black"/>' % (x, ax_b, x, ax_b + 5))
        out.append(
            '<text x="%.2f" y="%d" font-size="12" text-anchor="middle">%d</text>' % (x, ax_b + 18, k)
        )
    # y ticks
    for i in range(5):
        y_val = y_lo + (y_hi - y_lo) * i / 4.0
        y = py(y_val)
        out.append(
            '<line x1="%d" y1="%.2f" x2="%d" y2="%.2f" stroke="black"/>'
            % (_MARGIN_L - 5, y, _MARGIN_L, y)
        )
        out.append(
            '<text x="%d" y="%.2f" font-size="12" text-anchor="end">%.3g</text>'
            % (_MARGIN_L - 8, y + 4, y_val)
        )
    out.append(
        '<text x="%.2f" y="%d" font-size="13" text-anchor="middle">'
        "value of n (in log scale with base 10)</text>"
        % ((_MARGIN_L + _SVG_W - _MARGIN_R) / 2.0, _SVG_H - 12)
    )
    out.append(
        '<text x="16" y="%.2f" font-size="13" text-anchor="middle" '
        'transform="rotate(-90 16 %.2f)">value of expectation approximated by averaging</text>'
        % ((_MARGIN_T + ax_b) / 2.0, (_MARGIN_T + ax_b) / 2.0)
    )
    pts = [(px(math.log10(n)), py(m), py(m - s), py(m + s)) for n, _, m, s in rows]
    for x, _, w_lo, w_hi in pts:
        out.append('<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" stroke="%s"/>' % (x, w_lo, x, w_hi, _COLOR))
        for w in (w_lo, w_hi):
            out.append('<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" stroke="%s"/>' % (x - 3, w, x + 3, w, _COLOR))
    path_pts = " ".join("%.2f,%.2f" % (x, y) for x, y, _, _ in pts)
    out.append('<polyline points="%s" fill="none" stroke="%s" stroke-width="1.5"/>' % (path_pts, _COLOR))
    out.append(
        '<text x="%d" y="%d" font-size="12" fill="%s">C=%g</text>'
        % (_SVG_W - _MARGIN_R - 70, _MARGIN_T + 16, _COLOR, cs[0])
    )
    out.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(out) + "\n")


class _Option(NamedTuple):
    type: object
    default: object
    help: str
    choices: tuple = None


# One table per subcommand: each flag, which is also its config-file key,
# with its type, default and help.  A default of None leaves the option
# unset for the command to fill in.
_COMMON = {
    "out": _Option(str, ".", "output directory (default: current directory)"),
    "seed": _Option(int, DEFAULT_SEED, "base seed (default %d)" % DEFAULT_SEED),
}

_OPTIONS = {
    "conjecture": {
        "n-min": _Option(int, None, "smallest sample size"),
        "n-max": _Option(int, None, "largest sample size"),
        "grid-points": _Option(int, None, "sample sizes, log-spaced from n-min to n-max"),
        "reps": _Option(int, None, "occupancy draws per sample size"),
        "c": _Option(float, None, "constant c of the occupancy product"),
        "C-list": _Option(_float_list, None, "comma-separated C values, one plot each"),
        "workers": _Option(int, 1, "processes that compute: this one and a pool of workers - 1 (default 1)"),
    },
    "rates": {
        "problem": _Option(str, "shuffled", "estimation problem", tuple(_COMPATIBLE)),
        "sigma-rule": _Option(str, "below-root", "noise level as a function of n"),
        "n-grid": _Option(_int_list, (100, 316, 1000, 3162, 10000), "comma-separated sample sizes"),
        "reps": _Option(int, 30, "replications per sample size"),
        "link": _Option(str, "identity", "true link: a catalog name or name:params"),
    },
    "estimate": {
        "data": _Option(str, None, "dataset CSV (columns mode,index,x,y)"),
        "sigma": _Option(float, 0.0, "noise level of the data"),
    },
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="monofit",
        description="monotone-link estimation and Monte-Carlo experiment runner",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)
    for cmd, (help_text, _) in _COMMANDS.items():
        p = sub.add_parser(cmd, help=help_text)
        p.add_argument("--config", help="INI config file; section per subcommand, flags win")
        for flag, opt in {**_COMMON, **_OPTIONS[cmd]}.items():
            p.add_argument("--" + flag, type=opt.type, choices=opt.choices, help=opt.help)
    return parser


def _resolve(args, ini, section):
    """flag > config file > default, per option of ``section``.

    Any other key in the config file's ``[section]`` is refused.  Keys that
    a ``[DEFAULT]`` section lends to every section are not checked, since
    another subcommand may be the one that reads them.  Config keys are
    case-insensitive.  Options come back keyed by their argparse dest; the
    --out directory comes back as a Path, which each command creates just
    before its first write, so a refused run leaves no directory behind.
    Its nearest existing ancestor must be a directory we may write to, so
    an unusable --out is refused before the run rather than after it.
    """
    table = {**_COMMON, **_OPTIONS[section]}
    if ini is not None and ini.has_section(section):
        keys = {ini.optionxform(flag) for flag in table}
        unknown = sorted(set(ini.options(section)) - set(ini.defaults()) - keys)
        if unknown:
            raise ValueError(
                "unknown key %r in [%s]; it accepts %s" % (unknown[0], section, ", ".join(sorted(keys)))
            )
    opts = {}
    for flag, opt in table.items():
        dest = flag.replace("-", "_")
        val = getattr(args, dest)
        if val is None and ini is not None and ini.has_option(section, flag):
            val = opt.type(ini.get(section, flag))
        opts[dest] = opt.default if val is None else val
    opts["out"] = Path(opts["out"])
    base = opts["out"].absolute()
    while not base.exists():
        base = base.parent
    if not (base.is_dir() and os.access(base, os.W_OK | os.X_OK)):
        raise ValueError("--out %s: %s is not a writable directory" % (opts["out"], base))
    return opts


def _load_ini(path):
    if path is None:
        return None
    if not os.path.exists(path):
        raise RuntimeError("config file not found: %s" % path)
    from configparser import ConfigParser  # loaded only with --config

    ini = ConfigParser()
    ini.read(path, encoding="utf-8")
    return ini


def _cmd_conjecture(opts):
    out = opts.pop("out")
    workers = opts.pop("workers")
    # unset options take ConjectureConfig's defaults
    cfg = ConjectureConfig(**{k: v for k, v in opts.items() if v is not None})
    plots = ["conjecture_C%g.svg" % C for C in cfg.C_list]
    if len(set(plots)) != len(plots):
        raise ValueError("C values must differ in %%g form, which names their plots, got %r" % (cfg.C_list,))
    rows = conjecture_sweep(cfg, workers=workers)
    out.mkdir(parents=True, exist_ok=True)
    table_path = out / "conjecture.csv"
    write_records(table_path, rows, fields=("n", "C", "mean", "stderr"))
    for C, plot in zip(cfg.C_list, plots):
        render_plot([r for r in rows if r.C == C], out / plot)
    print("wrote %s (%d rows) and %d plots" % (table_path, len(rows), len(cfg.C_list)))
    return 0


def _cmd_rates(opts):
    records = rate_sweep(
        opts["problem"],
        opts["n_grid"],
        opts["sigma_rule"],
        reps=opts["reps"],
        seed=opts["seed"],
        link=parse_spec(LinkSpec, opts["link"]),
    )
    opts["out"].mkdir(parents=True, exist_ok=True)
    out_path = opts["out"] / "risks.csv"
    write_records(out_path, records, fields=("problem", "n", "sigma", "seed", "risk_kind", "value"))
    by_n = {}
    for r in records:
        by_n.setdefault(r.n, []).append(r.value)
    print("wrote %s (%d records)" % (out_path, len(records)))
    if len(by_n) >= 2:
        points = [(n, float(np.mean(vals))) for n, vals in sorted(by_n.items())]
        slope, _, r2 = fit_loglog_slope(points)
        print("mean-risk slope vs n: %.4f (r^2 %.4f)" % (slope, r2))
    return 0


def _cmd_estimate(opts):
    if not opts["data"]:
        raise RuntimeError("estimate needs --data (or data= in the config file)")
    ds = dataset_from_csv(opts["data"])
    if ds.mode != "shuffled" and ds.n < 2:
        # the unlinked and deconv bandwidths take log n
        raise ValueError("%s: a %s fit needs 2 or more data rows, got %d" % (opts["data"], ds.mode, ds.n))
    if ds.mode == "deconv":
        est, h = estimate_cdf(ds.y, opts["sigma"])
        opts["out"].mkdir(parents=True, exist_ok=True)
        out_path = opts["out"] / "cdf.csv"
        write_table(out_path, ("x", "cdf"), (est.grid.xs, est.cdf))
        print("wrote %s (bandwidth %.6g)" % (out_path, h))
        return 0
    res = (fit_shuffled if ds.mode == "shuffled" else fit_unlinked)(ds.x_ordered, ds.y, opts["sigma"])
    opts["out"].mkdir(parents=True, exist_ok=True)
    out_path = opts["out"] / "fit.csv"
    stepfn_to_csv(res.fit, out_path, n=ds.n, sigma=opts["sigma"], eta=res.eta, projected=res.projected)
    print("wrote %s (%d knots)" % (out_path, res.fit.knots.size))
    return 0


# each subcommand, in --help order: its help line and its handler
_COMMANDS = {
    "conjecture": ("occupancy-product Monte-Carlo sweep", _cmd_conjecture),
    "rates": ("risk rate sweep over an n-grid", _cmd_rates),
    "estimate": ("fit one dataset from CSV", _cmd_estimate),
}


def run(argv):
    """Parse argv (without the program name) and execute; return exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.cmd][1](_resolve(args, _load_ini(args.config), args.cmd))
    except Exception as exc:  # noqa: BLE001 - boundary: report, signal failure
        print("error: %s" % exc, file=sys.stderr)
        return 1


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
