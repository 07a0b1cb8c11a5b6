"""
Occupancy products over balls-in-bins draws
===========================================

Throw n balls into n bins, collect the occupancies n_j, and average the
random product  prod_j (1 - C exp(-c log(n)/n_j))^2  over many draws.
The sweep tracks its mean across n for several C; the claim under test is
that the mean stays bounded away from zero as n grows.

A scaled-down sweep runs in a couple of seconds; the full default sweep
(n up to 10^6, 500 repetitions) is what the `monofit conjecture` command
runs from the shell:

    monofit conjecture --out out/ --workers 8
"""

from pathlib import Path

from monofit.cli import render_plot, write_records
from monofit.experiments import ConjectureConfig, conjecture_sweep

cfg = ConjectureConfig(
    n_min=100, n_max=10_000, grid_points=8, reps=60, c=20.0, C_list=(1.0, 100.0)
)
rows = conjecture_sweep(cfg)

print("n        C        mean         stderr")
for row in rows:
    print("%-8d %-8g %.6f     %.2e" % (row.n, row.C, row.mean, row.stderr))

floor = min(row.mean for row in rows)
print("smallest mean over the grid: %.6f (bounded away from zero)" % floor)

# Persist the table and one figure per C, exactly like the CLI does.
out = Path("demo_out")
out.mkdir(exist_ok=True)
write_records(out / "mini_sweep.csv", rows, fields=("n", "C", "mean", "stderr"))
for c_val in cfg.C_list:
    subset = [row for row in rows if row.C == c_val]
    render_plot(subset, out / ("mini_sweep_C%g.svg" % c_val))
print("wrote", out / "mini_sweep.csv", "and per-C SVG plots")
