"""
Semigroup decay between Lebesgue norms
======================================

For the fourth-order operator A = Delta^2 - c|x|^-4 the semigroup
e^{-tA} maps L^p to L^q with norm ~ t^{-gamma} where
gamma = (N/4)(1/p - 1/q).  At N = 5 this gives slope -5/8 for 2 -> inf
and -1/2 for 2 -> 10.  We compute kernel norm brackets over a decade of
times and fit the slopes in log-log coordinates.
"""

import math

import numpy as np

from biharmlab import assemble_sector, build_radial_grid, decay_fit
from biharmlab.report import svg_plot

grid = build_radial_grid(5, 30.0, 512)
ts = list(np.geomspace(0.01, 0.1, 9))

series = []
for c in (0.0, 1.0):
    op = assemble_sector(grid, 0, c)
    for q, tgt in ((math.inf, -5.0 / 8.0), (10.0, -0.5)):
        fit = decay_fit(op, 2.0, q, ts)
        rel = abs(fit.exponent - tgt) / abs(tgt)
        print(f"c = {c}: ||e^-tA||_2->{q:g} slope {fit.exponent:+.4f} "
              f"(target {tgt:+.4f}, rel err {rel:.3f})")
        series.append((f"c={c} q={q:g}", fit.params["t_values"],
                       fit.params["norm_values"]))

svg = svg_plot(series, xlabel="t", ylabel="norm upper bound",
               logx=True, logy=True, guides=[(-0.625, "slope -5/8")],
               title="semigroup decay")
with open("decay.svg", "w") as fh:
    fh.write(svg)
print("wrote decay.svg")
