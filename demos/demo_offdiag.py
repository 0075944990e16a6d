"""
Off-diagonal kernel decay
=========================

Between sets at distance d the heat kernel of a fourth-order operator
decays like exp(-const d^{4/3} / t^{1/3}) - the exponents 4/3 and 1/3
replace the familiar second-order pair 2 and 1.  We restrict the kernel
to an annulus family, measure the restricted-to-full norm ratios, and
fit both exponents.
"""

import math

import numpy as np

from biharmlab import (Region, SemigroupEvaluator, assemble_sector,
                       build_radial_grid, offdiag_fit)

grid = build_radial_grid(5, 40.0, 1024)
ev = SemigroupEvaluator(assemble_sector(grid, 0, 1.0))

ds = [3.0, 5.0, 8.0, 12.0]
E = Region.annulus(0.0, 1.0)
Fs = [Region.annulus(d, math.inf) for d in ds]
ts = list(np.geomspace(1e-3, 1e-2, 8))

res = offdiag_fit(ev, E, Fs, ts)

print("distance-exponent fits  -log(ratio) = b + s d^e  per time:")
for fit in res["distance_fits"]:
    print(f"  t = {fit.params['t']:.5f}: e = {fit.params['exponent']:.4f} "
          f"(target 4/3)")

tf = res["time_fit"]
print(f"\ntime-exponent fit at d = {tf.params['d']:g}: "
      f"e = {tf.params['exponent']:.4f} (target 1/3)")

jf = res["joint_fit"]
if jf is not None:
    print(f"joint Gaussian-form fit: c1 = {jf.params['c1']:.4f}, "
          f"c2 = {jf.params['c2']:.4f}")
print(f"\n{res['excluded_below_floor']} ratios below the {res['floor']:g} "
      "noise floor were excluded")
