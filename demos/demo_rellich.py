"""
Discrete Rellich constant
=========================

The quadratic form of the bilaplacian controls the singular weight
|x|^-4: the best constant at N = 5 is (N(N-4)/4)^2 = 25/16.  Here we
measure its discrete counterpart as the minimum over angular sectors of
a weighted generalized eigenvalue problem with power-law tail matching,
and watch the error shrink as the grid is refined.
"""

from biharmlab import build_radial_grid, paper_rellich_constant, rellich_constant

target = paper_rellich_constant(5)
print(f"continuum constant C* = {target}")

for n in (500, 1000, 2000, 4000):
    grid = build_radial_grid(5, 1000.0, n, "log")
    res = rellich_constant(grid, ell_max=4)
    rel = abs(res["min"] - target) / target
    print(f"n = {n:5d}: C*_h = {res['min']:.6f}  "
          f"(rel err {rel:.4f}, min at sector {res['argmin_ell']})")

grid = build_radial_grid(5, 1000.0, 2000, "log")
res = rellich_constant(grid, ell_max=4)
print("\nper-sector constants (sector ell contributes ell(ell+3)/r^2):")
for ell in sorted(res["per_sector"]):
    print(f"  ell = {ell}: {res['per_sector'][ell]:10.4f}")
print("\nthe gap to C* that remains is the finite-window truncation of the")
print("log-scale extremal family, not discretization error")
