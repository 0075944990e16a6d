"""
Riesz transform Delta A^{-1/2}
==============================

The operator R = Delta A^{-1/2} is bounded on L^2 with norm at most
eta^{-1/2}, where eta = 1 - c/C* is the coercivity constant of the
form.  A^{-1/2} is computed two ways - spectral calculus and a
log-substituted trapezoid quadrature of the heat semigroup - and the
norm brackets are swept over p below 2.
"""

import numpy as np

from biharmlab import (assemble_sector, build_radial_grid, corner_norm,
                       eta_h, riesz_apply, riesz_kernel, riesz_pnorm_sweep)

grid = build_radial_grid(5, 30.0, 512)
op = assemble_sector(grid, 0, 1.0)

u = np.random.default_rng(0).standard_normal(grid.n)
a = riesz_apply(op, u, "spectral")
b = riesz_apply(op, u, "quadrature")
print(f"spectral vs quadrature route: rel err "
      f"{np.linalg.norm(a - b) / np.linalg.norm(a):.2e}")

kern = riesz_kernel(op)
n22 = corner_norm(kern, 2.0, 2.0)
print(f"||R||_2->2 = {n22:.8f}  vs  eta_h^-1/2 = {eta_h(op) ** -0.5:.8f}")

op0 = assemble_sector(grid, 0, 0.0)
n22_free = corner_norm(riesz_kernel(op0), 2.0, 2.0)
print(f"free case c = 0: ||R||_2->2 = {n22_free:.12f} (exactly 1 in theory)")

grid2 = build_radial_grid(5, 30.0, 1024)
op2 = assemble_sector(grid2, 0, 1.0)
sweep, _ = riesz_pnorm_sweep(op, [1.3, 1.5, 1.8], refined_op=op2)
print("\np-sweep (lower/upper brackets, refinement stability):")
for p in (1.3, 1.5, 1.8):
    est = sweep[p]["estimate"]
    print(f"  p = {p}: [{est.lower:.4f}, {est.upper:.4f}]  "
          f"stability {sweep[p]['stability']:.4f}")
