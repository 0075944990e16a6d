"""
Weighted distances from bounded-gradient weights
================================================

The distance d(E, F) = sup over admissible weights phi of
inf_E phi - sup_F phi is equivalent to the Euclidean distance:
d_e <= d <= sqrt(N) d_e for convex compact sets.  For two balls the
tanh family phi = s tanh((e.x + b)/s) is best along the line of centres,
e = (c_E - c_F)/|c_E - c_F|, where inf_E e.x - sup_F e.x = d_e; its value
there, 2s tanh(d_e/(2s)) at s = max(10 d_e, 1), is a closed-form lower
bound within 0.1% of d_e.  We verify the bracket on random ball pairs
and check the closed-form minimizer of the exponent
-lam d + omega lam^4 |z| that turns these distances into off-diagonal
bounds.
"""

import numpy as np

from biharmlab import davies_distance, lambda_optimizer_check

rng = np.random.default_rng(0)
print("random disjoint ball pairs in R^5:")
for i in range(5):
    r = float(rng.uniform(0.3, 1.5))
    x = rng.uniform(-5, 5, 5)
    e = rng.standard_normal(5)
    e /= np.linalg.norm(e)
    y = x + (2 * r + float(rng.uniform(0.5, 8.0))) * e
    est = davies_distance(x, r, y, r)
    print(f"  pair {i}: d_e = {est.d_e:.4f}  d_lb = {est.d_lb:.4f}  "
          f"bracket top = {est.bracket[1]:.4f}")

print("\nclosed-form lambda minimizer vs 1-D numerical search:")
for omega, d, z in ((2.0, 1.0, 1.0), (0.5, 3.0, 2.0 + 1.0j)):
    res = lambda_optimizer_check(omega, d, z)
    print(f"  omega = {omega}, d = {d}, |z| = {abs(z):.3f}: "
          f"lam* = {res['lam_star']:.6f}  c_omega = {res['c_omega']:.6f}  "
          f"rel err {res['rel_err_lam']:.2e}")
