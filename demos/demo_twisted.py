"""
Twisted operators and the Davies method
=======================================

Conjugating A by e^{lambda phi} with a bounded-derivative weight phi
produces a non-self-adjoint operator whose quadratic form differs from
the original by lower-order terms.  The difference is controlled by
gamma a(u) + k (1 + lambda^4) ||u||^2, which yields twisted semigroup
bounds and, eventually, off-diagonal kernel estimates.  Here we verify
the nine-term expansion of the twisted form under grid refinement and
check the inequality on random samples.
"""

import math

import numpy as np

from biharmlab import (assemble_box, assemble_sector, build_box_grid,
                       build_radial_grid, forme_inequality_check, make_phi,
                       paper_rellich_constant, probe_functions, twist,
                       twisted_decay_suite, twisted_form_terms)
from biharmlab.grids import TANH_HESS_MAX


def shifted_quotients(tw, k, samples, seed):
    """Rayleigh quotients of A_{lam phi} + 2k(1+lam^4) in the W-inner
    product, sampled at random complex u through the twisted form."""
    rng = np.random.default_rng(seed)
    shift = 2.0 * k * (1.0 + tw.lam**4)
    n, w = tw.base.n, tw.base.w
    quots = []
    for _ in range(samples):
        u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        nrm2 = float(np.sum(w * np.abs(u) ** 2))
        quots.append((tw.form(u) + shift * nrm2) / nrm2)
    return np.asarray(quots)


# expansion identity: discrepancy between the term sum and the direct
# difference shrinks at order >= 1.5 in h
lam = 0.7
print("twisted-form expansion refinement:")
prev = None
for m in (8, 12, 16):
    g = build_box_grid(5, m, 2.5)
    op = assemble_box(g, 1.0)
    # u = e^{-|x|^2} (1 + 0.3i x_0), the x_0 factor broadcast per plane
    u = (np.exp(-g.radii_sq()).reshape(m, -1)
         * (1.0 + 0.3j * g.axis)[:, None]).ravel()
    phi = make_phi(np.array([0.8, 0.6, 0, 0, 0]), 2.0, 0.2)
    d = twisted_form_terms(op, u, lam, phi)["discrepancy"]
    line = f"  m = {m:2d}  h = {g.h:.4f}  discrepancy {d:.4f}"
    if prev is not None:
        order = math.log(prev[0] / d) / math.log(prev[1] / g.h)
        line += f"  order {order:.2f}"
    print(line)
    prev = (d, g.h)

# form inequality on sampled (u, lambda, phi)
g = build_box_grid(5, 8, 2.5)
op = assemble_box(g, 1.0)
rng = np.random.default_rng(0)
samples = []
for i in range(50):
    u = probe_functions(g, 1, seed=i)[0]
    e = rng.standard_normal(5)
    e /= np.linalg.norm(e)
    samples.append((u * (1 + 0.3j * rng.standard_normal(u.shape)),
                    float(rng.uniform(0.1, 2.0)),
                    make_phi(e, float(rng.uniform(TANH_HESS_MAX, 4.0)),
                             float(rng.uniform(-1, 1)))))
chk = forme_inequality_check(op, samples)
print(f"\nform inequality: {len(chk['rows'])} samples, "
      f"violations {len(chk['violations'])}")
print(f"  formula k = {chk['k']:.3e}, empirical minimal k = "
      f"{chk['k_empirical']:.3e}")

# twisted semigroup bounds on a radial sector
g = build_radial_grid(5, 20.0, 256)
op = assemble_sector(g, 0, 1.0)
phi = make_phi(np.zeros(5), 2.0, b=-8.0, kind="radial", grid=g)
lams = [0.5, 1.0]
res = twisted_decay_suite(op, lams, [phi],
                          list(np.geomspace(0.05, 0.5, 6)), seed=1)
worst = max(max(r["norm"] / r["bound"], r["lap_norm"] / r["lap_bound"])
            for r in res["rows"])
print(f"\ntwisted semigroup bounds: largest norm/bound ratio {worst:.6f}")
print(f"  empirical k_h = {res['k_h']:.3f}, Laplacian prefactor "
      f"M-hat = {res['m_hat']:.3f}")

# paper's closed-form M_Theta = 1/sqrt((1 - gamma) eta sin(Theta/4)) at
# gamma = 1/2 and the sampled numerical-range half-angle of the shifted
# twisted operators A_{lam phi} + 2 k_h (1 + lam^4), which are accretive
quots = np.concatenate([
    shifted_quotients(twist(op, lam, phi), max(res["k_h"], 1e-30),
                      samples=50, seed=1) for lam in lams])
assert np.all(quots.real > 0), "a shifted twisted quotient has Re <= 0"
theta_emp = float(np.max(np.abs(np.angle(quots))))
assert theta_emp < 0.5 * math.pi, f"half-angle {theta_emp} >= pi/2"
theta = 0.5 * math.pi - theta_emp
eta = 1.0 - op.c / paper_rellich_constant(g.N)
m_theta = 1.0 / math.sqrt((1.0 - 0.5) * eta * math.sin(theta / 4.0))
print(f"  sector half-angle {theta_emp:.4f} rad, closed-form "
      f"M_Theta = {m_theta:.3f}")
