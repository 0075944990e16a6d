"""Form-exact assembly of the discrete operator A = Delta^2 - c|x|^{-4}.

The discrete A is defined through the quadratic form
    a_h(u, v) = (L u, L v)_W - c (V u, v)_W,
never by discretizing Delta^2 directly, so positivity and the coercivity
structure a_h(u) >= eta_h ||L u||_W^2 are inherited exactly.

Radial code treats each spherical-harmonic sector ell independently; the
box code is matrix-free (stencil applications only).
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .grids import BoxGrid, PhiFamily, RadialGrid, sphere_area

EXP_CLAMP = 300.0


def paper_rellich_constant(N: int) -> float:
    """Sharp constant C* = (N(N-4)/4)^2 of the continuum Rellich inequality."""
    return (N * (N - 4) / 4.0) ** 2


class OperatorError(ValueError):
    pass


def stiffness_bands(grid: RadialGrid, ell: int = 0) -> tuple:
    """Bands (a, d) of the flux-form Laplacian of sector ell before any
    boundary closure: face couplings a_i = sigma f_i^{N-1}/(r_{i+1} - r_i)
    and the diagonal d_i = -(a_{i-1} + a_i) - ell(ell+N-2) w_i/r_i^2, with
    a_{-1} = a_{n-1} = 0.
    """
    N, r, faces = grid.N, grid.r, grid.faces
    a = sphere_area(N) * faces[1:-1] ** (N - 1) / np.diff(r)
    d = np.zeros(grid.n)
    d[:-1] -= a
    d[1:] -= a
    if ell:
        d -= ell * (ell + N - 2) / r**2 * grid.w
    return a, d


class WeightedForm:
    """The form a_h(u, v) = (Lu, Lv)_W - c (Vu, v)_W, shared by the sector
    and box operators; subclasses supply grid, c, V and apply_L."""

    @property
    def w(self) -> np.ndarray:
        return self.grid.w

    def inner(self, u, v) -> complex:
        return complex(np.sum(self.w * u * np.conj(v)))

    def form_a(self, u, v) -> complex:
        """a_h(u, v) = (Lu, Lv)_W - c (Vu, v)_W."""
        pot = self.c * complex(np.sum(self.w * self.V * u * np.conj(v)))
        Lu = self.apply_L(u)
        Lv = Lu if v is u else self.apply_L(v)
        return self.inner(Lu, Lv) - pot


@dataclass
class SectorOperator(WeightedForm):
    """Radial sector of A = Delta^2 - c|x|^{-4} in the W-inner product.

    S = W L is the symmetric stiffness of the sector Laplacian; the form
    matrix is F = S W^{-1} S - c W V, and A_h = W^{-1} F is W-self-adjoint.
    The operator stores the tridiagonal bands of S: the off-diagonal `a`
    and the diagonal `diag`.  S and F are formed densely on each read.
    """

    grid: RadialGrid
    ell: int
    c: float
    a: np.ndarray = field(repr=False)
    diag: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return self.grid.n

    @property
    def V(self) -> np.ndarray:
        return self.grid.r**-4.0

    @property
    def S(self) -> np.ndarray:
        """Dense stiffness S, exactly symmetric."""
        S = np.diag(self.diag)
        idx = np.arange(self.n - 1)
        S[idx, idx + 1] = self.a
        S[idx + 1, idx] = self.a
        return S

    @property
    def F(self) -> np.ndarray:
        """Dense form matrix F = S W^{-1} S - c W V, exactly symmetric."""
        S, w = self.S, self.w
        F = S @ (S / w[:, None])
        del S
        F = 0.5 * (F + F.T)
        if self.c:
            F[np.diag_indices(self.n)] -= self.c * w * self.V
        return F

    def apply_L(self, u: np.ndarray) -> np.ndarray:
        """L u = W^{-1} S u from the bands; a 2-D u is taken column by
        column."""
        col = (slice(None),) + (None,) * (u.ndim - 1)
        a = self.a[col]
        Su = self.diag[col] * u
        Su[:-1] += a * u[1:]
        Su[1:] += a * u[:-1]
        return Su / self.w[col]

    def apply_A(self, u: np.ndarray) -> np.ndarray:
        return (self.F @ u) / self.w

    @functools.cached_property
    def decomposition(self):
        """W-orthonormal eigendecomposition of A_h, computed on first use."""
        from . import spectral  # spectral imports this module
        return spectral.eigendecompose(self)


def _warn_supercritical(N: int, c: float) -> None:
    """Warn the caller of an assembly that c >= C*."""
    cstar = paper_rellich_constant(N)
    if c >= cstar:
        warnings.warn(
            f"c = {c} >= C* = {cstar}: discrete A may be indefinite",
            stacklevel=3)


def assemble_sector(grid: RadialGrid, ell: int = 0, c: float = 0.0) -> SectorOperator:
    """Sector ell of A: the flux-form radial Laplacian with zero flux at
    the inner face (the innermost cell sees no flux from the origin side)
    and a Dirichlet ghost node at the outer face, so S is negative
    semidefinite."""
    if ell < 0:
        raise OperatorError("angular index ell must be >= 0")
    _warn_supercritical(grid.N, c)
    N, r, faces = grid.N, grid.r, grid.faces
    a, diag = stiffness_bands(grid, ell)
    diag[-1] -= sphere_area(N) * faces[-1] ** (N - 1) / (faces[-1] - r[-1])
    return SectorOperator(grid=grid, ell=ell, c=float(c), a=a, diag=diag)


@dataclass
class BoxOperator(WeightedForm):
    """Matrix-free A = Delta^2 - c|x|^{-4} on a box grid (2N+1 stencil)."""

    grid: BoxGrid
    c: float

    @property
    def n(self) -> int:
        return self.grid.size

    @property
    def V(self) -> np.ndarray:
        return self.grid.radii_sq() ** -2.0

    def apply_L(self, u: np.ndarray) -> np.ndarray:
        return self.stencil(u.reshape(self.grid.shape)).reshape(-1)

    def stencil(self, U: np.ndarray, below=None, above=None) -> np.ndarray:
        """L on U, which spans the grid's last U.ndim axes, with zero
        neighbours outside the box (Dirichlet truncation).  When U is one
        axis-0 plane, `below` and `above` are its neighbour planes (None
        outside the box)."""
        g = self.grid
        out = -2.0 * g.N * U
        for plane in (above, below):
            if plane is not None:
                out += plane
        for ax in range(U.ndim):
            lo = [slice(None)] * U.ndim
            hi = [slice(None)] * U.ndim
            lo[ax], hi[ax] = slice(None, -1), slice(1, None)
            out[tuple(lo)] += U[tuple(hi)]
            out[tuple(hi)] += U[tuple(lo)]
        out /= g.h**2
        return out


def assemble_box(grid: BoxGrid, c: float = 0.0) -> BoxOperator:
    _warn_supercritical(grid.N, c)
    return BoxOperator(grid=grid, c=float(c))


def _check_clamp(lam: float, phi_values: np.ndarray) -> None:
    if abs(lam) * float(np.max(np.abs(phi_values))) > EXP_CLAMP:
        raise OperatorError(
            f"|lambda|*max|phi| exceeds the exponent clamp {EXP_CLAMP}")


@dataclass
class TwistedOperator:
    """A_{lam*phi} = e^{lam phi} A e^{-lam phi} as a diagonal conjugation."""

    base: object
    lam: float
    phi_values: np.ndarray = field(repr=False)

    def form(self, u) -> complex:
        """Twisted form a_{lam phi}(u) = a(e^{-lam phi}u, e^{lam phi}u)."""
        lp = self.lam * self.phi_values
        return self.base.form_a(np.exp(-lp) * u, np.exp(lp) * u)


def twist(op, lam: float, phi: PhiFamily) -> TwistedOperator:
    phi.certify(grid=op.grid)
    vals = phi.values(op.grid)
    _check_clamp(lam, vals)
    return TwistedOperator(base=op, lam=float(lam), phi_values=vals)


# Complex axis-0 planes twisted_form_terms holds above its input u, with a
# margin: tracemalloc measures 15-16 at N = 5 (m = 8, 12, 16) and N = 6.
TWISTED_PLANES = 20


def twisted_form_terms(op: BoxOperator, u, lam: float, phi: PhiFamily) -> dict:
    """Correction terms of the twisted form:

        a_{lam phi}(u) - a(u) =
            lam^4 int |grad phi|^4 |u|^2
          - lam^2 int |Lap phi|^2 |u|^2
          + 4 lam^3 i Im int |grad phi|^2 (grad phi . grad u-bar) u
          + 2 lam^2 Re int |grad phi|^2 u Lap u-bar
          - 4 lam^2 Re int (Lap phi) (grad phi . grad u-bar) u
          + 2 lam  i Im int (Lap phi) u-bar Lap u
          - 4 lam^2 int |grad phi . grad u|^2
          + 4 lam  i Im int (grad phi . grad u-bar) Lap u

    Returns every term, their sum, the directly evaluated difference, and
    the discrepancy between the two (a discrete Leibniz error of order
    >= 1.5 under grid refinement).

    The sums run over the box one axis-0 plane at a time.  Plane i needs
    e^{-+lam phi} u on planes i-1, i and i+1 for the stencil across planes,
    so a window of three planes rolls along axis 0 and the peak above u is
    O(m^{N-1}).  The derivative across planes is centred, and one-sided at
    the box faces, as np.gradient takes it.  A linear phi has the rank-one
    gradient sech^2(t) e, so |grad phi|^2 = sech^4 (e.e) and
    grad phi . grad u = sech^2 (e . grad u).
    """
    if not isinstance(op, BoxOperator):
        raise OperatorError("the expansion needs a box operator (gradients)")
    g = op.grid
    m, h, e = g.m, g.h, phi.e
    U = u.reshape(g.shape)
    plane = g.shape[1:]
    ee = float(e @ e)

    def twisted(i):
        """(e^{-lam phi} u, e^{lam phi} u) on plane i; None off the box."""
        if not 0 <= i < m:
            return None, None
        vals = phi.values(g, slice(i, i + 1))
        _check_clamp(lam, vals)
        lp = lam * vals.reshape(plane)
        return np.exp(-lp) * U[i], np.exp(lp) * U[i]

    # per-plane sums: the eight terms, then (L u-, L u+), (V u-, u+),
    # (L u, L u) and (V u, u) for the direct difference
    acc = np.zeros(12, dtype=complex)
    below, here = (None, None), twisted(0)
    for i in range(m):
        rows = slice(i, i + 1)
        above = twisted(i + 1)
        V = g.radii_sq(rows).reshape(plane) ** -2.0
        Lm = op.stencil(here[0], below[0], above[0])
        Lp = op.stencil(here[1], below[1], above[1])
        twisted_sums = [np.sum(Lm * np.conj(Lp)),
                        np.sum(V * here[0] * np.conj(here[1]))]
        del Lm, Lp
        below, here = here, above

        ui = U[i]
        lo = U[i - 1] if i > 0 else None
        hi = U[i + 1] if i + 1 < m else None
        Lu = op.stencil(ui, lo, hi)
        directional = np.zeros(plane, dtype=u.dtype)      # e . grad u
        for ax in np.flatnonzero(e):
            if ax:
                d = np.gradient(ui, h, axis=ax - 1)
            else:
                d = (ui if hi is None else hi) - (ui if lo is None else lo)
                d /= 2.0 * h if 0 < i < m - 1 else h
            d *= e[ax]
            directional += d
        sech2 = phi.sech2(g, rows).reshape(plane)
        gp2 = ee * sech2**2                               # |grad phi|^2
        # grad phi . grad u-bar; |grad phi . grad u| is its modulus
        dot_gubar = np.conj(sech2 * directional)
        del sech2, directional
        lphi = phi.laplacian(g, rows).reshape(plane)
        au2 = np.abs(ui) ** 2
        acc += [np.sum(gp2**2 * au2),
                np.sum(lphi**2 * au2),
                np.sum(gp2 * dot_gubar * ui),
                np.sum(gp2 * ui * np.conj(Lu)),
                np.sum(lphi * dot_gubar * ui),
                np.sum(lphi * np.conj(ui) * Lu),
                np.sum(np.abs(dot_gubar) ** 2),
                np.sum(dot_gubar * Lu),
                *twisted_sums,
                np.sum(Lu * np.conj(Lu)),
                np.sum(V * ui * np.conj(ui))]

    w = float(g.w[0])
    s = [w * complex(a) for a in acc]
    terms = {
        "lam4_gradphi4": lam**4 * s[0].real,
        "lam2_lapphi2": -(lam**2) * s[1].real,
        "lam3_im_gradphi2": 4 * lam**3 * 1j * s[2].imag,
        "lam2_re_gradphi2_lap": 2 * lam**2 * s[3].real,
        "lam2_re_lapphi_grad": -4 * lam**2 * s[4].real,
        "lam_im_lapphi_lap": 2 * lam * 1j * s[5].imag,
        "lam2_gradphigrad2": -4 * lam**2 * s[6].real,
        "lam_im_grad_lap": 4 * lam * 1j * s[7].imag,
    }
    total = sum(terms.values())
    direct = (s[8] - op.c * s[9]) - (s[10] - op.c * s[11])
    return {
        "terms": terms,
        "sum": total,
        "direct": direct,
        "discrepancy": abs(direct - total),
    }


# the form inequality's share gamma of a(u), in (0, 1)
FORME_GAMMA = 0.5


def forme_inequality_check(op, samples) -> dict:
    """Check |a_{lam phi}(u) - a(u)| <= gamma a(u) + k (1+lam^4) ||u||_2^2
    with gamma = FORME_GAMMA.

    `samples` is an iterable of (u, lam, phi) triples.  k is derived from
    the small parameter eps via k = 18 N^2 eps^{-6}, where eps is the
    value making 9 eps^2 / eta equal to gamma, with
    eta = 1 - max(c, 0)/C*(N); that needs c < C*.
    """
    gamma = FORME_GAMMA
    N = op.grid.N
    cstar = paper_rellich_constant(N)
    if op.c >= cstar:
        raise OperatorError(
            f"the form inequality needs c < C* (c = {op.c}, C* = {cstar})")
    eta = 1.0 - max(op.c, 0.0) / cstar
    eps = math.sqrt(gamma * eta / 9.0)
    k = 18.0 * N**2 * eps**-6.0
    rows = []
    violations = []
    k_emp = 0.0
    for u, lam, phi in samples:
        nrm2 = float(np.sum(op.w * np.abs(u) ** 2))
        if nrm2 == 0.0:
            continue
        a0 = op.form_a(u, u).real
        tw = twist(op, lam, phi)
        diff = abs(tw.form(u) - a0)
        rhs = gamma * a0 + k * (1.0 + lam**4) * nrm2
        need_k = max(0.0, (diff - gamma * a0) / ((1.0 + lam**4) * nrm2))
        k_emp = max(k_emp, need_k)
        ok = diff <= rhs
        rows.append({"lam": lam, "diff": diff, "form": a0, "rhs": rhs,
                     "need_k": need_k, "ok": ok})
        if not ok:
            violations.append(rows[-1])
    return {"gamma": gamma, "eps": eps, "k": k, "k_empirical": k_emp,
            "rows": rows, "violations": violations,
            "ok": not violations}
