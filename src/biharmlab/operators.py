"""Form-exact assembly of the discrete operator A = Delta^2 - c|x|^{-4}.

The discrete A is defined through the quadratic form
    a_h(u, v) = (L u, L v)_W - c (V u, v)_W,
never by discretizing Delta^2 directly, so positivity and the coercivity
structure a_h(u) >= eta_h ||L u||_W^2 are inherited exactly.

The one operator is a radial sector: each spherical-harmonic sector ell
is treated independently.  The N-dimensional box serves only the
twisted-form expansion study, through a matrix-free 2N+1 stencil.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .grids import (BoxGrid, GridError, PhiFamily, RadialGrid, box_probe,
                    build_box_grid, sphere_area)

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


@dataclass
class SectorOperator:
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
    def w(self) -> np.ndarray:
        return self.grid.w

    @property
    def V(self) -> np.ndarray:
        return self.grid.r**-4.0

    def inner(self, u, v) -> complex:
        return complex(np.sum(self.w * u * np.conj(v)))

    def form_a(self, u, v) -> complex:
        """a_h(u, v) = (Lu, Lv)_W - c (Vu, v)_W."""
        pot = self.c * complex(np.sum(self.w * self.V * u * np.conj(v)))
        Lu = self.apply_L(u)
        Lv = Lu if v is u else self.apply_L(v)
        return self.inner(Lu, Lv) - pot

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

    def apply_L(self, u: np.ndarray, out: np.ndarray | None = None
                ) -> np.ndarray:
        """L u = W^{-1} S u from the bands, into `out`: a new array by
        default, or any array of u's shape, u itself included.  A 2-D u
        is mapped one column at a time, so the working memory is one
        column of temporaries whatever the size of u.  Each entry is
        formed as diag_i u_i, then + a_i u_{i+1}, then + a_{i-1} u_{i-1},
        then / w_i.
        """
        if out is None:
            out = np.empty_like(u, dtype=np.result_type(self.diag, u))
        if u.ndim == 2:
            for j in range(u.shape[1]):
                self.apply_L(u[:, j], out=out[:, j])
            return out
        Su = self.diag * u
        Su[:-1] += self.a * u[1:]
        Su[1:] += self.a * u[:-1]
        return np.divide(Su, self.w, out=out)

    def apply_A(self, u: np.ndarray) -> np.ndarray:
        return (self.F @ u) / self.w

    @functools.cached_property
    def decomposition(self):
        """W-orthonormal eigendecomposition of A_h, computed on first use."""
        from . import spectral  # spectral imports this module
        return spectral.eigendecompose(self)


def assemble_sector(grid: RadialGrid, ell: int = 0, c: float = 0.0) -> SectorOperator:
    """Sector ell of A: the flux-form radial Laplacian with zero flux at
    the inner face (the innermost cell sees no flux from the origin side)
    and a Dirichlet ghost node at the outer face, so S is negative
    semidefinite."""
    if ell < 0:
        raise OperatorError("angular index ell must be >= 0")
    N, r, faces = grid.N, grid.r, grid.faces
    cstar = paper_rellich_constant(N)
    if c >= cstar:
        warnings.warn(
            f"c = {c} >= C* = {cstar}: discrete A may be indefinite",
            stacklevel=2)
    a, diag = stiffness_bands(grid, ell)
    diag[-1] -= sphere_area(N) * faces[-1] ** (N - 1) / (faces[-1] - r[-1])
    return SectorOperator(grid=grid, ell=ell, c=float(c), a=a, diag=diag)


def box_stencil(box: BoxGrid, U: np.ndarray, below=None,
                above=None) -> np.ndarray:
    """The 2N+1 Laplacian L of the box on U, which spans the grid's last
    U.ndim axes, with zero neighbours outside the box (Dirichlet
    truncation).  When U is one axis-0 plane, `below` and `above` are its
    neighbour planes (None outside the box)."""
    out = -2.0 * box.N * U
    for plane in (above, below):
        if plane is not None:
            out += plane
    for ax in range(U.ndim):
        lo = [slice(None)] * U.ndim
        hi = [slice(None)] * U.ndim
        lo[ax], hi[ax] = slice(None, -1), slice(1, None)
        out[tuple(lo)] += U[tuple(hi)]
        out[tuple(hi)] += U[tuple(lo)]
    out /= box.h**2
    return out


def _check_clamp(lam: float, phi_values: np.ndarray) -> None:
    if abs(lam) * float(np.max(np.abs(phi_values))) > EXP_CLAMP:
        raise OperatorError(
            f"|lambda|*max|phi| exceeds the exponent clamp {EXP_CLAMP}")


@dataclass
class TwistedOperator:
    """A_{lam*phi} = e^{lam phi} A e^{-lam phi} as a diagonal conjugation."""

    base: SectorOperator
    lam: float
    phi_values: np.ndarray = field(repr=False)

    def form(self, u) -> complex:
        """Twisted form a_{lam phi}(u) = a(e^{-lam phi}u, e^{lam phi}u)."""
        lp = self.lam * self.phi_values
        return self.base.form_a(np.exp(-lp) * u, np.exp(lp) * u)

    def minimizer(self) -> np.ndarray:
        """Minimiser of Re a_{lam phi}(u) / ||u||_W^2: the lowest
        W-eigenvector of H = F_ij cosh(lam (phi_i - phi_j)), the symmetric
        part of the twisted form u^* e^{lam phi} F e^{-lam phi} u, read as
        q/sqrt(w) from the lowest eigenvector q of the standard form
        W^{-1/2} H W^{-1/2}.  F = S W^{-1} S - c W V has five bands,
        formed from S's bands in lower banded storage; no n x n array is
        formed."""
        op, lp = self.base, self.lam * self.phi_values
        a, d, w, s = op.a, op.diag, op.w, np.sqrt(op.w)
        bands = np.zeros((3, op.n))
        bands[0] = d * d / w - op.c * w * op.V
        bands[0, 1:] += a * a / w[:-1]
        bands[0, :-1] += a * a / w[1:]
        bands[0] /= w
        bands[1, :-1] = a * (d[:-1] / w[:-1] + d[1:] / w[1:])
        bands[2, :-2] = a[:-1] * a[1:] / w[1:-1]
        for k in (1, 2):
            bands[k, :-k] *= np.cosh(lp[k:] - lp[:-k]) / (s[k:] * s[:-k])
        _, q = sla.eig_banded(bands, lower=True, select="i",
                              select_range=(0, 0))
        return q[:, 0] / s


def twist(op: SectorOperator, lam: float, phi: PhiFamily) -> TwistedOperator:
    phi.certify(grid=op.grid)
    vals = phi.values(op.grid)
    _check_clamp(lam, vals)
    return TwistedOperator(base=op, lam=float(lam), phi_values=vals)


# Complex axis-0 planes twisted_form_terms holds at its peak, the planes
# its probe function makes included, with a margin: tracemalloc measures
# 11.9 at N = 5 (m = 12, 16) and N = 6 (m = 8, 12), and 12.8 at N = 5,
# m = 8, with grids.box_probe
TWISTED_PLANES = 14
BOX_LADDER = (8, 12, 16)       # per-axis counts of the expansion study
BOX_BUDGET_BYTES = 1 << 30     # memory the study may take on its largest box


def twisted_form_bytes(N: int, m: int) -> int:
    """Bytes twisted_form_terms holds on an m^N box at its peak: its
    TWISTED_PLANES complex axis-0 planes, the probe's own planes
    included; no m^N array is formed."""
    return 16 * TWISTED_PLANES * m ** (N - 1)


def twisted_form_terms(box: BoxGrid, c: float, u, lam: float,
                       phi: PhiFamily) -> dict:
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

    Here a(u, v) = (Lu, Lv) - c (Vu, v) on the box, in the uniform weight
    h^N, with L the 2N+1 stencil of box_stencil.  Returns every term,
    their sum, the directly evaluated difference, and the discrepancy
    between the two (a discrete Leibniz error of order >= 1.5 under grid
    refinement).

    `u` is the probe as a function of the axis-0 plane index: u(i) is its
    plane i, of shape box.shape[1:] or flat, for 0 <= i < m, so the m^N
    probe need never exist; a caller holding the probe as an array U of
    shape box.shape passes U.__getitem__.  The sums run over the box one
    plane at a time.  Plane i needs u and e^{-+lam phi} u on planes i-1,
    i and i+1 for the stencil across planes, so windows of three planes
    roll along axis 0 and the peak is TWISTED_PLANES complex planes,
    O(m^{N-1}): 11.9 measured at N = 5 and m = 16.
    The derivative across planes is centred, and one-sided at the box
    faces, as np.gradient takes it.  A linear phi has the rank-one
    gradient sech^2(t) e, so |grad phi|^2 = sech^4 (e.e) and
    grad phi . grad u = sech^2 (e . grad u).
    """
    m, h, e = box.m, box.h, phi.e
    plane = box.shape[1:]
    ee = float(e @ e)

    def probe(i):
        """Plane i of u; None off the box."""
        return np.reshape(u(i), plane) if 0 <= i < m else None

    def twisted(i, ui):
        """(e^{-lam phi} u, e^{lam phi} u) on plane i; None off the box."""
        if ui is None:
            return None, None
        vals = phi.values(box, slice(i, i + 1))
        _check_clamp(lam, vals)
        lp = lam * vals.reshape(plane)
        return np.exp(-lp) * ui, np.exp(lp) * ui

    # per-plane sums: the eight terms, then (L u-, L u+), (V u-, u+),
    # (L u, L u) and (V u, u) for the direct difference
    acc = np.zeros(12, dtype=complex)
    lo, ui, hi = None, probe(0), probe(1)
    below, here = (None, None), twisted(0, ui)
    for i in range(m):
        rows = slice(i, i + 1)
        Lu = box_stencil(box, ui, lo, hi)
        directional = np.zeros(plane, dtype=ui.dtype)     # e . grad u
        for ax in np.flatnonzero(e):
            if ax:
                d = np.gradient(ui, h, axis=ax - 1)
            else:
                d = (ui if hi is None else hi) - (ui if lo is None else lo)
                d /= 2.0 * h if 0 < i < m - 1 else h
            d *= e[ax]
            directional += d
        del lo, d
        sech2 = phi.sech2(box, rows).reshape(plane)
        gp2 = ee * sech2**2                               # |grad phi|^2
        # grad phi . grad u-bar; |grad phi . grad u| is its modulus
        dot_gubar = np.conj(sech2 * directional)
        del sech2, directional
        lphi = phi.laplacian(box, rows).reshape(plane)
        au2 = np.abs(ui) ** 2
        sums = [np.sum(gp2**2 * au2),
                np.sum(lphi**2 * au2),
                np.sum(gp2 * dot_gubar * ui),
                np.sum(gp2 * ui * np.conj(Lu)),
                np.sum(lphi * dot_gubar * ui),
                np.sum(lphi * np.conj(ui) * Lu),
                np.sum(np.abs(dot_gubar) ** 2),
                np.sum(dot_gubar * Lu)]
        direct_Lu = np.sum(Lu * np.conj(Lu))
        del au2, gp2, lphi, dot_gubar, Lu

        above = twisted(i + 1, hi)
        Lm = box_stencil(box, here[0], below[0], above[0])
        Lp = box_stencil(box, here[1], below[1], above[1])
        sums.append(np.sum(Lm * np.conj(Lp)))
        del Lm, Lp
        V = box.radii_sq(rows).reshape(plane) ** -2.0
        sums += [np.sum(V * here[0] * np.conj(here[1])), direct_Lu,
                 np.sum(V * ui * np.conj(ui))]
        del V
        acc += sums
        below, here = here, above
        lo, ui, hi = ui, hi, probe(i + 2)

    w = box.h**box.N
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
    direct = (s[8] - c * s[9]) - (s[10] - c * s[11])
    return {
        "terms": terms,
        "sum": total,
        "direct": direct,
        "discrepancy": abs(direct - total),
    }


def twisted_expansion_study(N: int, c: float, phi: PhiFamily) -> tuple:
    """Box refinement study of the twisted-form expansion at lam = 0.7:
    `(rows, orders)`, a row (m, h, discrepancy) per box [-2.5, 2.5]^N of
    BOX_LADDER with the probe grids.box_probe, and the observed order of
    the discrepancy between each two neighbouring rows.  Raises GridError,
    before any box is built, if the largest box needs more than
    BOX_BUDGET_BYTES."""
    need = twisted_form_bytes(N, BOX_LADDER[-1])
    if need > BOX_BUDGET_BYTES:
        raise GridError(
            f"the m = {BOX_LADDER[-1]} box at N = {N} needs about "
            f"{need >> 20} MiB, over the box budget of "
            f"{BOX_BUDGET_BYTES >> 20} MiB")
    rows = []
    for m in BOX_LADDER:
        box = build_box_grid(N, m, 2.5)
        res = twisted_form_terms(box, c, box_probe(box), 0.7, phi)
        rows.append((m, box.h, res["discrepancy"]))
    orders = [math.log(d0 / d1) / math.log(h0 / h1)
              for (_, h0, d0), (_, h1, d1) in zip(rows, rows[1:])]
    return rows, orders


# the form inequality's share gamma of a(u), in (0, 1)
FORME_GAMMA = 0.5


def forme_inequality_check(op, samples) -> dict:
    """Measure the form inequality
    |a_{lam phi}(u) - a(u)| <= gamma a(u) + k (1+lam^4) ||u||_2^2
    with gamma = FORME_GAMMA.

    `samples` is an iterable of (u, tw) pairs, tw a TwistedOperator of
    `op`; nothing is twisted here.  k is derived from the small parameter
    eps via k = 18 N^2 eps^{-6}, where eps is the value making
    9 eps^2 / eta equal to gamma, with eta = 1 - max(c, 0)/C*(N); that
    needs c < C*.  `k_empirical` is the least k >= 0 that holds on every
    sample with ||u|| > 0, and `samples` counts those samples.
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
    used = 0
    k_emp = 0.0
    for u, tw in samples:
        nrm2 = float(np.sum(op.w * np.abs(u) ** 2))
        if nrm2 == 0.0:
            continue
        used += 1
        a0 = op.form_a(u, u).real
        diff = abs(tw.form(u) - a0)
        need_k = (diff - gamma * a0) / ((1.0 + tw.lam**4) * nrm2)
        k_emp = max(k_emp, need_k)
    return {"gamma": gamma, "eps": eps, "k": k, "k_empirical": k_emp,
            "samples": used}
