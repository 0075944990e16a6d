"""Spectral calculus: eigendecompositions in the weighted inner product,
semigroup evaluation e^{-zA}, inverse square root A^{-1/2} by two
independent routes, and kernels.

The semigroup (complex time inside the holomorphy sector), its kernels,
A^{-1/2} and the Riesz transform are sector-only and read a radial
sector's one cached decomposition (`SectorOperator.decomposition`).  Box
grids serve only the twisted-form expansion (`operators`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg as sla

from .operators import SectorOperator

DENSE_LIMIT = 8192
QUADRATURE_NODES = 200  # trapezoid nodes of the A^{-1/2} time quadrature
SYNTH_BLOCKS = 16       # row blocks in which synth_kernel forms a kernel


class SpectralError(RuntimeError):
    pass


@dataclass
class SpectralDecomposition:
    """Eigenpairs A q_j = mu_j q_j, Q orthonormal in the W-inner product."""

    mu: np.ndarray
    Q: np.ndarray = field(repr=False)
    w: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return len(self.mu)

    def _gram(self) -> np.ndarray:
        return self.Q.T @ (self.w[:, None] * self.Q)

    def orthonormality_residual(self) -> float:
        return float(np.max(np.abs(self._gram() - np.eye(self.n))))

    @cached_property
    def gram_norm(self) -> float:
        """||Q^T W Q||_2 = ||W^{1/2} Q||_2^2, 1 up to round-off for a
        W-orthonormal basis; it turns spectral norm formulas into upper
        bounds on the norms of the formed kernels."""
        n = self.n
        return float(sla.eigvalsh(self._gram(),
                                  subset_by_index=[n - 1, n - 1])[0])

    def coeffs(self, u: np.ndarray) -> np.ndarray:
        return self.Q.T @ (self.w * u)

    def synth(self, c: np.ndarray) -> np.ndarray:
        return self.Q @ c

    def fn_apply(self, f, u: np.ndarray) -> np.ndarray:
        """Apply f(A) through the spectral calculus."""
        return self.synth(f(self.mu) * self.coeffs(u))

    def synth_kernel(self, fmu: np.ndarray) -> np.ndarray:
        """Kernel Q diag(fmu) Q^T from the values fmu of f on the spectrum,
        as a Fortran-ordered array.

        Formed by row blocks, K[a:b] = (Q[a:b] fmu) Q^T, which is bit for
        bit the one product (Q fmu) Q^T: each block's Q fmu rows are taken
        in K's own storage, and only the block's product needs a
        temporary of n^2 / SYNTH_BLOCKS entries.
        """
        n = self.n
        K = np.empty((n, n), dtype=np.result_type(self.Q, fmu), order="F")
        # a complex f casts Q once, as the one product would
        QT = self.Q.astype(K.dtype, copy=False).T
        rows = -(-n // SYNTH_BLOCKS)
        buf = np.empty((min(rows, n), n), dtype=K.dtype)
        for a in range(0, n, rows):
            Kb = K[a:a + rows]
            np.multiply(self.Q[a:a + rows], fmu, out=Kb)
            Kb[...] = np.matmul(Kb, QT, out=buf[:len(Kb)])
        return K


def _require_sector(op) -> None:
    if not isinstance(op, SectorOperator):
        raise SpectralError(
            f"spectral calculus is sector-only, got {type(op).__name__}; box "
            "grids serve only the twisted-form expansion")


def eigendecompose(op: SectorOperator) -> SpectralDecomposition:
    """W-orthonormal eigenpairs of a radial sector's A: at c = 0 from the
    tridiagonal stiffness, otherwise by the dense generalized eigensolve
    F q = mu W q."""
    _require_sector(op)
    if op.n > DENSE_LIMIT:
        raise SpectralError(f"dense decomposition limited to n <= {DENSE_LIMIT}")
    w = op.w
    if op.c == 0.0:
        # A = T^2 exactly for the tridiagonal T = W^{-1/2}(-S)W^{-1/2}, so
        # the small eigenvalues stay fully accurate; -S is positive
        # definite, so nu > 0 comes out ascending
        s = np.sqrt(w)
        nu, Q = sla.eigh_tridiagonal(-op.diag / w, -op.a / (s[:-1] * s[1:]))
        Q /= s[:, None]
        return SpectralDecomposition(mu=nu**2, Q=Q, w=w)
    # F is exactly symmetric, so its transpose, like W's, is a
    # Fortran-ordered view with the same entries: LAPACK works on F and W
    # in place, without copies
    mu, Q = sla.eigh(op.F.T, np.diag(w).T, overwrite_a=True, overwrite_b=True)
    return SpectralDecomposition(mu=mu, Q=Q, w=w)


class KernelMatrix:
    """Kernel with respect to the weighted measure: (Tu)_i = sum_j K_ij w_j u_j.

    Built from its entries K, or as f(A) from a decomposition `dec` and the
    values `f` of f on its spectrum; such a kernel forms K = Q f Q^T only
    when K is first read, so norms read off the spectrum need no n x n
    kernel.  `corner_norms` caches the corner norms taken of this kernel,
    keyed by (p, q); K, w and f must not be mutated once a norm has been
    taken.
    """

    def __init__(self, K: np.ndarray | None = None,
                 w: np.ndarray | None = None, *,
                 dec: SpectralDecomposition | None = None,
                 f: np.ndarray | None = None):
        if K is not None:
            self.K = K          # shadows the lazy property below
        self.w = dec.w if w is None else w
        self.dec, self.f = dec, f
        self.corner_norms = {}

    @cached_property
    def K(self) -> np.ndarray:
        return self.dec.synth_kernel(self.f)

    def apply(self, u: np.ndarray) -> np.ndarray:
        return self.K @ (self.w * u)


@dataclass
class SemigroupEvaluator:
    """Evaluator of e^{-zA} on a radial sector, complex z in the holomorphy
    sector, through the operator's one decomposition."""

    op: SectorOperator

    def __post_init__(self):
        _require_sector(self.op)

    def apply(self, z: complex, u) -> np.ndarray:
        dec = self.op.decomposition
        return dec.synth(self.values(z) * dec.coeffs(u))

    def values(self, t: complex) -> np.ndarray:
        """The values e^{-t mu} of e^{-tA} on the spectrum."""
        if np.real(t) < 0:
            raise SpectralError("Re t >= 0 required")
        return np.exp(-t * self.op.decomposition.mu)

    def kernel(self, t: complex) -> KernelMatrix:
        """Kernel of e^{-tA}, carrying its spectrum; K is formed on demand."""
        f = self.values(t)
        return KernelMatrix(dec=self.op.decomposition, f=f)


def quadrature_nodes(mu_min: float, mu_max: float) -> tuple:
    """Trapezoid nodes for Gamma(1/2)^{-1} int t^{-1/2} e^{-tA} dt, t = e^s.

    The s-range is chosen so both truncation tails are below 1e-8 relative:
    left tail ~ (2/sqrt(pi)) sqrt(t_min mu_max), right tail ~ e^{-t_max mu_1}.
    """
    if mu_min <= 0:
        raise SpectralError("positive definite operator required for A^{-1/2}")
    s_min = math.log(2.5e-17 / mu_max)
    s_max = math.log(40.0 / mu_min)
    s = np.linspace(s_min, s_max, QUADRATURE_NODES)
    h = s[1] - s[0]
    # weight for int t^{-1/2} e^{-tA} dt with t = e^s: t^{1/2} ds
    wts = np.full(QUADRATURE_NODES, h)
    wts[0] *= 0.5
    wts[-1] *= 0.5
    wts = wts * np.exp(0.5 * s) / math.sqrt(math.pi)
    return np.exp(s), wts


def _positive_decomposition(op) -> SpectralDecomposition:
    """A radial sector's decomposition, where A^{-1/2} exists."""
    _require_sector(op)
    dec = op.decomposition
    if dec.mu[0] <= 0:
        raise SpectralError("indefinite operator: A^{-1/2} undefined")
    return dec


def inv_sqrt_apply(op, u, route: str = "spectral") -> np.ndarray:
    """A^{-1/2} u on a radial sector via the spectral calculus or the
    heat-semigroup quadrature, with e^{-tA} from the same decomposition:

        A^{-1/2} = Gamma(1/2)^{-1} int_0^inf t^{-1/2} e^{-tA} dt.
    """
    uv = np.asarray(u)
    dec = _positive_decomposition(op)
    if route == "spectral":
        return dec.fn_apply(lambda m: m**-0.5, uv)
    if route != "quadrature":
        raise SpectralError(f"unknown route {route!r}")
    ts, wts = quadrature_nodes(float(dec.mu[0]), float(dec.mu[-1]))
    c = dec.coeffs(uv)
    acc = np.zeros_like(c)
    for t, wt in zip(ts, wts):
        acc = acc + wt * np.exp(-t * dec.mu) * c
    return dec.synth(acc)


def riesz_apply(op, u, route: str = "spectral") -> np.ndarray:
    """Riesz transform R u = L A^{-1/2} u."""
    return op.apply_L(inv_sqrt_apply(op, u, route=route))


def riesz_kernel(op: SectorOperator) -> KernelMatrix:
    """Riesz transform as a kernel with respect to the weighted measure;
    at c = 0 it is -Q Q^T, as the tridiagonal factor gives L Q = -Q nu."""
    dec = _positive_decomposition(op)
    if op.c == 0.0:
        return KernelMatrix(K=-dec.synth_kernel(np.ones(op.n)), w=op.w)
    return KernelMatrix(K=op.apply_L(dec.synth_kernel(dec.mu**-0.5)), w=op.w)
