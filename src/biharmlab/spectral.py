"""Spectral calculus: eigendecompositions in the weighted inner product,
semigroup evaluation e^{-zA}, inverse square root A^{-1/2} by two
independent routes, and kernels.

Every operator is a radial sector (`operators.SectorOperator`): the
semigroup (complex time inside the holomorphy sector), its kernels,
A^{-1/2} and the Riesz transform read its one cached decomposition
(`SectorOperator.decomposition`).
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
DSYGST_BLOCK = 64       # LAPACK's dsygst block size (ILAENV for xSYGST)


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

    @cached_property
    def _gram_health(self) -> tuple:
        """(max |G - I|, ||G||_2) of one Gram G = Q^T W Q, not kept."""
        G, n = self._gram(), self.n
        top = float(sla.eigvalsh(G, subset_by_index=[n - 1, n - 1])[0])
        G.flat[::n + 1] -= 1.0
        return float(np.max(np.abs(G))), top

    def orthonormality_residual(self) -> float:
        return self._gram_health[0]

    @property
    def gram_norm(self) -> float:
        """||Q^T W Q||_2 = ||W^{1/2} Q||_2^2, 1 up to round-off for a
        W-orthonormal basis; it turns spectral norm formulas into upper
        bounds on the norms of the formed kernels."""
        return self._gram_health[1]

    def coeffs(self, u: np.ndarray) -> np.ndarray:
        return self.Q.T @ (self.w * u)

    def fn_apply(self, fmu: np.ndarray, u: np.ndarray) -> np.ndarray:
        """f(A) u through the spectral calculus, from the values fmu of f
        on the spectrum."""
        return self.Q @ (fmu * self.coeffs(u))

    def synth_kernel(self, fmu: np.ndarray, modes=None) -> np.ndarray:
        """Kernel Q diag(fmu) Q^T from the values fmu of f on the spectrum,
        as a Fortran-ordered array, summed over the modes `modes` (index
        array; every mode by default).

        Formed by row blocks, K[a:b] = (Q[a:b] fmu) Q^T over those modes,
        which is bit for bit the one product (Q fmu) Q^T: each block's
        Q fmu rows are taken in K's own storage, and only the block's
        product needs a temporary of n^2 / SYNTH_BLOCKS entries.
        """
        n = self.n
        K = np.empty((n, n), dtype=np.result_type(self.Q, fmu), order="F")
        Q = self.Q if modes is None else self.Q[:, modes]
        fmu = fmu if modes is None else fmu[modes]
        r = Q.shape[1]
        # a complex f casts Q once, as the one product would
        QT = Q.astype(K.dtype, copy=False).T
        rows = -(-n // SYNTH_BLOCKS)
        buf = np.empty((min(rows, n), n), dtype=K.dtype)
        for a in range(0, n, rows):
            Kb = K[a:a + rows]
            np.multiply(Q[a:a + rows], fmu, out=Kb[:, :r])
            Kb[...] = np.matmul(Kb[:, :r], QT, out=buf[:len(Kb)])
        return K


def eigendecompose(op: SectorOperator) -> SpectralDecomposition:
    """W-orthonormal eigenpairs of a radial sector's A: at c = 0 from the
    tridiagonal stiffness, otherwise from the standard form of the
    generalized eigenproblem F q = mu W q.

    For the diagonal W = L L^T, L = diag(s), s = w^{1/2}, LAPACK's
    generalized driver (dsygvd = dpotrf + dsygst + dsyevd + dtrsm) only
    scales F's five bands, solves the standard problem and scales the
    eigenvectors back.  That scaling is done here in place, in the order
    of operations dsygst uses, so mu and Q equal scipy's
    `eigh(F, diag(w))` bit for bit; no n x n diag(w) is formed, and the
    working memory is F and dsyevd's 2 n^2 workspace: about 3 n^2
    doubles.
    Non-finite F or w raises ValueError and w <= 0 raises LinAlgError,
    as that call does.
    """
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
    F = op.F
    if not (np.isfinite(F).all() and np.isfinite(w).all()):
        raise ValueError("array must not contain infs or NaNs")
    if not np.all(w > 0):
        order = int(np.argmax(w <= 0)) + 1
        raise np.linalg.LinAlgError(f"The leading minor of order {order} "
                                    "of B is not positive definite.")
    s = np.sqrt(w)
    r = 1.0 / s
    # F is exactly symmetric, so its transpose is a Fortran-ordered view
    # with the same entries, whose lower bands LAPACK reads and overwrites
    # with the eigenvectors: no copy of F is made
    A = F.T
    i = np.arange(op.n)
    A[i, i] /= s * s
    for k in (1, 2):
        j = i[:-k]
        band = A[j + k, j] * r[j]
        # inside one of dsygst's row blocks its unblocked dsygs2 divides
        # by s_i; across blocks its dtrsm multiplies by 1/s_i
        A[j + k, j] = np.where((j + k) // DSYGST_BLOCK == j // DSYGST_BLOCK,
                               band / s[j + k], band * r[j + k])
    mu, Q, info = sla.lapack.dsyevd(A, compute_v=1, lower=1, overwrite_a=1)
    if info != 0:
        raise np.linalg.LinAlgError(
            f"dsyevd did not converge (info = {info})")
    Q *= r[:, None]
    return SpectralDecomposition(mu=mu, Q=Q, w=w)


class KernelMatrix:
    """Kernel with respect to the weighted measure: (Tu)_i = sum_j K_ij w_j u_j.

    Built from its entries K, or as f(A) from a decomposition `dec` and the
    values `f` of f on its spectrum; such a kernel forms K = Q f Q^T only
    when K is first read, so norms read off the spectrum need no n x n
    kernel, and sums only its kept modes, the k with f_k != 0: the others
    add exact zeros.  `corner_norms` caches the corner norms taken of this
    kernel, keyed by (p, q), and `products` counts the kernel-vector
    products the dual ascent took with it; K, w and f must not be mutated
    once a norm has been taken.
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
        self.products = 0

    @cached_property
    def kept(self) -> np.ndarray:
        """Indices of the kept modes, the k with f_k != 0."""
        return np.flatnonzero(self.f)

    @cached_property
    def K(self) -> np.ndarray:
        kept = self.kept
        return self.dec.synth_kernel(
            self.f, None if kept.size == self.dec.n else kept)

    def apply(self, u: np.ndarray) -> np.ndarray:
        return self.K @ (self.w * u)


@dataclass
class SemigroupEvaluator:
    """Evaluator of e^{-zA} on a radial sector, complex z in the holomorphy
    sector, through the operator's one decomposition."""

    op: SectorOperator

    def apply(self, z: complex, u) -> np.ndarray:
        return self.op.decomposition.fn_apply(self.values(z), u)

    def values(self, t: complex) -> np.ndarray:
        """The values e^{-t mu} of e^{-tA} on the spectrum."""
        if np.real(t) < 0:
            raise SpectralError("Re t >= 0 required")
        return np.exp(-t * self.op.decomposition.mu)

    def kernel(self, t: complex) -> KernelMatrix:
        """Kernel of e^{-tA}, carrying its spectrum; K is formed on demand."""
        return KernelMatrix(dec=self.op.decomposition, f=self.values(t))


def quadrature_nodes(mu_min: float, mu_max: float) -> tuple:
    """Trapezoid nodes for Gamma(1/2)^{-1} int t^{-1/2} e^{-tA} dt, t = e^s,
    for a spectrum in [mu_min, mu_max] with mu_min > 0.

    The s-range is chosen so both truncation tails are below 1e-8 relative:
    left tail ~ (2/sqrt(pi)) sqrt(t_min mu_max), right tail ~ e^{-t_max mu_1}.
    """
    s_min = math.log(2.5e-17 / mu_max)
    s_max = math.log(40.0 / mu_min)
    s = np.linspace(s_min, s_max, QUADRATURE_NODES)
    h = s[1] - s[0]
    # weight for int t^{-1/2} e^{-tA} dt with t = e^s: t^{1/2} ds
    wts = np.full(QUADRATURE_NODES, h)
    wts[[0, -1]] *= 0.5
    wts = wts * np.exp(0.5 * s) / math.sqrt(math.pi)
    return np.exp(s), wts


def _positive_decomposition(op) -> SpectralDecomposition:
    """A radial sector's decomposition, where A^{-1/2} exists."""
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
        return dec.fn_apply(dec.mu**-0.5, uv)
    if route != "quadrature":
        raise SpectralError(f"unknown route {route!r}")
    ts, wts = quadrature_nodes(float(dec.mu[0]), float(dec.mu[-1]))
    c = dec.coeffs(uv)
    acc = np.zeros_like(c)
    for t, wt in zip(ts, wts):
        acc = acc + wt * np.exp(-t * dec.mu) * c
    return dec.Q @ acc


def riesz_apply(op, u, route: str = "spectral") -> np.ndarray:
    """Riesz transform R u = L A^{-1/2} u."""
    return op.apply_L(inv_sqrt_apply(op, u, route=route))


def riesz_kernel(op: SectorOperator) -> KernelMatrix:
    """Riesz transform as a kernel with respect to the weighted measure;
    at c = 0 it is -Q Q^T, as the tridiagonal factor gives L Q = -Q nu.
    L (or the sign) is applied in place to the kernel synth_kernel
    forms, so the kernel is the one n x n array made."""
    dec = _positive_decomposition(op)
    if op.c == 0.0:
        K = dec.synth_kernel(np.ones(op.n))
        return KernelMatrix(K=np.negative(K, out=K), w=op.w)
    K = dec.synth_kernel(dec.mu**-0.5)
    return KernelMatrix(K=op.apply_L(K, out=K), w=op.w)
