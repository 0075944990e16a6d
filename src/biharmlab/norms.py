"""Certified [lower, upper] brackets for weighted L^p -> L^q operator norms.

Upper bounds: exact corner formulas for the pairs (1,1), (inf,inf), (2,2),
(1,2), (2,inf), (1,inf) plus anything with p = 1 or q = inf, combined by
Riesz-Thorin interpolation over triangles of corner points in (1/p, 1/q)
coordinates.  Lower bounds: a dual-ascent fixed-point iteration (Boyd
type) with an explicit witness function.  The module also owns the one
OpenBLAS binding, read by `pin_blas_threads` and the kernel workers' rule.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .grids import weighted_lp
from .spectral import KernelMatrix, SpectralDecomposition


class NormError(ValueError):
    pass


CORNERS = ((1.0, 1.0), (2.0, 2.0), (math.inf, math.inf),
           (1.0, 2.0), (2.0, math.inf), (1.0, math.inf))

BOYD_MAX_ITER = 500     # dual-ascent fixed-point steps per start
BOYD_RESTARTS = 8       # dual-ascent starts, run as the columns of one block
# threads of kernel_block_norms.  Each holds its kernel and about 0.09 n^2
# more (a row block of synth_kernel, the block copies, dgesdd's workspace),
# so Q plus two stay within the 4 n^2 doubles of the eigensolve that made
# Q and a third does not: offdiag --n 2048 peaks at 201 MB on two, 212 MB
# on three
KERNEL_WORKERS = 2


def _dual(p: float) -> float:
    if p == 1.0:
        return math.inf
    if math.isinf(p):
        return 1.0
    return p / (p - 1.0)


# (prefix, suffix) around `set_num_threads` / `get_num_threads` in the
# OpenBLAS builds: numpy's and scipy's wheels, then plain OpenBLAS, each
# with and without the 64-bit-integer symbol suffix.
_OPENBLAS_SYMBOLS = (("scipy_openblas_", "64_"), ("scipy_openblas_", ""),
                     ("openblas_", "64_"), ("openblas_", ""))


def _blas_libraries() -> list:
    """Paths of the BLAS libraries mapped into this process: shared
    libraries whose file name holds `blas`, `blis` or `mkl` (OpenBLAS,
    reference BLAS, FlexiBLAS, BLIS, MKL).  Empty where /proc/self/maps
    cannot be read."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            rows = [line.split(None, 5) for line in fh]
    except OSError:
        return []
    names = {row[5].strip(): os.path.basename(row[5].strip())
             for row in rows if len(row) == 6 and row[5].startswith("/")}
    return sorted(path for path, name in names.items()
                  if name.startswith("lib")
                  and any(k in name for k in ("blas", "blis", "mkl")))


def _blas_thread_handles() -> list:
    """The (set, get) thread-count functions of each BLAS library mapped
    into this process, bound through ctypes; None for a library that
    cannot be loaded or has no OpenBLAS thread symbols."""
    handles = []
    for path in _blas_libraries():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            handles.append(None)
            continue
        for prefix, suffix in _OPENBLAS_SYMBOLS:
            try:
                setter = getattr(lib, f"{prefix}set_num_threads{suffix}")
                getter = getattr(lib, f"{prefix}get_num_threads{suffix}")
            except AttributeError:
                continue
            setter.argtypes, setter.restype = [ctypes.c_int], None
            getter.argtypes, getter.restype = [], ctypes.c_int
            handles.append((setter, getter))
            break
        else:
            handles.append(None)
    return handles


def pin_blas_threads():
    """Run every mapped OpenBLAS single-threaded, so that results do not
    depend on the BLAS thread count.  Returns `(restore, pinned)`:
    `restore()` puts the previous thread counts back, and `pinned` is
    False if no BLAS library could be set or one that cannot be set is
    loaded."""
    handles = _blas_thread_handles()
    previous = [(setter, getter()) for setter, getter in filter(None, handles)]
    for setter, _ in previous:
        setter(1)

    def restore():
        for setter, count in previous:
            setter(count)

    return restore, bool(previous) and None not in handles


@functools.cache
def _dgesdd():
    """The dgesdd that numpy's own SVD calls: in numpy's wheels, the
    ILP64 `scipy_dgesdd_64_` of the OpenBLAS its linalg module links.
    None where it cannot be reached."""
    from numpy.linalg import _umath_linalg

    try:
        fn = ctypes.CDLL(_umath_linalg.__file__).scipy_dgesdd_64_
    except (OSError, AttributeError):
        return None
    i64, ptr = ctypes.POINTER(ctypes.c_int64), ctypes.c_void_p
    # jobz, m, n, a, lda, s, u, ldu, vt, ldvt, work, lwork, iwork, info and
    # the hidden length of the jobz string
    fn.argtypes = [ctypes.c_char_p, i64, i64, ptr, i64, ptr, ptr, i64, ptr,
                   i64, ptr, i64, ptr, i64, ctypes.c_size_t]
    fn.restype = None
    return fn


def _sigma_max(A: np.ndarray) -> float:
    """Largest singular value of the 2-D array A, bit for bit
    np.linalg.norm(A, 2): the same LAPACK dgesdd, without singular
    vectors, on the same column-major matrix with the workspace it asks
    for.  A float64 Fortran-ordered A is overwritten; any other A, or any
    A where the routine is not bound, is left as it is and costs a copy."""
    if A.size == 0:
        return 0.0
    gesdd = _dgesdd()
    if gesdd is None or A.dtype != np.float64:
        return float(np.linalg.norm(A, 2))
    if not (A.flags.f_contiguous and A.flags.writeable):
        A = np.array(A, order="F")
    m, n = (ctypes.c_int64(k) for k in A.shape)
    one, info = ctypes.c_int64(1), ctypes.c_int64()
    s = np.empty(min(A.shape))
    iwork = np.empty(8 * len(s), dtype=np.int64)

    def call(work, lwork):
        # u and vt are not referenced at jobz = 'N'
        gesdd(b"N", m, n, A.ctypes.data, m, s.ctypes.data, None, one, None,
              one, work.ctypes.data, ctypes.c_int64(lwork), iwork.ctypes.data,
              info, 1)
        if info.value != 0:
            raise np.linalg.LinAlgError("SVD did not converge")

    query = np.empty(1)
    call(query, -1)                  # workspace query
    lwork = max(int(query[0]), 1)
    call(np.empty(lwork), lwork)
    return float(s.max())


def l2_norm(K: np.ndarray, w_out: np.ndarray, w_in: np.ndarray) -> float:
    """Weighted 2 -> 2 norm ||W_out^{1/2} K W_in^{1/2}||_2 of the kernel K
    from L^2(w_in) to L^2(w_out); 0 for an empty kernel.  The SVD works
    in place on the weighted copy."""
    if K.size == 0:
        return 0.0
    Kw = np.multiply(np.sqrt(w_out)[:, None], K, order="F")
    Kw *= np.sqrt(w_in)
    return _sigma_max(Kw)


def _norm_workers(tasks: int) -> int:
    """Threads for `tasks` kernels: one per core this process may run on,
    at most one per kernel and KERNEL_WORKERS.  One where the SVD cannot
    work in place, since each thread would then hold a second n x n copy,
    and one unless every mapped BLAS library can be set and reads one
    thread (the state pin_blas_threads leaves), since each thread would
    otherwise start its own team of BLAS threads."""
    handles = _blas_thread_handles()
    if (_dgesdd() is None or not handles or None in handles
            or any(getter() != 1 for _, getter in handles)):
        return 1
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    return max(1, min(cores, tasks, KERNEL_WORKERS))


def _weighted_kernel_norms(dec: SpectralDecomposition, f: np.ndarray,
                           sw: np.ndarray, blocks) -> list:
    """One row of kernel_block_norms, holding one n x n array: K is scaled
    in place by sw = w^{1/2} on rows, then on columns, the two products
    l2_norm takes, so each block of it is the weighted block l2_norm
    forms; the full norm's SVD then overwrites it."""
    Kw = dec.synth_kernel(f)
    Kw *= sw[:, None]
    Kw *= sw
    row = [_sigma_max(Kw[np.ix_(rows, cols)]) for rows, cols in blocks]
    return row + [_sigma_max(Kw)]


def kernel_block_norms(dec: SpectralDecomposition, fs, blocks) -> tuple:
    """Weighted 2 -> 2 norms of the kernels K = Q diag(f) Q^T, f in `fs`,
    bit for bit those l2_norm takes: `(table, runtime)`, where row k of
    `table` holds the norm of each block chi_F K chi_E, (F, E) boolean
    masks in `blocks`, then the norm of the full kernel.

    The kernels are independent, so they run on
    `runtime["kernel_workers"]` threads (_norm_workers), each holding one
    kernel; more than one only while every BLAS library is pinned to one
    thread, so the table does not depend on the thread count.
    `runtime["numpy_dgesdd"]` tells whether the SVDs ran in place.  The threads call no public
    function of the package, so a span tracer wrapping those sees one
    thread.
    """
    sw = np.sqrt(dec.w)
    workers = _norm_workers(len(fs))

    def row(f):
        return _weighted_kernel_norms(dec, f, sw, blocks)

    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(workers) as pool:
        rows = list(pool.map(row, fs))
    table = np.array(rows, dtype=float).reshape(len(fs), len(blocks) + 1)
    return table, {"kernel_workers": workers,
                   "numpy_dgesdd": _dgesdd() is not None}


# corner -> its transpose (q', p'), the same norm for a symmetric kernel
_TRANSPOSED = {(math.inf, math.inf): (1.0, 1.0), (1.0, 2.0): (2.0, math.inf)}


def corner_norm(kernel: KernelMatrix, p: float, q: float) -> float:
    """Exact weighted p -> q norm where a closed formula exists.

    Covers p = 1 (extreme points of the L^1 ball are scaled deltas),
    q = inf (dual statement), and (2,2) via the weighted SVD.  A kernel
    that carries its spectrum, K = Q f Q^T, gets (2,2) and (2,inf) from
    it instead: with ||W^{1/2} Q||_2^2 = gram_norm,

        ||K||_{2->2} <= gram_norm max_k |f_k|,
        ||K||_{2->inf}^2 <= gram_norm max_i sum_k Q_ik^2 |f_k|^2,

    upper bounds that are exact for a W-orthonormal Q.  For real f, K is
    symmetric, so the operator is its own adjoint and (inf,inf) and (1,2)
    are the kernel's (1,1) and (2,inf), read through its corner cache;
    for f >= 0, K is positive semidefinite, so its largest entry, the
    (1,inf) norm, is its largest diagonal entry max_i sum_k Q_ik^2 f_k.
    """
    dec = kernel.dec
    if dec is not None and np.isrealobj(kernel.f):
        if (p, q) in _TRANSPOSED:
            return _corner(kernel, *_TRANSPOSED[(p, q)])
        if p == 1.0 and math.isinf(q) and np.all(kernel.f >= 0):
            return float(np.max(dec.Q**2 @ kernel.f))
    if p == 2.0 and dec is not None and (q == 2.0 or math.isinf(q)):
        af = np.abs(kernel.f)
        if q == 2.0:
            return float(np.max(af)) * dec.gram_norm
        return math.sqrt(dec.gram_norm * float(np.max(dec.Q**2 @ af**2)))
    K, w = kernel.K, kernel.w
    if p == 2.0 and q == 2.0:
        return l2_norm(K, w, w)
    if p == 1.0:
        # columns K[:, j] are the images of w_j^{-1}-scaled deltas
        return float(np.max(weighted_lp(K, w, q)))
    if math.isinf(q):
        # rows K[i, :] are the functionals u -> (Tu)_i on L^p
        return float(np.max(weighted_lp(K.T, w, _dual(p))))
    raise NormError(f"no exact formula for ({p}, {q})")


def _has_exact(p: float, q: float) -> bool:
    return p == 1.0 or math.isinf(q) or (p == 2.0 and q == 2.0)


def _corner(kernel: KernelMatrix, p: float, q: float) -> float:
    """corner_norm(kernel, p, q), evaluated once per kernel and (p, q)."""
    cache = kernel.corner_norms
    if (p, q) not in cache:
        cache[(p, q)] = corner_norm(kernel, p, q)
    return cache[(p, q)]


def _cached_corner(kernel: KernelMatrix, p: float, q: float) -> float:
    """_corner(kernel, p, q); an inf or NaN corner raises, since no
    interpolated bound can use it."""
    value = _corner(kernel, p, q)
    if not math.isfinite(value):
        raise NormError(f"corner ({p}, {q}) norm is not finite: {value}")
    return value


def interpolation_upper(kernel: KernelMatrix, p: float, q: float) -> float:
    """Riesz-Thorin upper bound at (1/p, 1/q) from the exact corner norms.

    Exact pairs return their corner norm.  Otherwise the bound is the
    least exp(sum_i theta_i log m_i) over convex weights theta on the
    corners that hit the target point: a linear program with three
    equality constraints, optimal at a triangle of corners (a segment is
    a triangle with a zero weight).  Corner norms are read through the
    kernel's cache.
    """
    if _has_exact(p, q):
        return _cached_corner(kernel, p, q)
    tx, ty = 1.0 / p, 1.0 / q
    pts = []
    for cp, cq in CORNERS:
        x = 0.0 if math.isinf(cp) else 1.0 / cp
        y = 0.0 if math.isinf(cq) else 1.0 / cq
        pts.append((x, y, _cached_corner(kernel, cp, cq)))
    best = math.inf
    for (x0, y0, m0), (x1, y1, m1), (x2, y2, m2) in combinations(pts, 3):
        det = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
        if abs(det) < 1e-14:
            continue
        a = ((tx - x0) * (y2 - y0) - (ty - y0) * (x2 - x0)) / det
        b = ((x1 - x0) * (ty - y0) - (y1 - y0) * (tx - x0)) / det
        c0 = 1.0 - a - b
        if min(a, b, c0) >= -1e-12:
            ms = np.array([m0, m1, m2])
            ws = np.clip(np.array([c0, a, b]), 0.0, None)
            if np.all(ms > 0):
                best = min(best, float(np.exp(ws @ np.log(ms))))
            elif np.any((ms == 0) & (ws > 0)):
                best = 0.0
    if math.isinf(best):
        raise NormError(f"target ({p}, {q}) not reachable from the corner set")
    return best


def _lp_unit(u: np.ndarray, w: np.ndarray, p: float) -> np.ndarray:
    """u scaled to unit weighted L^p norm (each column of a 2-D u); a zero
    vector is returned as it is."""
    nrm = weighted_lp(u, w, p)
    return u / np.where(nrm > 0, nrm, 1.0)


def _duality_map(X: np.ndarray, nx, sgn: np.ndarray, w: np.ndarray,
                 r: float) -> np.ndarray:
    """sgn (|X|/nx)^{r-1} column by column, or at r = inf a delta
    sgn_i / w_i at the largest |X_i|: where nx holds the L^r(w) norms of
    the columns of X, the unit elements of L^{r'}(w) that attain them.
    sgn is the sign of X where X is nonzero."""
    if not math.isinf(r):
        return sgn * (np.abs(X) / nx) ** (r - 1.0)
    Y = np.zeros_like(X)
    cols = np.arange(X.shape[1])
    i = np.argmax(np.abs(X), axis=0)
    Y[i, cols] = sgn[i, cols] / w[i]
    return Y


def boyd_lower(kernel: KernelMatrix, pairs, restarts: int = BOYD_RESTARTS,
               seed: int = 0) -> list:
    """Dual-ascent lower bounds with witnesses for the weighted p -> q
    norms of one kernel: a (value, witness) per (p, q) in `pairs`.

    Alternates u <- |K^* psi|^{p'-1} sgn and psi <- |Ku|^{q-1} sgn dual
    vectors; each step is monotone nondecreasing in ||Tu||_q / ||u||_p.
    On sign ambiguity at zero entries the previous iterate's sign is kept.
    Each pair has `restarts` starts (at least 2) drawn from its own
    generator seeded with `seed`, so its value does not depend on the
    other pairs.  The
    starts of all pairs run as the columns of one block, and each step
    reads K twice for all of them; a column keeps its pair's exponents
    and stops when its own step gains no more than 1e-13 relative or its
    image is zero.  A pair's witness is its first start with the largest
    value; a pair whose value is 0 has none.
    """
    K, w = kernel.K, kernel.w
    n = K.shape[1]
    m = max(restarts, 2)                      # starts per pair
    spans = [slice(j * m, (j + 1) * m) for j in range(len(pairs))]
    owner = np.repeat(np.arange(len(pairs)), m)
    blocks = []
    for p, q in pairs:
        rng = np.random.default_rng(seed)
        # deltas at the strongest columns make good p ~ 1 starts
        e = np.zeros(n)
        e[int(np.argmax(weighted_lp(K, w, q)))] = 1.0
        starts = [np.ones(n), e]
        while len(starts) < m:
            starts.append(np.abs(rng.standard_normal(n))
                          * rng.choice([-1.0, 1.0], n))
        blocks.append(_lp_unit(np.column_stack(starts), w, p))
    U = np.hstack(blocks)
    V = K @ (w[:, None] * U)                  # images of the current iterates
    nv = np.empty(U.shape[1])
    for (_, q), s in zip(pairs, spans):
        nv[s] = weighted_lp(V[:, s], w, q)
    val = np.zeros(U.shape[1])                # last accepted value per start
    live = np.flatnonzero(nv > 0)
    for _ in range(BOYD_MAX_ITER):
        if live.size == 0:
            break
        # positions in `live` of each pair's columns
        groups = [(p, q, np.flatnonzero(owner[live] == j))
                  for j, (p, q) in enumerate(pairs)]
        groups = [g for g in groups if g[2].size]
        Psi = np.empty((n, live.size))
        for p, q, g in groups:
            Vg = V[:, live[g]]
            Psi[:, g] = _duality_map(Vg, nv[live[g]], np.sign(Vg), w, q)
        # K^T (w psi) as ((w psi)^T K)^T: no transposed copy of K
        Z = ((w[:, None] * Psi).T @ K).T
        Unew = np.empty_like(Psi)
        for p, q, g in groups:
            Zg, Ug = Z[:, g], U[:, live[g]]
            # where Z is zero, the previous iterate's sign is kept; the
            # map at unit nx gives the direction, which _lp_unit scales
            sgn = np.where(Zg != 0, np.sign(Zg), np.sign(Ug) + (Ug == 0))
            Unew[:, g] = _lp_unit(_duality_map(Zg, 1.0, sgn, w, _dual(p)),
                                  w, p)
        Vnew = K @ (w[:, None] * Unew)
        new_val = np.empty(live.size)
        for p, q, g in groups:
            new_val[g] = weighted_lp(Vnew[:, g], w, q)
        gain = new_val > val[live] * (1.0 + 1e-13)
        live = live[gain]
        U[:, live], V[:, live] = Unew[:, gain], Vnew[:, gain]
        val[live] = nv[live] = new_val[gain]
    out = []
    for s in spans:
        best = s.start + int(np.argmax(val[s]))
        out.append((float(val[best]), U[:, best].copy()) if val[best] > 0.0
                   else (0.0, None))
    return out


@dataclass
class NormEstimate:
    """Certified bracket lower <= ||T||_{p->q} <= upper with a witness."""

    p: float
    q: float
    lower: float
    upper: float
    witness: np.ndarray | None = field(default=None, repr=False)
    exact: bool = False

    def __post_init__(self):
        if self.lower > self.upper * (1.0 + 1e-10) + 1e-300:
            raise NormError(
                f"bracket inverted: lower {self.lower} > upper {self.upper}")


def opnorms(kernel: KernelMatrix, pairs, seed: int = 0) -> list:
    """Brackets for the weighted L^p -> L^q norms of one kernel operator,
    one per (p, q) in `pairs`; the lower bounds come from one dual-ascent
    block."""
    for p, q in pairs:
        if p > q:
            raise NormError("only p <= q is supported")
        if p < 1 or q < 1:
            raise NormError("p, q >= 1 required")
    uppers = [interpolation_upper(kernel, p, q) for p, q in pairs]
    lowers = boyd_lower(kernel, pairs, seed=seed)
    return [NormEstimate(p=p, q=q, lower=lower, upper=upper, witness=witness,
                         exact=_has_exact(p, q))
            for (p, q), upper, (lower, witness) in zip(pairs, uppers, lowers)]
